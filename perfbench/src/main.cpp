// Benchmark of the coprocessor stack (host -> link -> RTM -> FU and back).
//
//   perfbench --workload <tiny_stream|hpcc|wide_fu> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke]
//
// With --trace 0 it prints the end-to-end metrics of the workload, measured
// with no timers inside the measured loop.  With --trace 1 it repeats the
// untraced run briefly, then runs the workload again with a span around
// every call into a layer's public functions and prints the per-layer
// metrics, the two wall times and the tracing overhead.  The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md in this directory for the metric tables.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <tiny_stream|hpcc|wide_fu> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") {
        usage("--trace takes 0 or 1");
      }
      opt.trace = t == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.seconds <= 0.0) {
    usage("--seconds must be > 0");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to measure a build without NDEBUG "
               "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::getenv("FPGAFU_KERNEL") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: FPGAFU_KERNEL is set; the benchmark measures the "
                 "library's default settle kernel only — unset it\n");
    return 2;
  }
  const Options opt = parse(argc, argv);

  Report report;
  try {
    if (opt.workload == "tiny_stream") {
      report = perfbench::run_tiny_stream(opt);
    } else if (opt.workload == "hpcc") {
      report = perfbench::run_hpcc(opt);
    } else if (opt.workload == "wide_fu") {
      report = perfbench::run_wide_fu(opt);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  const bool correct = report.failed == 0 && report.consistent;
  std::string ctx = "{\"context\": {";
  const auto field = [&](const std::string& k, const std::string& v) {
    ctx += ctx.back() == '{' ? "\"" : ", \"";
    ctx += json_escape(k);
    ctx += "\": \"";
    ctx += json_escape(v);
    ctx += '"';
  };
  field("workload", opt.workload);
  field("seed", std::to_string(opt.seed));
  field("seconds", std::to_string(opt.seconds));
  field("trace", opt.trace ? "1" : "0");
  field("smoke", opt.smoke ? "1" : "0");
  field("kernel", fpgafu::sim::Simulator::kernel_name(perfbench::default_kernel()));
#if defined(__clang__)
  field("compiler", std::string("clang ") + __clang_version__);
#else
  field("compiler", std::string("gcc ") + __VERSION__);
#endif
  field("build_type", PERFBENCH_BUILD_TYPE);
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("fail_ratio", std::to_string(perfbench::ratio(
                          static_cast<double>(report.failed),
                          static_cast<double>(report.attempted))));
  for (const auto& [k, v] : report.context) {
    field(k, v);
  }
  ctx += "}}";
  std::printf("%s\n", ctx.c_str());

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out += i == 0 ? "\"" : ", \"";
    out += json_escape(m.name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
