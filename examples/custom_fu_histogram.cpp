// Developing an application (paper §IV): a user-defined *stateful*
// functional unit.  The paper names "histogram calculators" as a canonical
// stateful unit; this example builds one on the framework's minimal
// skeleton, attaches it under a user function code, and drives it from the
// host.
//
// This is the complete recipe a framework user follows:
//   1. write the datapath as a core: a function of variety code and
//      operands that returns the operation's output, updating the unit's
//      state on the way (the skeleton calls it once per operation);
//   2. pick a skeleton — here fu::MinimalFu, one operation in flight — and
//      hand it the core; the skeleton speaks the dispatch/idle/data_ready/
//      data_acknowledge protocol;
//   3. attach the unit to the System under a function code >=
//      isa::fc::kUserBase and issue instructions with that code from the
//      host.

#include <cstdio>
#include <vector>

#include "fu/minimal_fu.hpp"
#include "host/coprocessor.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "top/system.hpp"
#include "util/rng.hpp"

namespace {

using namespace fpgafu;

/// Histogram unit: 16 bins of persistent state.
/// Variety codes: 0 = clear all bins; 1 = insert operand1 (bin = value
/// mod 16); 2 = read bin[operand1]; 3 = read total insert count.
class HistogramUnit : public fu::MinimalFu {
 public:
  explicit HistogramUnit(sim::Simulator& sim)
      : MinimalFu(sim, "histogram",
                  [this](isa::VarietyCode v, isa::Word a, isa::Word,
                         isa::FlagWord) { return execute(v, a); }) {}

  static constexpr isa::VarietyCode kClear = 0;
  static constexpr isa::VarietyCode kInsert = 1;
  static constexpr isa::VarietyCode kReadBin = 2;
  static constexpr isa::VarietyCode kTotal = 3;

  void reset() override {
    MinimalFu::reset();
    bins_.assign(bins_.size(), 0);
    total_ = 0;
  }

 private:
  /// The datapath core.
  fu::StatelessOut execute(isa::VarietyCode variety, isa::Word value) {
    isa::Word result = 0;
    switch (variety) {
      case kClear:
        bins_.assign(bins_.size(), 0);
        total_ = 0;
        break;
      case kInsert:
        ++bins_[value % bins_.size()];
        result = ++total_;
        break;
      case kReadBin:
        result = bins_[value % bins_.size()];
        break;
      case kTotal:
      default:
        result = total_;
        break;
    }
    return fu::word_out(result, /*error=*/false);
  }

  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(16, 0);
  std::uint64_t total_ = 0;
};

constexpr isa::FunctionCode kHistogramCode = isa::fc::kUserBase + 1;

isa::Instruction histogram_op(isa::VarietyCode variety, isa::RegNum src,
                              isa::RegNum dst) {
  isa::Instruction inst;
  inst.function = kHistogramCode;
  inst.variety = variety;
  inst.src1 = src;
  inst.dst1 = dst;
  return inst;
}

}  // namespace

int main() {
  top::SystemConfig config;
  top::System system(config);
  HistogramUnit histogram(system.simulator());
  system.attach(kHistogramCode, histogram);
  host::Coprocessor copro(system);

  // Feed 500 random values; keep the host-side truth for the check.
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> truth(16, 0);
  isa::Program feed;
  feed.emit(histogram_op(HistogramUnit::kClear, 0, 1));
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.below(1000);
    ++truth[v % 16];
    feed.emit_put(1, v);
    feed.emit(histogram_op(HistogramUnit::kInsert, 1, 2));
  }
  copro.submit(feed);
  copro.sync();

  // Read the bins back through the register file.
  bool ok = true;
  std::printf("bin  count  expected\n");
  for (isa::RegNum bin = 0; bin < 16; ++bin) {
    isa::Program read;
    read.emit_put(1, bin);
    read.emit(histogram_op(HistogramUnit::kReadBin, 1, 2));
    isa::Instruction get = isa::rtm_instruction(isa::RtmOp::kGet);
    get.src1 = 2;
    read.emit(get);
    const auto responses = copro.call(read);
    const std::uint64_t count = responses.front().payload;
    std::printf("%3u  %5llu  %8llu\n", bin,
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(truth[bin]));
    ok = ok && count == truth[bin];
  }
  std::printf(ok ? "histogram matches the host-side truth.\n"
                 : "HISTOGRAM MISMATCH\n");
  return ok ? 0 : 1;
}
