#include <cstdlib>
#include <map>

#include <gtest/gtest.h>

#include "host/reference_model.hpp"
#include "host/reliable_transport.hpp"
#include "support/program_gen.hpp"

namespace fpgafu::host {
namespace {

/// Iteration count: default 100 random programs; CI jobs export
/// FPGAFU_SOAK_PROGRAMS to abbreviate the run.  A long run reproduces the
/// CRC-16 torn response frame of ROADMAP item 1, at program 4548:
///
///   FPGAFU_SOAK_PROGRAMS=5000 test_transport_soak
std::size_t soak_programs() {
  if (const char* env = std::getenv("FPGAFU_SOAK_PROGRAMS")) {
    const long n = std::atol(env);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  return 100;
}

/// End-to-end fault soak (the PR's acceptance test): random programs over a
/// link that drops, corrupts and duplicates 5% of upstream words each and
/// jitters both directions, must still produce exactly the reference
/// model's responses through the retry layer.
TEST(TransportSoak, RandomProgramsSurviveFivePercentFaultRates) {
  rtm::RtmConfig rcfg;
  rcfg.data_regs = 12;
  rcfg.flag_regs = 4;
  constexpr std::uint64_t kBaseSeed = 0xf00d0000;

  const std::size_t programs = soak_programs();
  std::map<std::string, std::uint64_t> transport_totals;
  std::map<std::string, std::uint64_t> fault_totals;

  for (std::size_t i = 0; i < programs; ++i) {
    top::SystemConfig cfg;
    cfg.rtm = rcfg;
    msg::FaultConfig f;
    f.seed = kBaseSeed + i;
    f.up.drop_ppm = 50'000;
    f.up.corrupt_ppm = 50'000;
    f.up.duplicate_ppm = 50'000;
    f.up.jitter_max = 3;
    f.down.jitter_max = 2;
    cfg.link_faults = f;
    top::System sys(cfg);
    Coprocessor copro(sys);
    ReliableTransport transport(copro);

    const isa::Program p = fpgafu::testing::random_program(
        rcfg, kBaseSeed ^ (i * 2654435761u), {.instructions = 30});
    const auto got = transport.call(p);
    const auto expected = ReferenceModel(rcfg).run(p);
    ASSERT_EQ(got, expected) << "program " << i;

    for (const auto& [name, value] : transport.counters().all()) {
      transport_totals[name] += value;
    }
    for (const auto& [name, value] : sys.link().fault_counters().all()) {
      fault_totals[name] += value;
    }
  }

  // The run must actually have exercised the machinery it claims to test.
  EXPECT_GT(fault_totals["link.up_dropped"], 0u);
  EXPECT_GT(fault_totals["link.up_corrupted"], 0u);
  EXPECT_GT(fault_totals["link.up_duplicated"], 0u);
  EXPECT_GT(transport_totals["transport.retries"], 0u);
  EXPECT_EQ(transport_totals["transport.failures"], 0u);
}

}  // namespace
}  // namespace fpgafu::host
