#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "support/rtm_harness.hpp"

namespace fpgafu::rtm {
namespace {

using fpgafu::testing::RtmRig;
using isa::Assembler;

TEST(RtmTrace, RecordsDispatchesAndWritebacks) {
  RtmRig rig;
  rig.run_program(Assembler::assemble(R"(
    PUT r1, #5
    PUT r2, #6
    ADD r3, r1, r2
    GET r3
  )"));

  const sim::Counters& c = rig.rtm.counters();
  EXPECT_EQ(c.get("dispatch.unit"), 1u);        // the ADD
  EXPECT_EQ(c.get("dispatch.exec"), 3u);        // two PUTs + the GET
  EXPECT_EQ(c.get("arbiter.hp_data"), 2u);      // the two PUT register writes
  EXPECT_EQ(c.get("arbiter.unit_writes"), 1u);  // the ADD's result
  EXPECT_EQ(rig.rtm.regs().read(3), 11u);
}

}  // namespace
}  // namespace fpgafu::rtm
