// The dispatcher reuses its last plan while the offered instruction, the
// lock manager, both register files, the FU table and (when the plan read
// it) the target unit's idle are unchanged.  Every test here holds one
// instruction at the dispatcher while exactly one of those inputs changes
// underneath it, and checks that the instruction then does what a freshly
// computed plan says — the same under both settle kernels.  The last test
// checks that the decoder, holding the next instruction behind a waiting
// one, sleeps meanwhile.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fu/functional_unit.hpp"
#include "fu/stateless_units.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "rtm/rtm.hpp"
#include "support/handshake_harness.hpp"

namespace fpgafu::rtm {
namespace {

using isa::Assembler;
using sim::Simulator;

/// Response sink whose ready the test opens and closes: closed, it backs
/// the pipeline up until the dispatcher holds an instruction.
class Sink : public sim::Component {
 public:
  explicit Sink(Simulator& s) : Component(s, "sink") {}
  sim::Handshake<msg::Response>* in = nullptr;

  void eval() override { in->ready.set(open_); }
  void commit() override {
    if (in->fire()) {
      received.push_back(in->data.get());
      mark_active();
    }
  }
  void set_open(bool open) {
    open_ = open;
    wake();  // eval() reads open_, a host-side channel
  }
  std::vector<msg::Response> received;

 private:
  bool open_ = true;
};

/// A unit whose completion writes nothing: the write arbiter only releases
/// its destination locks.  The one way a lock changes with no register or
/// flag write.
class SilentFu : public fu::FunctionalUnit {
 public:
  SilentFu(Simulator& s, unsigned latency)
      : FunctionalUnit(s, "silent"), latency_(latency) {}

  void eval() override {
    ports.idle.set(left_ == 0 && !pending_);
    ports.data_ready.set(pending_ && left_ == 0);
    fu::FuResult r;
    r.dst_reg = dst_;
    r.dst_flag_reg = dst_flag_;
    ports.result.set(r);
  }
  void commit() override {
    if (ports.dispatch.get()) {
      dst_ = ports.request.get().dst_reg;
      dst_flag_ = ports.request.get().dst_flag_reg;
      pending_ = true;
      left_ = latency_;
      mark_active();
    } else if (left_ > 0) {
      --left_;
      mark_active();
    } else if (pending_ && ports.data_acknowledge.get()) {
      pending_ = false;
      mark_active();
    }
  }

 private:
  unsigned latency_;
  unsigned left_ = 0;
  bool pending_ = false;
  isa::RegNum dst_ = 0;
  isa::RegNum dst_flag_ = 0;
};

/// An RTM fed by a producer and drained by a Sink, with an arithmetic FSM
/// unit of `execute_cycles` under fc::kArith.
struct Rig {
  Simulator sim;
  Rtm rtm;
  sim::Handshake<isa::Word> instr;
  sim::Handshake<msg::Response> resp;
  testing::Producer<isa::Word> prod;
  Sink sink;
  std::unique_ptr<fu::FunctionalUnit> arith;

  explicit Rig(Simulator::Kernel kernel, std::uint32_t execute_cycles = 1)
      : rtm(sim, RtmConfig{}),
        instr(sim),
        resp(sim),
        prod(sim, "host_tx", {}),
        sink(sim) {
    sim.set_kernel(kernel);
    rtm.bind_input(instr);
    rtm.bind_output(resp);
    prod.bind(instr);
    sink.in = &resp;
    fu::StatelessConfig cfg;
    cfg.skeleton = fu::Skeleton::kFsm;
    cfg.execute_cycles = execute_cycles;
    arith = fu::make_arithmetic_unit(sim, cfg);
    rtm.attach(isa::fc::kArith, *arith);
  }

  void feed(const isa::Program& program) {
    for (const isa::Word w : program.words()) {
      prod.push(w);
    }
  }

  std::uint64_t count(const char* name) const {
    return rtm.counters().get(name);
  }

  /// Step until the dispatcher has held one instruction for a few cycles
  /// without launching anything.
  void run_until_waiting() {
    unsigned held = 0;
    std::uint64_t launched = 0;
    for (unsigned i = 0; i < 1000 && held < 4; ++i) {
      sim.step();
      const std::uint64_t now =
          count("dispatch.exec") + count("dispatch.unit");
      held = rtm.dispatcher().busy() && now == launched ? held + 1 : 0;
      launched = now;
    }
    ASSERT_EQ(held, 4u) << "no instruction waits at the dispatcher";
  }

  /// Open the sink and run until `n` responses arrived and the RTM drained.
  const std::vector<msg::Response>& drain(std::size_t n) {
    sink.set_open(true);
    sim.run_until(
        [&] { return sink.received.size() >= n && rtm.quiescent(); }, 5000);
    return sink.received;
  }
};

/// Behind a closed sink, five GETs of r0 fill the encoder (four) and the
/// execution stage (one), so the instruction after them waits at the
/// dispatcher with a complete plan.  Once waiting, exactly kLaunched
/// instructions (the PUTI and the GETs) have left the dispatcher.
constexpr int kFillers = 5;
constexpr std::uint64_t kLaunched = 1 + kFillers;
constexpr std::size_t kResponses = kFillers + 1;

std::string backed_up(const char* waiting) {
  std::string src = "PUTI r5, 7\n";
  for (int i = 0; i < kFillers; ++i) {
    src += "GET r0\n";
  }
  return src + waiting + "\n";
}

std::vector<isa::Word> payloads(const std::vector<msg::Response>& rs) {
  std::vector<isa::Word> out;
  for (const msg::Response& r : rs) {
    out.push_back(r.payload);
  }
  return out;
}

TEST(DispatchMemo, HostRegisterPokeReachesAWaitingGet) {
  for (const auto kernel : Simulator::kAllKernels) {
    SCOPED_TRACE(Simulator::kernel_name(kernel));
    Rig rig(kernel);
    rig.sink.set_open(false);
    const isa::Program program = Assembler::assemble(backed_up("GET r5"));
    rig.feed(program);
    rig.run_until_waiting();
    ASSERT_EQ(rig.count("dispatch.exec"), kLaunched);  // GET r5 waits
    rig.rtm.regs().write(5, 1234);
    rig.sim.run(3);
    const auto& got = rig.drain(kResponses);
    ASSERT_EQ(got.size(), kResponses);
    EXPECT_EQ(got.back().payload, 1234u);
    // The reference model sees the poke as a PUT ahead of the GET.
    host::ReferenceModel ref(RtmConfig{});
    const auto want = ref.run(Assembler::assemble(
        backed_up("PUT r5, #1234\nGET r5")));
    EXPECT_EQ(payloads(got), payloads(want));
  }
}

TEST(DispatchMemo, FlagWriteReachesAWaitingGetFlags) {
  for (const auto kernel : Simulator::kAllKernels) {
    SCOPED_TRACE(Simulator::kernel_name(kernel));
    Rig rig(kernel);
    rig.sink.set_open(false);
    rig.feed(Assembler::assemble(backed_up("GETF f3")));
    rig.run_until_waiting();
    ASSERT_EQ(rig.count("dispatch.exec"), kLaunched);
    rig.rtm.flags().write(3, 0x5);
    rig.sim.run(3);
    const auto& got = rig.drain(kResponses);
    ASSERT_EQ(got.size(), kResponses);
    EXPECT_EQ(got.back().type, msg::Response::Type::kFlags);
    EXPECT_EQ(got.back().code, 0x5u);
  }
}

TEST(DispatchMemo, LockReleaseWithoutAWriteStartsAWaitingGet) {
  for (const auto kernel : Simulator::kAllKernels) {
    SCOPED_TRACE(Simulator::kernel_name(kernel));
    Rig rig(kernel);
    SilentFu silent(rig.sim, 12);
    constexpr isa::FunctionCode kSilent = isa::fc::kUserBase;
    rig.rtm.attach(kSilent, silent);
    isa::Program program = Assembler::assemble("PUTI r3, 9");
    isa::Instruction touch;
    touch.function = kSilent;
    touch.dst1 = 3;
    touch.dst_flag = 1;
    program.emit(touch);
    Assembler::assemble_line("GET r3", program);
    rig.feed(program);
    rig.run_until_waiting();
    EXPECT_GT(rig.count("stall.lock"), 0u);  // GET r3 waits on r3's lock
    const auto& got = rig.drain(1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].payload, 9u);
    rig.rtm.detach(kSilent);  // before the unit goes out of scope
  }
}

TEST(DispatchMemo, BeginDetachTurnsAWaitingInstructionUnavailableAtOnce) {
  for (const auto kernel : Simulator::kAllKernels) {
    SCOPED_TRACE(Simulator::kernel_name(kernel));
    Rig rig(kernel, /*execute_cycles=*/40);
    rig.feed(Assembler::assemble(R"(
      PUTI r1, 40
      PUTI r2, 2
      ADD r3, r1, r2, f1
      ADD r4, r1, r2, f2
    )"));
    rig.run_until_waiting();  // the second ADD waits for the busy unit
    EXPECT_GT(rig.count("stall.unit_busy"), 0u);
    rig.rtm.begin_detach(isa::fc::kArith);
    rig.sim.run(2);
    // Draining refuses the waiting ADD now, while the first still runs.
    EXPECT_FALSE(rig.rtm.dispatcher().busy());
    EXPECT_FALSE(rig.arith->ports.idle.peek());
    const auto& got = rig.drain(1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].type, msg::Response::Type::kError);
    EXPECT_EQ(got[0].code,
              static_cast<std::uint8_t>(msg::ErrorCode::kUnitUnavailable));
    EXPECT_EQ(rig.rtm.regs().read(3), 42u);  // the in-flight ADD retired
  }
}

TEST(DispatchMemo, FinishDetachUnderAWaitingGetKeepsItsValue) {
  for (const auto kernel : Simulator::kAllKernels) {
    SCOPED_TRACE(Simulator::kernel_name(kernel));
    Rig rig(kernel);
    rig.rtm.begin_detach(isa::fc::kArith);
    rig.sink.set_open(false);
    rig.feed(Assembler::assemble(backed_up("GET r5")));
    rig.run_until_waiting();
    ASSERT_EQ(rig.count("dispatch.exec"), kLaunched);
    ASSERT_TRUE(rig.rtm.detach_drained(isa::fc::kArith));
    rig.rtm.finish_detach(isa::fc::kArith);
    rig.sim.run(3);
    const auto& got = rig.drain(kResponses);
    host::ReferenceModel ref(RtmConfig{});
    EXPECT_EQ(payloads(got),
              payloads(ref.run(Assembler::assemble(backed_up("GET r5")))));
  }
}

TEST(DispatchMemo, DeclareUnavailableRetypesAWaitingUnknownFunction) {
  for (const auto kernel : Simulator::kAllKernels) {
    SCOPED_TRACE(Simulator::kernel_name(kernel));
    Rig rig(kernel);
    rig.sink.set_open(false);
    rig.feed(Assembler::assemble(backed_up("AND r3, r5, r5")));
    rig.run_until_waiting();
    ASSERT_EQ(rig.count("dispatch.exec"), kLaunched);
    rig.rtm.declare_unavailable(isa::fc::kLogic);
    rig.sim.run(3);
    const auto& got = rig.drain(kResponses);
    ASSERT_EQ(got.size(), kResponses);
    EXPECT_EQ(got.back().type, msg::Response::Type::kError);
    EXPECT_EQ(got.back().code,
              static_cast<std::uint8_t>(msg::ErrorCode::kUnitUnavailable));
  }
}

TEST(DispatchMemo, AttachDispatchesAWaitingUnavailableInstruction) {
  for (const auto kernel : Simulator::kAllKernels) {
    SCOPED_TRACE(Simulator::kernel_name(kernel));
    Rig rig(kernel);
    rig.rtm.declare_unavailable(isa::fc::kLogic);
    rig.sink.set_open(false);
    rig.feed(Assembler::assemble(backed_up("XOR r3, r5, r0\nGET r3")));
    rig.run_until_waiting();
    ASSERT_EQ(rig.count("dispatch.exec"), kLaunched);
    const auto logic =
        fu::make_stock_unit(rig.sim, isa::fc::kLogic, fu::StatelessConfig{});
    rig.rtm.attach(isa::fc::kLogic, *logic);
    rig.sim.run(3);
    const auto& got = rig.drain(kResponses);
    host::ReferenceModel ref(RtmConfig{});
    const auto want =
        ref.run(Assembler::assemble(backed_up("XOR r3, r5, r0\nGET r3")));
    EXPECT_EQ(payloads(got), payloads(want));
    ASSERT_EQ(got.size(), kResponses);
    EXPECT_EQ(got.back().type, msg::Response::Type::kData);
    EXPECT_EQ(got.back().payload, 7u);
    rig.rtm.detach(isa::fc::kLogic);  // before the unit goes out of scope
  }
}

TEST(DecoderSleep, HeldInstructionCostsNoCommitsWhileTheDispatcherStalls) {
  // The second ADD waits at the dispatcher for the busy 64-cycle unit and
  // the third waits in the decoder.  Per stalled cycle only the dispatcher
  // (its stall accounting) and the always-active test producer commit;
  // the decoder, whose output cannot fire, sleeps.
  Rig rig(Simulator::Kernel::kEvent, /*execute_cycles=*/64);
  rig.feed(Assembler::assemble(R"(
    PUTI r1, 40
    PUTI r2, 2
    ADD r3, r1, r2, f1
    ADD r4, r1, r2, f2
    ADD r5, r1, r2, f3
  )"));
  rig.run_until_waiting();
  const std::uint64_t commits = rig.sim.commits_performed();
  const std::uint64_t stalls = rig.count("stall.unit_busy");
  constexpr std::uint64_t kCycles = 32;
  rig.sim.run(kCycles);
  ASSERT_EQ(rig.count("stall.unit_busy") - stalls, kCycles);
  EXPECT_LE(rig.sim.commits_performed() - commits, 2 * kCycles + 2);
  rig.drain(0);
  EXPECT_EQ(rig.rtm.regs().read(5), 42u);
}

}  // namespace
}  // namespace fpgafu::rtm
