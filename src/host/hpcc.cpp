#include "host/hpcc.hpp"

#include <chrono>
#include <utility>

#include "fu/gemm_unit.hpp"
#include "fu/scratchpad_unit.hpp"
#include "host/coprocessor.hpp"
#include "host/reference_model.hpp"
#include "host/reliable_transport.hpp"
#include "isa/arith.hpp"
#include "isa/logic.hpp"
#include "isa/muldiv.hpp"
#include "isa/program.hpp"
#include "isa/rtm_ops.hpp"
#include "isa/shift.hpp"
#include "top/system.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fpgafu::host::hpcc {
namespace {

/// Function codes the suite attaches its units under.
constexpr isa::FunctionCode kVecRamCode = isa::fc::kUserBase;
constexpr isa::FunctionCode kGemmCode = isa::fc::kUserBase + 1;

/// One 64-bit-word system shared by all workloads: wide registers so the
/// LCG/GEMM arithmetic is native, and enough of them for 8-wide register
/// blocking with three live blocks.
top::SystemConfig suite_system_config() {
  top::SystemConfig cfg;
  cfg.rtm.word_width = 64;
  cfg.rtm.data_regs = 64;
  cfg.with_float = false;  // the suite is integer-only; keep the fabric lean
  cfg.with_trig = false;
  return cfg;
}

isa::Instruction fu_op(isa::FunctionCode f, isa::VarietyCode v, isa::RegNum dst,
                       isa::RegNum src1, isa::RegNum src2,
                       isa::RegNum dst_flag) {
  isa::Instruction inst;
  inst.function = f;
  inst.variety = v;
  inst.dst1 = dst;
  inst.src1 = src1;
  inst.src2 = src2;
  inst.dst_flag = dst_flag;
  return inst;
}

isa::Instruction rtm_op(isa::RtmOp op) {
  isa::Instruction inst;
  inst.function = isa::fc::kRtm;
  inst.variety = static_cast<isa::VarietyCode>(op);
  return inst;
}

isa::Instruction get_reg(isa::RegNum src) {
  isa::Instruction inst = rtm_op(isa::RtmOp::kGet);
  inst.src1 = src;
  return inst;
}

isa::Instruction get_flags(isa::RegNum src_flag) {
  isa::Instruction inst = rtm_op(isa::RtmOp::kGetFlags);
  inst.src_flag = src_flag;
  return inst;
}

/// Cycles destinations through `count` registers from `first` so
/// independent operations do not serialise on one register's lock (every
/// FU op's flag destination goes through the whole flag file this way).
class RegCycler {
 public:
  RegCycler(isa::RegNum first, std::size_t count)
      : first_(first), count_(count) {}
  isa::RegNum next() {
    return static_cast<isa::RegNum>(first_ + counter_++ % count_);
  }

 private:
  isa::RegNum first_;
  std::size_t count_;
  std::size_t counter_ = 0;
};

/// A System's clocks at the start of a measured pass.
class Pass {
 public:
  explicit Pass(top::System& sys)
      : sys_(sys),
        cycle0_(sys.simulator().cycle()),
        steps0_(sys.simulator().steps_performed()),
        lock_stalls0_(lock_stalls()) {}

  /// Add the pass's wall time, simulated cycles, executed steps and RTM
  /// lock-stall cycles so far to `r`; returns the cycles.
  std::uint64_t add_to(WorkloadResult& r) const {
    r.wall_ms += std::chrono::duration_cast<
                     std::chrono::duration<double, std::milli>>(
                     std::chrono::steady_clock::now() - t0_)
                     .count();
    const std::uint64_t cycles = sys_.simulator().cycle() - cycle0_;
    r.cycles += cycles;
    r.steps += sys_.simulator().steps_performed() - steps0_;
    r.lock_stalls += lock_stalls() - lock_stalls0_;
    return cycles;
  }

 private:
  std::uint64_t lock_stalls() const {
    return sys_.rtm().counters().get("stall.lock");
  }

  top::System& sys_;
  std::uint64_t cycle0_;
  std::uint64_t steps0_;
  std::uint64_t lock_stalls0_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// Extract the kData payloads of a response stream, in order.
std::vector<isa::Word> data_payloads(const std::vector<msg::Response>& rs) {
  std::vector<isa::Word> out;
  for (const auto& r : rs) {
    if (r.type == msg::Response::Type::kData) {
      out.push_back(r.payload);
    }
  }
  return out;
}

/// Read `count` scratchpad words starting at `base` back to the host:
/// register-blocked reads followed by one GETV burst per block.
std::vector<isa::Word> read_back_ram(Coprocessor& copro, isa::Word base,
                                     std::size_t count, RegCycler& fl) {
  constexpr std::size_t kWindow = 8;
  constexpr isa::RegNum kBlockBase = 8;
  std::vector<isa::Word> out;
  out.reserve(count);
  for (std::size_t off = 0; off < count; off += kWindow) {
    const std::size_t chunk = std::min(kWindow, count - off);
    isa::Program p;
    for (std::size_t i = 0; i < chunk; ++i) {
      p.emit_put(1, base + off + i);
      p.emit(fu_op(kVecRamCode, fu::ScratchpadUnit::kRead,
                   static_cast<isa::RegNum>(kBlockBase + i), 1, 0, fl.next()));
    }
    p.emit_get_vec(kBlockBase, static_cast<std::uint8_t>(chunk));
    for (isa::Word w : data_payloads(copro.call(p))) {
      out.push_back(w);
    }
  }
  return out;
}

void verify_vector(const std::vector<isa::Word>& got,
                   const std::vector<isa::Word>& expect, WorkloadResult& r) {
  r.verified += expect.size();
  if (got.size() != expect.size()) {
    r.mismatches += expect.size();
    return;
  }
  for (std::size_t i = 0; i < expect.size(); ++i) {
    if (got[i] != expect[i]) {
      ++r.mismatches;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// STREAM
// ---------------------------------------------------------------------------

std::vector<WorkloadResult> run_stream(Kernel kernel, const StreamConfig& cfg) {
  check(cfg.block >= 1 && cfg.block <= 8,
        "StreamConfig::block must be 1..8 (register window r8..r15)");
  check(cfg.elements >= cfg.block && cfg.elements % cfg.block == 0,
        "StreamConfig::elements must be a positive multiple of block");

  const std::size_t n = cfg.elements;
  const std::size_t blk = cfg.block;
  // Vector bases inside the scratchpad.
  const isa::Word kA = 0;
  const isa::Word kB = static_cast<isa::Word>(n);
  const isa::Word kC = static_cast<isa::Word>(2 * n);
  // Register map: r1 address, r2 write sink, r3 scalar q, r8../r16../r24..
  // the three register blocks.
  constexpr isa::RegNum kRx = 8, kRy = 16, kRz = 24;

  const top::SystemConfig scfg = suite_system_config();
  top::System sys(scfg);
  sys.simulator().set_kernel(kernel);
  fu::ScratchpadUnit ram(sys.simulator(), "vec_ram", 3 * n, 64);
  sys.attach(kVecRamCode, ram);
  Coprocessor copro(sys);
  RegCycler fl(0, scfg.rtm.flag_regs);

  // Host mirrors of the three vectors; the oracle passes below advance them
  // in lock-step with the measured passes.
  Xoshiro256 rng(cfg.seed);
  std::vector<isa::Word> a(n), b(n), c(n, 0);
  for (auto& v : a) {
    v = rng.below(std::uint64_t{1} << 20);
  }
  for (auto& v : b) {
    v = rng.below(std::uint64_t{1} << 20);
  }

  // Setup (unmeasured): q, then a and b streamed in — every host->FPGA data
  // word rides a PUTV burst into the register window, then spills to RAM.
  isa::Program load;
  load.emit_put(3, cfg.scalar);
  const auto load_vec = [&](isa::Word base, const std::vector<isa::Word>& v) {
    for (std::size_t off = 0; off < n; off += blk) {
      load.emit_put_vec(kRx, std::vector<isa::Word>(v.begin() + static_cast<std::ptrdiff_t>(off),
                                                    v.begin() + static_cast<std::ptrdiff_t>(off + blk)));
      for (std::size_t i = 0; i < blk; ++i) {
        load.emit_put(1, base + off + i);
        load.emit(fu_op(kVecRamCode, fu::ScratchpadUnit::kWrite, 2, 1,
                        static_cast<isa::RegNum>(kRx + i), fl.next()));
      }
    }
  };
  load_vec(kA, a);
  load_vec(kB, b);
  copro.submit(load);
  copro.sync();

  // Per-block program fragments for the four passes.
  const auto read_block = [&](isa::Program& p, isa::Word base, std::size_t off,
                              isa::RegNum dst_base) {
    for (std::size_t i = 0; i < blk; ++i) {
      p.emit_put(1, base + off + i);
      p.emit(fu_op(kVecRamCode, fu::ScratchpadUnit::kRead,
                   static_cast<isa::RegNum>(dst_base + i), 1, 0, fl.next()));
    }
  };
  const auto write_block = [&](isa::Program& p, isa::Word base, std::size_t off,
                               isa::RegNum src_base) {
    for (std::size_t i = 0; i < blk; ++i) {
      p.emit_put(1, base + off + i);
      p.emit(fu_op(kVecRamCode, fu::ScratchpadUnit::kWrite, 2, 1,
                   static_cast<isa::RegNum>(src_base + i), fl.next()));
    }
  };
  const auto alu_block = [&](isa::Program& p, isa::FunctionCode f,
                             isa::VarietyCode v, isa::RegNum dst_base,
                             isa::RegNum s1_base, isa::RegNum s2_base,
                             bool s2_scalar) {
    for (std::size_t i = 0; i < blk; ++i) {
      p.emit(fu_op(f, v, static_cast<isa::RegNum>(dst_base + i),
                   static_cast<isa::RegNum>(s1_base + i),
                   s2_scalar ? isa::RegNum{3}
                             : static_cast<isa::RegNum>(s2_base + i),
                   fl.next()));
    }
  };
  const isa::VarietyCode kAdd = isa::arith::variety(isa::arith::Op::kAdd);
  const isa::VarietyCode kMul = isa::muldiv::variety(isa::muldiv::Op::kMul);

  const auto measure = [&](const char* name, std::uint64_t words,
                           const isa::Program& p) {
    WorkloadResult r;
    r.name = name;
    r.job_unit = "word";
    r.jobs = words;
    const Pass pass(sys);
    copro.call(p);
    pass.add_to(r);
    return r;
  };

  std::vector<WorkloadResult> results;

  // copy: c[i] = a[i]
  {
    isa::Program p;
    for (std::size_t off = 0; off < n; off += blk) {
      read_block(p, kA, off, kRx);
      write_block(p, kC, off, kRx);
    }
    p.emit(rtm_op(isa::RtmOp::kSync));
    results.push_back(measure("stream_copy", 2 * n, p));
    c = a;
    verify_vector(read_back_ram(copro, kC, n, fl), c, results.back());
  }
  // scale: b[i] = q * c[i]
  {
    isa::Program p;
    for (std::size_t off = 0; off < n; off += blk) {
      read_block(p, kC, off, kRx);
      alu_block(p, isa::fc::kMulDiv, kMul, kRy, kRx, 0, true);
      write_block(p, kB, off, kRy);
    }
    p.emit(rtm_op(isa::RtmOp::kSync));
    results.push_back(measure("stream_scale", 2 * n, p));
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = cfg.scalar * c[i];
    }
    verify_vector(read_back_ram(copro, kB, n, fl), b, results.back());
  }
  // add: c[i] = a[i] + b[i]
  {
    isa::Program p;
    for (std::size_t off = 0; off < n; off += blk) {
      read_block(p, kA, off, kRx);
      read_block(p, kB, off, kRy);
      alu_block(p, isa::fc::kArith, kAdd, kRz, kRx, kRy, false);
      write_block(p, kC, off, kRz);
    }
    p.emit(rtm_op(isa::RtmOp::kSync));
    results.push_back(measure("stream_add", 3 * n, p));
    for (std::size_t i = 0; i < n; ++i) {
      c[i] = a[i] + b[i];
    }
    verify_vector(read_back_ram(copro, kC, n, fl), c, results.back());
  }
  // triad: a[i] = b[i] + q * c[i]
  {
    isa::Program p;
    for (std::size_t off = 0; off < n; off += blk) {
      read_block(p, kB, off, kRx);
      read_block(p, kC, off, kRy);
      alu_block(p, isa::fc::kMulDiv, kMul, kRz, kRy, 0, true);
      alu_block(p, isa::fc::kArith, kAdd, kRz, kRx, kRz, false);
      write_block(p, kA, off, kRz);
    }
    p.emit(rtm_op(isa::RtmOp::kSync));
    results.push_back(measure("stream_triad", 3 * n, p));
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = b[i] + cfg.scalar * c[i];
    }
    verify_vector(read_back_ram(copro, kA, n, fl), a, results.back());
  }
  return results;
}

// ---------------------------------------------------------------------------
// RandomAccess
// ---------------------------------------------------------------------------

RandomAccessOutcome run_random_access(Kernel kernel,
                                      const RandomAccessConfig& cfg) {
  check(cfg.table_words >= 2 &&
            (cfg.table_words & (cfg.table_words - 1)) == 0,
        "RandomAccessConfig::table_words must be a power of two >= 2");
  check(cfg.updates >= 1, "RandomAccessConfig::updates must be >= 1");
  check(cfg.sample_every >= 1,
        "RandomAccessConfig::sample_every must be >= 1");

  const std::size_t tw = cfg.table_words;
  // Register map: r1 index, r2 write sink, r3 POLY, r4 index mask, r5 LCG
  // state, r6 sign/mask temp, r7 poly temp, r8 table value, r9 shifted
  // state, r10/r11 shift amounts 63/1.
  const isa::Word poly = 7;
  const isa::Word ran0 = cfg.seed == 0 ? 1 : cfg.seed;

  const top::SystemConfig scfg = suite_system_config();
  top::System sys(scfg);
  sys.simulator().set_kernel(kernel);
  fu::ScratchpadUnit ram(sys.simulator(), "gups_table", tw, 64);
  sys.attach(kVecRamCode, ram);
  Coprocessor copro(sys);
  RegCycler fl(0, scfg.rtm.flag_regs);

  // Setup (unmeasured): constants and the HPCC table init table[i] = i.
  isa::Program init;
  init.emit_put(3, poly);
  init.emit_put(4, static_cast<isa::Word>(tw - 1));
  init.emit_put(5, ran0);
  init.emit_put(10, 63);
  init.emit_put(11, 1);
  for (std::size_t i = 0; i < tw; ++i) {
    init.emit_put(1, static_cast<isa::Word>(i));
    init.emit_put(8, static_cast<isa::Word>(i));
    init.emit(fu_op(kVecRamCode, fu::ScratchpadUnit::kWrite, 2, 1, 8,
                    fl.next()));
  }
  copro.submit(init);
  copro.sync();

  // Host oracle, advanced exactly like the FPGA program below.
  std::vector<isa::Word> table(tw);
  for (std::size_t i = 0; i < tw; ++i) {
    table[i] = static_cast<isa::Word>(i);
  }
  isa::Word ran = ran0;
  std::vector<isa::Word> expected_samples;

  const isa::VarietyCode kShr = isa::shift::variety(isa::shift::Op::kShr);
  const isa::VarietyCode kShl = isa::shift::variety(isa::shift::Op::kShl);
  const isa::VarietyCode kNeg = isa::arith::variety(isa::arith::Op::kNeg);
  const isa::VarietyCode kAnd = isa::logic::variety(isa::logic::Op::kAnd);
  const isa::VarietyCode kXor = isa::logic::variety(isa::logic::Op::kXor);

  isa::Program p;
  for (std::size_t u = 0; u < cfg.updates; ++u) {
    // ran = (ran << 1) ^ (msb(ran) ? POLY : 0), computed on the FPGA:
    p.emit(fu_op(isa::fc::kShift, kShr, 6, 5, 10, fl.next()));  // r6 = ran>>63
    p.emit(fu_op(isa::fc::kArith, kNeg, 6, 0, 6, fl.next()));   // r6 = -r6
    p.emit(fu_op(isa::fc::kLogic, kAnd, 7, 6, 3, fl.next()));   // r7 = r6&POLY
    p.emit(fu_op(isa::fc::kShift, kShl, 9, 5, 11, fl.next()));  // r9 = ran<<1
    p.emit(fu_op(isa::fc::kLogic, kXor, 5, 9, 7, fl.next()));   // ran' = r9^r7
    // table[ran & (tw-1)] ^= ran:
    p.emit(fu_op(isa::fc::kLogic, kAnd, 1, 5, 4, fl.next()));   // r1 = index
    p.emit(fu_op(kVecRamCode, fu::ScratchpadUnit::kRead, 8, 1, 0, fl.next()));
    p.emit(fu_op(isa::fc::kLogic, kXor, 8, 8, 5, fl.next()));
    p.emit(fu_op(kVecRamCode, fu::ScratchpadUnit::kWrite, 2, 1, 8, fl.next()));
    if ((u + 1) % cfg.sample_every == 0) {
      p.emit(get_reg(5));
    }
    // Oracle.
    ran = (ran << 1) ^ ((ran >> 63) != 0 ? poly : 0);
    const std::size_t idx = static_cast<std::size_t>(ran & (tw - 1));
    table[idx] ^= ran;
    if ((u + 1) % cfg.sample_every == 0) {
      expected_samples.push_back(ran);
    }
  }
  p.emit(rtm_op(isa::RtmOp::kSync));

  RandomAccessOutcome out;
  out.result.name = "random_access";
  out.result.job_unit = "update";
  out.result.jobs = cfg.updates;
  const Pass pass(sys);
  const auto responses = copro.call(p);
  pass.add_to(out.result);

  out.sampled_state = data_payloads(responses);
  verify_vector(out.sampled_state, expected_samples, out.result);

  // Out-of-range probe (unmeasured): a read and a write one past the end
  // must both come back with the error flag set and leave the table alone.
  if (cfg.probe_out_of_range) {
    isa::Program probe;
    probe.emit_put(1, static_cast<isa::Word>(tw));
    probe.emit(fu_op(kVecRamCode, fu::ScratchpadUnit::kRead, 8, 1, 0, 6));
    probe.emit(get_flags(6));
    probe.emit_put(9, 0xdecade);
    probe.emit(fu_op(kVecRamCode, fu::ScratchpadUnit::kWrite, 2, 1, 9, 7));
    probe.emit(get_flags(7));
    const auto pr = copro.call(probe);
    unsigned errors_seen = 0;
    for (const auto& r : pr) {
      if (r.type == msg::Response::Type::kFlags &&
          bits::bit(r.code, isa::flag::kError)) {
        ++errors_seen;
      }
    }
    out.error_flag_seen = errors_seen == 2;
  }

  // Full-table readback: proves the update stream landed exactly (and that
  // the out-of-range probe corrupted nothing).
  out.final_table = read_back_ram(copro, 0, tw, fl);
  verify_vector(out.final_table, table, out.result);
  return out;
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

WorkloadResult run_gemm(Kernel kernel, const GemmConfig& cfg) {
  check(cfg.block >= 1 && cfg.block <= 6,
        "GemmConfig::block must be 1..6 (the block² address registers from "
        "r16 must fit the 64-register file)");
  check(cfg.n >= cfg.block && cfg.n % cfg.block == 0,
        "GemmConfig::n must be a positive multiple of block");

  const std::size_t n = cfg.n;
  const std::size_t bb = cfg.block;
  const std::size_t tiles = n / bb;

  const top::SystemConfig scfg = suite_system_config();
  top::System sys(scfg);
  sys.simulator().set_kernel(kernel);
  fu::GemmUnit gemm(sys.simulator(), "gemm", bb, bb, bb,
                    /*pipeline_depth=*/4, /*fifo_capacity=*/16, 64);
  sys.attach(kGemmCode, gemm);
  Coprocessor copro(sys);
  RegCycler fl(0, scfg.rtm.flag_regs);
  // Register map: see GemmConfig.  The 8 flag registers already bound the
  // ops in flight, so an 8th sink would buy nothing.
  RegCycler sink(1, 7);
  constexpr isa::RegNum kWin = 8;
  const auto addr_reg = [](std::size_t addr) {
    return static_cast<isa::RegNum>(16 + addr);
  };

  Xoshiro256 rng(cfg.seed);
  std::vector<isa::Word> a(n * n), b(n * n);
  for (auto& v : a) {
    v = rng.below(std::uint64_t{1} << 16);
  }
  for (auto& v : b) {
    v = rng.below(std::uint64_t{1} << 16);
  }
  // Host oracle: C = A * B with native 64-bit wraparound.
  std::vector<isa::Word> expect(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < n; ++p) {
      const isa::Word ap = a[i * n + p];
      for (std::size_t j = 0; j < n; ++j) {
        expect[i * n + j] += ap * b[p * n + j];
      }
    }
  }

  // Setup (unmeasured): select the active block shape.
  isa::Program setup;
  setup.emit_put(1, fu::GemmUnit::config_word(bb, bb, bb));
  setup.emit(fu_op(kGemmCode, fu::GemmUnit::kConfig, 2, 1, 0, fl.next()));
  copro.submit(setup);
  copro.sync();

  // Stream one block×block panel into the unit: one PUTV burst per row
  // into the register window, then a load command per element.
  const auto load_panel = [&](isa::Program& p, isa::VarietyCode load_op,
                              const std::vector<isa::Word>& src,
                              std::size_t row0, std::size_t col0) {
    for (std::size_t r = 0; r < bb; ++r) {
      std::vector<isa::Word> row(bb);
      for (std::size_t ccol = 0; ccol < bb; ++ccol) {
        row[ccol] = src[(row0 + r) * n + col0 + ccol];
      }
      p.emit_put_vec(kWin, row);
      for (std::size_t ccol = 0; ccol < bb; ++ccol) {
        p.emit(fu_op(kGemmCode, load_op, sink.next(), addr_reg(r * bb + ccol),
                     static_cast<isa::RegNum>(kWin + ccol), fl.next()));
      }
    }
  };

  WorkloadResult result;
  result.name = "gemm";
  result.job_unit = "mac";
  result.jobs = static_cast<std::uint64_t>(n) * n * n;

  std::vector<isa::Word> got(n * n, 0);
  const Pass pass(sys);
  // Host-side blocking driver: C(I,J) = Σ_K A(I,K)·B(K,J), one call per
  // output tile (clear accumulator, stream panels, sweep, read back).  The
  // first tile's call also loads the address table, inside the measured
  // pass so its cost counts.
  for (std::size_t ti = 0; ti < tiles; ++ti) {
    for (std::size_t tj = 0; tj < tiles; ++tj) {
      isa::Program p;
      if (ti == 0 && tj == 0) {
        for (std::size_t addr = 0; addr < bb * bb; ++addr) {
          p.emit_put(addr_reg(addr), static_cast<isa::Word>(addr));
        }
      }
      p.emit(fu_op(kGemmCode, fu::GemmUnit::kClearC, sink.next(), 0, 0,
                   fl.next()));
      for (std::size_t tk = 0; tk < tiles; ++tk) {
        load_panel(p, fu::GemmUnit::kLoadA, a, ti * bb, tk * bb);
        load_panel(p, fu::GemmUnit::kLoadB, b, tk * bb, tj * bb);
        p.emit(fu_op(kGemmCode, fu::GemmUnit::kStart, sink.next(), 0, 0,
                     fl.next()));
      }
      for (std::size_t r = 0; r < bb; ++r) {
        for (std::size_t ccol = 0; ccol < bb; ++ccol) {
          p.emit(fu_op(kGemmCode, fu::GemmUnit::kReadC,
                       static_cast<isa::RegNum>(kWin + ccol),
                       addr_reg(r * bb + ccol), 0, fl.next()));
        }
        p.emit_get_vec(kWin, static_cast<std::uint8_t>(bb));
      }
      const auto tile = data_payloads(copro.call(p));
      for (std::size_t r = 0; r < bb; ++r) {
        for (std::size_t ccol = 0; ccol < bb; ++ccol) {
          if (r * bb + ccol < tile.size()) {
            got[(ti * bb + r) * n + tj * bb + ccol] = tile[r * bb + ccol];
          }
        }
      }
    }
  }
  pass.add_to(result);
  verify_vector(got, expect, result);
  return result;
}

// ---------------------------------------------------------------------------
// b_eff
// ---------------------------------------------------------------------------

BeffOutcome run_beff(Kernel kernel, const BeffConfig& cfg) {
  check(!cfg.message_words.empty(),
        "BeffConfig::message_words must name at least one size");
  check(cfg.repeats >= 1, "BeffConfig::repeats must be >= 1");

  top::SystemConfig scfg = suite_system_config();
  if (cfg.faulty) {
    msg::FaultConfig fc;
    fc.seed = cfg.seed;
    // Upstream word loss/corruption/duplication is what the transport can
    // recover; downstream loss is undetectable by design (docs/PROTOCOL.md)
    // so the downstream direction only jitters.
    fc.up.drop_ppm = cfg.fault_ppm;
    fc.up.corrupt_ppm = cfg.fault_ppm;
    fc.up.duplicate_ppm = cfg.fault_ppm;
    fc.up.jitter_max = 2;
    fc.down.jitter_max = 2;
    scfg.link_faults = fc;
  }
  top::System sys(scfg);
  sys.simulator().set_kernel(kernel);
  Coprocessor copro(sys);
  ReliableTransport transport(copro);

  Xoshiro256 rng(cfg.seed);
  constexpr std::size_t kWindow = 16;  // r8..r23 echo window
  constexpr isa::RegNum kWin = 8;

  BeffOutcome out;
  out.result.name = cfg.faulty ? "b_eff_faulty" : "b_eff_clean";
  out.result.job_unit = "word";

  for (const std::size_t m : cfg.message_words) {
    check(m >= 1, "b_eff message size must be >= 1");
    BeffPoint point;
    point.message_words = m;
    for (unsigned rep = 0; rep < cfg.repeats; ++rep) {
      isa::Program p;
      for (std::size_t off = 0; off < m; off += kWindow) {
        const std::size_t chunk = std::min(kWindow, m - off);
        std::vector<isa::Word> payload(chunk);
        for (auto& w : payload) {
          w = rng.next();
        }
        p.emit_put_vec(kWin, payload);
        p.emit_get_vec(kWin, static_cast<std::uint8_t>(chunk));
      }
      const auto expected = ReferenceModel(scfg.rtm).run(p);
      const Pass pass(sys);
      const auto got = transport.call(p);
      point.cycles += pass.add_to(out.result);
      out.result.verified += expected.size();
      if (got != expected) {
        ++out.result.mismatches;
      }
      out.result.jobs += 2 * m;  // payload words, both directions
    }
    point.payload_words_per_cycle =
        point.cycles == 0
            ? 0.0
            : static_cast<double>(2 * m * cfg.repeats) /
                  static_cast<double>(point.cycles);
    out.points.push_back(point);
  }
  out.transport_retries = transport.counters().get("transport.retries");
  out.transport_probes = transport.counters().get("transport.probes");
  out.transport_gap_retries = transport.counters().get("transport.gap_retries");
  out.transport_dup_dropped = transport.counters().get("transport.dup_dropped");
  out.transport_stale_dropped =
      transport.counters().get("transport.stale_dropped");
  return out;
}

}  // namespace fpgafu::host::hpcc
