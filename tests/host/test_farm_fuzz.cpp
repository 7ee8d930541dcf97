// Host-stack differential fuzzer.  Each case draws a seeded FarmConfig over
// every knob the farm has — inline or threaded (shards 0, 1 or 2), transport
// window 1-16 and a queue capacity — then streams random jobs at it:
// stateful jobs on random sessions, self-contained session-less jobs, and
// follow-up jobs submitted reentrantly from completion callbacks.  Half the
// cases run over a link that drops, corrupts and duplicates 5% of upstream
// words.  About half also draw an algorithm-on-demand catalogue (fu_images
// over the logic, shift, muldiv, float and trig codes, an fu_slots budget of
// 1-3 and either victim rule); their sessions declare required image sets
// and their jobs use those images' units, so swaps interleave with windowed
// traffic.
//
// Checked for every case:
//  * every completed job equals host::ReferenceModel;
//  * every refusal is a typed FarmError{kOverload}, and only a callback's
//    follow-up meeting a full queue is refused (the test thread's submits
//    block for space instead);
//  * no job fails, and the farm finishes inside a simulated-cycle budget;
//  * once every accepted job has resolved, the live counters() equal the
//    tally and job_latency_samples() holds one sample per completed job;
//  * in threaded cases, a reader thread polling counters() for the whole
//    case never sees farm.jobs_completed or farm.shard_cycles go down.
//
// FPGAFU_FARM_SOAK_JOBS scales the jobs per case (default 24), as it does
// the windowed farm soak.  FPGAFU_FARM_FUZZ_CASE=<n> runs case n alone;
// every case draws from its own seeds, so it runs exactly as it does in the
// full sweep.  Reproducer of the CRC-16 torn frame (ROADMAP item 1), which
// fails at case 19, job 871:
//
//   FPGAFU_FARM_SOAK_JOBS=8000 FPGAFU_FARM_FUZZ_CASE=19 test_farm --gtest_filter='FarmFuzz.*'

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fu/stateless_units.hpp"
#include "host/farm.hpp"
#include "host/reference_model.hpp"
#include "isa/assembler.hpp"
#include "util/rng.hpp"

namespace fpgafu::host {
namespace {

constexpr std::size_t kCases = 40;
constexpr std::size_t kMaxSessions = 6;
/// Registers per session: session s owns r(3s+1) .. r(3s+3).
constexpr unsigned kSessionRegs = 3;
/// Session-less jobs use r24 .. r29, which no session touches.
constexpr unsigned kScratchBase = 24;

std::size_t jobs_per_case() {
  if (const char* env = std::getenv("FPGAFU_FARM_SOAK_JOBS")) {
    const long n = std::atol(env);
    if (n > 0) {
      return static_cast<std::size_t>(n);
    }
  }
  return 24;
}

/// The one case FPGAFU_FARM_FUZZ_CASE selects, or kCases to run them all.
std::size_t only_case() {
  if (const char* env = std::getenv("FPGAFU_FARM_FUZZ_CASE")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n >= 0 &&
        static_cast<std::size_t>(n) < kCases) {
      return static_cast<std::size_t>(n);
    }
  }
  return kCases;
}

std::string reg(std::uint64_t r) {
  std::string name = "r";  // not "r" + ...: GCC 12 -Werror=restrict
  name += std::to_string(r);
  return name;
}

/// One instruction on the unit behind a managed code, `d = a op b`.
std::string managed_op(isa::FunctionCode code, const std::string& d,
                       const std::string& a, const std::string& b) {
  switch (code) {
    case isa::fc::kLogic:
      return "XOR " + d + ", " + a + ", " + b + "\n";
    case isa::fc::kShift:
      return "SHR " + d + ", " + a + ", " + b + "\n";
    case isa::fc::kMulDiv:
      return "MUL " + d + ", " + a + ", " + b + "\n";
    case isa::fc::kFloat:
      return "FMUL " + d + ", " + a + ", " + b + "\n";
    default:
      return "SIN " + d + ", " + a + "\n";
  }
}

/// A random job over one session's registers: PUT, PUTV, ADD, SUB, GET and
/// GETV, now and then an error-only read or an empty program.  It may read
/// what the session's earlier jobs left behind.  Each code in `managed`
/// (the session's required images) adds an instruction on its unit, half
/// the time, whose result is read back.
isa::Program session_job(Xoshiro256& rng, unsigned base,
                         const std::vector<isa::FunctionCode>& managed) {
  const auto any = [&] { return base + rng.below(kSessionRegs); };
  switch (rng.below(16)) {
    case 0:
      return isa::Program{};
    case 1:
      return isa::Assembler::assemble("GET r200");  // one error response
    default:
      break;
  }
  std::string src;
  const std::uint64_t n = 1 + rng.below(6);
  for (std::uint64_t i = 0; i < n; ++i) {
    switch (rng.below(7)) {
      case 0:
      case 1:
        src += "PUT " + reg(any()) + ", #" +
               std::to_string(rng.below(1u << 20)) + "\n";
        break;
      case 2:
        src += "PUTV " + reg(base) + ", 3\n";
        for (unsigned k = 0; k < kSessionRegs; ++k) {
          src += ".word #" + std::to_string(rng.below(1u << 20)) + "\n";
        }
        break;
      case 3:
        src += "ADD " + reg(any()) + ", " + reg(any()) + ", " + reg(any()) +
               "\n";
        break;
      case 4:
        src += "SUB " + reg(any()) + ", " + reg(any()) + ", " + reg(any()) +
               "\n";
        break;
      case 5:
        src += "GET " + reg(any()) + "\n";
        break;
      default:
        src += "GETV " + reg(base) + ", 3\n";
        break;
    }
  }
  for (const isa::FunctionCode code : managed) {
    if (rng.below(2) == 0) {
      const std::string d = reg(any());
      src += managed_op(code, d, reg(any()), reg(any()));
      src += "GET " + d + "\n";
    }
  }
  return isa::Assembler::assemble(src);
}

/// The stock unit of `code`, built as top::System builds it, so images are
/// declared over codes the ReferenceModel knows the semantics of.
std::unique_ptr<fu::FunctionalUnit> make_unit_for(sim::Simulator& sim,
                                                  isa::FunctionCode code) {
  return fu::make_stock_unit(sim, code, fu::StatelessConfig{});
}

/// A self-contained job on the scratch registers: it writes everything it
/// reads, so a fresh ReferenceModel is its oracle on any shard.
isa::Program scratch_job(Xoshiro256& rng) {
  std::string src;
  for (unsigned r = 0; r < 4; ++r) {
    src += "PUT " + reg(kScratchBase + r) + ", #" +
           std::to_string(rng.below(1u << 20)) + "\n";
  }
  src += "ADD r28, r24, r25\nSUB r29, r26, r27\nGET r28\nGETV r28, 2\n";
  return isa::Assembler::assemble(src);
}

/// The reference for one session job: a fresh model loaded with the
/// session's register window, then the job.  Returns the job's responses
/// renumbered from 0 (as the transport renumbers each job) and updates
/// `regs` to the window after the job.
std::vector<msg::Response> session_reference(
    const rtm::RtmConfig& rtm, unsigned base,
    std::array<isa::Word, kSessionRegs>& regs, const isa::Program& job) {
  isa::Program load;
  for (unsigned k = 0; k < kSessionRegs; ++k) {
    load.emit_put(static_cast<isa::RegNum>(base + k), regs[k]);
  }
  ReferenceModel model(rtm);
  model.run(load);
  std::vector<msg::Response> out = model.run(job);
  for (msg::Response& r : out) {
    r.seq = static_cast<std::uint16_t>(r.seq - kSessionRegs);
  }
  for (unsigned k = 0; k < kSessionRegs; ++k) {
    regs[k] = model.reg(static_cast<isa::RegNum>(base + k));
  }
  return out;
}

/// One fuzz case's bookkeeping, shared by the test thread and the callbacks
/// (worker threads, or the test thread itself for an inline farm).
struct Tally {
  std::mutex m;
  std::condition_variable cv;
  std::size_t accepted = 0;  ///< admitted jobs (decremented on refusal)
  std::size_t resolved = 0;
  std::size_t refused = 0;
  std::size_t mismatched = 0;
  std::size_t failed = 0;
  std::size_t errored = 0;  ///< resolved with an error (counted in failed)
  std::vector<std::string> notes;  ///< first few problems, for the report

  void note(const std::string& what) {
    if (notes.size() < 8) {
      notes.push_back(what);
    }
  }
  /// Count a job as admitted before its submit call, so a callback that
  /// runs before submit returns never sees resolved > accepted.
  void admit() {
    std::lock_guard<std::mutex> lk(m);
    ++accepted;
  }
  /// Undo admit() for a submit that threw; the refusal must be a typed
  /// kOverload, and one the case allows (`allowed`).
  void refuse(const FarmError& e, bool allowed) {
    std::lock_guard<std::mutex> lk(m);
    --accepted;
    ++refused;
    if (e.kind() != FarmError::Kind::kOverload) {
      ++failed;
      note(std::string("refusal was not kOverload: ") + e.what());
    } else if (!allowed) {
      ++failed;
      note(std::string("unexpected refusal: ") + e.what());
    }
  }
  void resolve(const std::vector<msg::Response>& got,
               const std::exception_ptr& err,
               const std::vector<msg::Response>& want, const std::string& who) {
    std::lock_guard<std::mutex> lk(m);
    if (err) {
      ++failed;
      ++errored;
      try {
        std::rethrow_exception(err);
      } catch (const std::exception& e) {
        note(who + " failed: " + e.what());
      }
    } else if (got != want) {
      ++mismatched;
      note(who + " differs from the reference model");
    }
    ++resolved;
    cv.notify_all();
  }
};

/// Polls a threaded farm's counters() from its own thread, with a short
/// sleep between reads, until stopped; counts the reads in which
/// farm.jobs_completed or farm.shard_cycles went down.
class MonotonicReader {
 public:
  explicit MonotonicReader(const Farm& farm)
      : thread_([this, &farm] { poll(farm); }) {}
  ~MonotonicReader() { stop(); }

  /// Stop polling; returns the reads that saw a counter go down.
  std::size_t stop() {
    running_.store(false);
    if (thread_.joinable()) {
      thread_.join();
    }
    return decreases_;
  }

 private:
  void poll(const Farm& farm) {
    std::uint64_t completed = 0;
    std::uint64_t cycles = 0;
    while (running_.load()) {
      const sim::Counters c = farm.counters();
      if (c.get("farm.jobs_completed") < completed ||
          c.get("farm.shard_cycles") < cycles) {
        ++decreases_;
      }
      completed = c.get("farm.jobs_completed");
      cycles = c.get("farm.shard_cycles");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  std::atomic<bool> running_{true};
  std::size_t decreases_ = 0;  ///< written by the thread, read after join
  std::thread thread_;
};

struct Case {
  FarmConfig config;
  bool reentrant = false;
  bool faulty = false;
  std::string describe() const {
    return "shards=" + std::to_string(config.shards) +
           " window=" + std::to_string(config.transport.window) +
           " queue=" + std::to_string(config.queue_capacity) +
           (reentrant ? " reentrant" : "") + (faulty ? " faulty" : "") +
           (config.fu_images.empty()
                ? ""
                : " images=" + std::to_string(config.fu_images.size()) +
                      " fu_slots=" + std::to_string(config.fu_slots) +
                      (config.fu_cost_aware ? " cost_aware" : " lru"));
  }
};

Case draw_case(std::size_t index) {
  Xoshiro256 rng(0xf022'0000 + index);
  Case c;
  FarmConfig& fc = c.config;
  fc.shards = rng.below(3);
  fc.transport.window = 1 + rng.below(16);
  // Two draws that once picked a full-queue policy and a per-session cap,
  // kept so that every case's config and job stream stay as they were.
  rng.below(2);
  rng.below(4);
  const std::size_t depths[] = {1, 2, 4, 8, 64};
  fc.queue_capacity = depths[rng.below(5)];
  c.reentrant = rng.below(2) == 0;
  c.faulty = index % 2 == 1;
  if (c.faulty) {
    // The windowed farm soak's fault mix.
    msg::FaultConfig f;
    f.seed = 0xf022 + index;
    f.up.drop_ppm = 50'000;
    f.up.corrupt_ppm = 50'000;
    f.up.duplicate_ppm = 50'000;
    f.up.jitter_max = 3;
    f.down.jitter_max = 2;
    fc.system.link_faults = f;
  }
  if (rng.below(2) == 0) {
    // The algod axis.  Arithmetic stays attached by the system: every job
    // kind uses it, session-less jobs included.  The other five codes are
    // served by the manager, one image each, except that the first two
    // may share an image when the budget holds it.
    fc.system.with_logic = false;
    fc.system.with_shift = false;
    fc.system.with_muldiv = false;
    fc.system.with_float = false;
    fc.system.with_trig = false;
    fc.fu_slots = 1 + rng.below(3);
    fc.fu_cost_aware = rng.below(2) == 0;
    std::vector<isa::FunctionCode> codes = {isa::fc::kLogic, isa::fc::kShift,
                                            isa::fc::kMulDiv, isa::fc::kFloat,
                                            isa::fc::kTrig};
    for (std::size_t i = codes.size() - 1; i > 0; --i) {
      std::swap(codes[i], codes[rng.below(i + 1)]);
    }
    const bool pair = fc.fu_slots >= 2 && rng.below(2) == 0;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      AlgorithmImage img;
      img.name = "img";  // not "img" + ...: GCC 12 -Werror=restrict
      img.name += std::to_string(i);
      img.codes = {codes[i]};
      if (pair && i == 0) {
        img.codes.push_back(codes[++i]);
      }
      img.load_cycles = rng.below(200);
      img.factory = make_unit_for;
      fc.fu_images.push_back(std::move(img));
    }
  }
  return c;
}

/// Required images for one session of an algod case: up to two distinct
/// images that fit the slot budget together.  Returns the names and
/// appends their codes to `codes`.
std::vector<std::string> draw_required(Xoshiro256& rng, const FarmConfig& fc,
                                       std::vector<isa::FunctionCode>& codes) {
  std::vector<std::string> names;
  std::size_t cost = 0;
  const std::uint64_t want = rng.below(3);
  for (std::uint64_t k = 0; k < want; ++k) {
    const AlgorithmImage& img = fc.fu_images[rng.below(fc.fu_images.size())];
    if (cost + img.slot_cost() > fc.fu_slots ||
        std::find(names.begin(), names.end(), img.name) != names.end()) {
      continue;
    }
    cost += img.slot_cost();
    names.push_back(img.name);
    codes.insert(codes.end(), img.codes.begin(), img.codes.end());
  }
  return names;
}

TEST(FarmFuzz, RandomConfigsMatchTheReferenceModelAndStayLive) {
  const std::size_t jobs = jobs_per_case();
  const std::size_t only = only_case();
  for (std::size_t index = 0; index < kCases; ++index) {
    if (only != kCases && index != only) {
      continue;
    }
    const Case c = draw_case(index);
    SCOPED_TRACE("case " + std::to_string(index) + ": " + c.describe());
    const rtm::RtmConfig rtm = c.config.system.rtm;
    Xoshiro256 rng(0x5e55'0000 + index);
    Tally tally;
    std::mutex rng_m;  // callbacks draw follow-up jobs from worker threads
    Farm farm(c.config);
    std::optional<MonotonicReader> reader;
    if (!farm.inline_mode()) {
      reader.emplace(farm);
    }

    struct Session {
      Farm::SessionId id;
      unsigned base;
      std::vector<isa::FunctionCode> managed;  ///< codes it may use
      std::array<isa::Word, kSessionRegs> regs{};
    };
    std::vector<Session> sessions;
    const std::size_t session_count = 1 + rng.below(kMaxSessions);
    for (std::size_t s = 0; s < session_count; ++s) {
      Session session{0, static_cast<unsigned>(1 + kSessionRegs * s), {}, {}};
      session.id = c.config.fu_images.empty()
                       ? farm.create_session()
                       : farm.create_session(
                             draw_required(rng, c.config, session.managed));
      sessions.push_back(std::move(session));
    }

    // A session-less scratch job; its callback checks it against a fresh
    // model.  Called from the test thread and, as a follow-up, from
    // callbacks.
    const auto submit_scratch = [&](const std::string& who, bool follow_up) {
      isa::Program p;
      {
        std::lock_guard<std::mutex> lk(rng_m);
        p = scratch_job(rng);
      }
      const std::vector<msg::Response> want = ReferenceModel(rtm).run(p);
      tally.admit();
      try {
        farm.submit_async(p, [&tally, want, who](std::vector<msg::Response> rs,
                                                 std::exception_ptr err) {
          tally.resolve(rs, err, want, who);
        });
      } catch (const FarmError& e) {
        // Only a follow-up may be refused: a callback's submit sheds
        // rather than block its worker.
        tally.refuse(e, follow_up);
      }
    };

    for (std::size_t j = 0; j < jobs; ++j) {
      const std::string who = "job " + std::to_string(j);
      std::uint64_t roll = 0;
      {
        std::lock_guard<std::mutex> lk(rng_m);
        roll = rng.below(12);
      }
      if (roll < 3) {
        submit_scratch(who + " (session-less)", false);
        continue;
      }
      isa::Program p;
      std::size_t s = 0;
      {
        std::lock_guard<std::mutex> lk(rng_m);
        s = rng.below(session_count);
        p = session_job(rng, sessions[s].base, sessions[s].managed);
      }
      // Advance the session's mirror only if the farm admits the job.
      std::array<isa::Word, kSessionRegs> after = sessions[s].regs;
      const std::vector<msg::Response> want =
          session_reference(rtm, sessions[s].base, after, p);
      const bool follow_up = c.reentrant && roll % 2 == 0;
      tally.admit();
      try {
        farm.submit_async(
            sessions[s].id, p,
            [&, want, who, follow_up](std::vector<msg::Response> rs,
                                      std::exception_ptr err) {
              if (follow_up) {
                submit_scratch(who + " follow-up", true);
              }
              tally.resolve(rs, err, want, who);
            });
        sessions[s].regs = after;
      } catch (const FarmError& e) {
        tally.refuse(e, false);
      }
    }

    {
      std::unique_lock<std::mutex> lk(tally.m);
      tally.cv.wait(lk, [&] { return tally.resolved == tally.accepted; });
    }
    // Every job is resolved and nothing more will be submitted, so the
    // live view is exact: a job counts before its callback runs.
    const sim::Counters live = farm.counters();
    EXPECT_EQ(live.get("farm.jobs_completed"), tally.resolved - tally.errored);
    EXPECT_EQ(live.get("farm.jobs_failed"), tally.errored);
    EXPECT_EQ(live.get("farm.jobs_shed"), tally.refused);
    // Every job that completed left its latency sample (a failed job fails
    // the case above).
    EXPECT_EQ(farm.job_latency_samples().size(),
              tally.resolved - tally.errored);
    farm.shutdown();
    const sim::Counters totals = farm.counters();
    if (reader) {
      EXPECT_EQ(reader->stop(), 0u)
          << "a concurrent read saw farm.jobs_completed or "
             "farm.shard_cycles go down";
    }
    for (const std::string& n : tally.notes) {
      ADD_FAILURE() << n;
    }
    EXPECT_EQ(tally.mismatched, 0u);
    EXPECT_EQ(tally.failed, 0u);
    EXPECT_EQ(totals.get("farm.jobs_failed"), 0u);
    EXPECT_EQ(totals.get("farm.jobs_completed"), tally.resolved);
    EXPECT_EQ(totals.get("farm.jobs_shed"), tally.refused);
    EXPECT_EQ(totals.get("farm.shard_resets"), 0u);
    // Liveness: the whole case fits a simulated-cycle budget, summed over
    // shards — far below the 10^7-cycle job watchdog.  A clean job costs
    // tens of cycles; on the faulty link a few retry chains back off to
    // tens of thousands of cycles each (measured: at most 1.2*10^5 cycles
    // for a case of 24 jobs, about 1700 per job at 2000 jobs a case).
    // Reconfiguration time (algod loads and drains) comes on top.
    const std::uint64_t reconfig =
        totals.get("algod.load_cycles") + totals.get("algod.drain_cycles");
    const std::uint64_t budget =
        reconfig + (c.faulty ? 500'000 + 2'000 * tally.resolved
                             : 200 * (tally.resolved + 1));
    EXPECT_LE(totals.get("farm.shard_cycles"), budget)
        << "resolved " << tally.resolved;
  }
}

}  // namespace
}  // namespace fpgafu::host
