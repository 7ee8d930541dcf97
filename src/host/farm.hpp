#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "host/algod.hpp"
#include "host/reliable_transport.hpp"
#include "isa/program.hpp"
#include "msg/response.hpp"
#include "sim/counters.hpp"
#include "top/system.hpp"

namespace fpgafu::host {

/// Nearest-rank percentiles over simulated-cycle job latencies (see
/// Farm::job_latency_samples).
struct LatencyPercentiles {
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::size_t samples = 0;
};

/// Compute nearest-rank p50/p95/p99 over `samples` (order irrelevant;
/// zeros for an empty set).
LatencyPercentiles latency_percentiles(std::vector<std::uint64_t> samples);

/// The bounded ring behind Farm::job_latency_samples(): the most recent
/// `capacity` samples, in storage order — pushed in arrival order until the
/// ring is full, then each new sample overwrites the oldest.  A shard's
/// worker pushes one sample per completed job and copies the ring only to
/// answer a read.
class LatencyRing {
 public:
  /// Reserves the whole ring, so filling it never reallocates (untouched
  /// pages of a large reservation cost no resident memory).
  explicit LatencyRing(std::size_t capacity) : capacity_(capacity) {
    samples_.reserve(capacity);
  }

  void push(std::uint64_t sample) {
    if (samples_.size() < capacity_) {
      samples_.push_back(sample);
    } else {
      samples_[next_] = sample;
      next_ = (next_ + 1) % capacity_;
    }
  }

  const std::vector<std::uint64_t>& samples() const { return samples_; }

 private:
  std::size_t capacity_;
  std::vector<std::uint64_t> samples_;
  std::size_t next_ = 0;  ///< overwrite cursor once full
};

/// Typed failure for farm jobs: carries which shard failed and why, so a
/// caller can distinguish "my program wedged shard 3" from "the farm was
/// shut down under me" without string-matching.
class FarmError : public SimError {
 public:
  enum class Kind {
    kShardFault,  ///< the shard's watchdog tripped (or retries exhausted);
                  ///< the shard was reset and this job's result is lost
    kShutdown,    ///< submitted against a farm that is shutting down
    kOverload,    ///< load shed: a callback's submit met a full queue
    kUnitUnavailable,  ///< a required functional unit could not be made (or
                       ///< did not stay) resident — an unregistered or
                       ///< oversized required set, or an eviction racing
                       ///< in-flight work.  Retryable: the shard is healthy
                       ///< and its register state is intact
  };

  FarmError(Kind kind, std::size_t shard, const std::string& what)
      : SimError(what), kind_(kind), shard_(shard) {}

  Kind kind() const { return kind_; }
  std::size_t shard() const { return shard_; }

 private:
  Kind kind_;
  std::size_t shard_;
};

/// Configuration of a coprocessor farm.
struct FarmConfig {
  /// Worker shards.  Each shard is an independent top::System +
  /// ReliableTransport owned by one worker thread.  0 means *inline*: no
  /// threads, one shard owned by the calling thread, and submit() runs the
  /// same shard step synchronously until the shard is idle — at window 1
  /// the degenerate farm, bit-identical to a plain
  /// Coprocessor/ReliableTransport call (tests pin this).
  std::size_t shards = 1;
  /// Per-shard system configuration (every shard is identical).
  top::SystemConfig system;
  /// Per-shard transport tuning.  `transport.window` also sizes the shard
  /// step, threaded or inline: with window > 1 each shard keeps that many
  /// programs in flight at once (pipelined issue, in-order responses)
  /// instead of one call-and-wait round trip per job.
  TransportConfig transport;
  /// Bounded submission queue depth per shard (jobs waiting for a window
  /// slot; in-flight jobs are not counted against it).  A producer meeting
  /// a full queue blocks until space frees (see Farm, "Admission").
  std::size_t queue_capacity = 64;

  // -- Algorithm-on-demand ---------------------------------------------------
  /// Loadable algorithm images, registered on every shard's FuManager (each
  /// shard constructs its own units via the image factories; the factories
  /// are only ever invoked on the owning worker thread).  Empty = no
  /// manager: the farm serves exactly the units SystemConfig attaches, as
  /// before.
  std::vector<AlgorithmImage> fu_images;
  /// Per-shard physical FU slot budget (codes resident at once).  The
  /// multi-tenant regime of interest is fu_slots < the union of the
  /// tenants' demands, which forces replacement traffic.
  std::size_t fu_slots = 4;
  /// Per-shard victim rule: FuManagerConfig::cost_aware (false = LRU).
  bool fu_cost_aware = false;
};

/// A multi-System coprocessor farm: N independent shards, each one whole
/// `top::System` + `host::ReliableTransport` driven by its own worker
/// thread.  The paper's "one or more CPUs communicate via the interface
/// with a set of functional units" is several host threads holding
/// sessions on one shard (examples/multi_cpu.cpp); more shards scale it out
/// to a pool of functional-unit fabrics the way ThreadPoolComposer-style
/// toolchains expose FPGAs to a software thread pool.
///
/// **Ownership rule.**  The sim::Simulator is thread-affine (see its class
/// comment): each shard's System is constructed *on* its worker thread and
/// never touched by any other thread.  The only cross-thread traffic is
/// the job queue (mutex-protected) and reads of the statistics, which the
/// worker itself answers — never live simulator state.
///
/// **Affinity.**  Registers live per shard, so work that depends on
/// register state across jobs must stay on one shard: create_session()
/// returns an id with a sticky session→shard mapping, and
/// submit(session, ...) always lands on that shard.  Session-less
/// submit() round-robins across shards and must treat each job as
/// self-contained.
///
/// **Windowed pipelining.**  With `transport.window > 1` a worker keeps up
/// to that many jobs in flight on its shard at once: the transport issues
/// them in submission order over one wire (so session register semantics
/// are preserved — a later job's reads still execute after an earlier
/// job's writes) and completes each as its last response lands.  Jobs of
/// *different* sessions interleave freely inside a window.
///
/// **Admission.**  Each shard's queue is bounded
/// (FarmConfig::queue_capacity), and a full queue blocks the producer until
/// space frees.  A submit from a thread that steps the farm — a completion
/// callback's worker, or an inline farm's caller inside its step — is
/// refused with FarmError{kOverload} instead: blocking would park the
/// thread that frees the space.  Queued jobs are dequeued *round-robin
/// across sessions* (FIFO within a session), so one tenant's burst cannot
/// starve the others.
///
/// **Failure semantics.**  A job that trips its watchdog (or exhausts
/// transport retries) fails *and* takes the window with it: every job in
/// flight on that shard and every job queued there at that moment fails
/// with FarmError{kShardFault} — the recovery reset destroys the machine
/// state all of them depend on.  The shard resets its System and keeps
/// serving later submissions; other shards never notice (fault isolation).
///
/// **Shutdown.**  Destruction (or shutdown()) stops intake, lets every
/// worker drain the jobs already queued, then joins — queued futures
/// complete normally, producers blocked in submit() are woken and refused
/// with FarmError{kShutdown}; only *new* submissions are refused.
class Farm {
 public:
  using SessionId = std::uint64_t;
  /// Completion callback for submit_async: exactly one of (responses,
  /// error) is meaningful — error is nullptr on success.  Runs on the
  /// shard's worker thread (inline mode: the submitting thread); it must
  /// not block and must not throw.  It may submit follow-up jobs; such a
  /// submit never blocks: a full queue refuses it with
  /// FarmError{kOverload}, because the thread it would wait on is the one
  /// that frees queue space.
  using Callback =
      std::function<void(std::vector<msg::Response>, std::exception_ptr)>;

  explicit Farm(FarmConfig config);
  ~Farm();

  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  /// Submit a self-contained program; round-robins across shards.
  std::future<std::vector<msg::Response>> submit(
      isa::Program program,
      std::optional<std::uint64_t> budget_cycles = std::nullopt);

  /// Submit on `session`'s shard (sticky affinity: register state persists
  /// across this session's jobs, shard faults permitting).
  std::future<std::vector<msg::Response>> submit(
      SessionId session, isa::Program program,
      std::optional<std::uint64_t> budget_cycles = std::nullopt);

  /// Callback flavours of the two submits: `done` fires on the worker
  /// thread instead of resolving a future — the completion-driven surface
  /// for event-loop hosts (no thread parked in future::get, admission
  /// errors still throw from submit_async itself).
  void submit_async(isa::Program program, Callback done,
                    std::optional<std::uint64_t> budget_cycles = std::nullopt);
  void submit_async(SessionId session, isa::Program program, Callback done,
                    std::optional<std::uint64_t> budget_cycles = std::nullopt);

  /// New session id with a sticky shard assignment (round-robin over
  /// shards at creation).
  SessionId create_session();

  /// New session declaring the algorithm images its jobs require (by
  /// registered image name; requires FarmConfig::fu_images).  Placement is
  /// FU-affine: the session lands on the shard whose already-placed demand
  /// overlaps its required set most (an eviction-avoiding approximation of
  /// residency — the live FuManagers are worker-thread-affine and cannot
  /// be queried here), load-balanced across ties.  Every job submitted on
  /// the session ensures the set is resident before it issues; a set that
  /// cannot be satisfied fails jobs with FarmError{kUnitUnavailable}.
  /// Names resolve to image ids here, once: jobs carry an ImageSet.
  SessionId create_session(const std::vector<std::string>& required);

  /// The shard a session's jobs run on.
  std::size_t shard_of(SessionId session) const;

  /// Shards serving jobs (1 for an inline farm — FarmConfig::shards == 0).
  std::size_t shard_count() const;
  /// True when the farm runs inline on the caller's thread (shards == 0).
  bool inline_mode() const { return config_.shards == 0; }

  /// Aggregated fleet statistics: every shard's transport.*, host.* and
  /// farm.* counters merged (sim::Counters::merge) into one snapshot.
  /// farm.jobs_completed / farm.jobs_failed / farm.jobs_shed /
  /// farm.shard_resets count the farm's own lifecycle events.
  ///
  /// Every read is exact.  Each threaded shard's worker, busy or idle,
  /// answers between two steps, at most Pump::kMaxQuiet simulated cycles
  /// into a step (a running callback delays it), and a job counts before
  /// its future or callback sees its result.  A read from a completion
  /// callback answers its own shard's reads while it waits, so callbacks
  /// on two shards may read each other.  An inline farm is read on its
  /// owner thread; after shutdown(), the snapshot each worker left.
  sim::Counters counters() const;

  /// Simulated-cycle latencies (enqueue to resolution) of recently
  /// completed jobs, merged across shards — the raw samples behind
  /// latency_percentiles().  Each shard keeps a bounded ring of the most
  /// recent samples (so a long-lived farm's memory stays flat), read
  /// exactly as counters() describes; only this read copies it.
  /// Enqueue stamps come from a worker-published clock hint, so a sample
  /// includes queue wait measured on the shard's own simulated clock.
  std::vector<std::uint64_t> job_latency_samples() const;

  /// Stop intake, drain queued jobs, join workers.  Idempotent; called by
  /// the destructor.
  void shutdown();

  const FarmConfig& config() const { return config_; }

 private:
  struct Shard;
  struct Job;
  struct Read;

  /// Where a session's jobs go: its shard, its dense queue slot on that
  /// shard (slot 0 belongs to session-less jobs) and the image set it
  /// declared (empty for plain sessions, resolved from names once).
  struct Session {
    std::size_t shard = 0;
    std::size_t slot = 0;
    ImageSet required;
  };

  Job make_job(isa::Program program,
               std::optional<std::uint64_t> budget_cycles) const;
  void enqueue(SessionId session, Job job);
  /// Register a session on `shard` (placement_m_ held).
  SessionId add_session(std::size_t shard, const ImageSet& required);
  /// The session's entry (throws SimError for an id never created).
  Session session_of(SessionId session) const;
  /// Ask every shard for its view and wait until all have answered.
  void read(Read& read) const;

  FarmConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> rr_next_{0};
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_m_;
  bool joined_ = false;  ///< under shutdown_m_

  /// Every read of the statistics and every answer, across all shards:
  /// readers post to the shards and wait on reads_cv_ for the answers.
  mutable std::mutex reads_m_;
  mutable std::condition_variable reads_cv_;

  // -- Sessions and FU-affine placement, under placement_m_ ------------------
  mutable std::mutex placement_m_;
  /// Every session, indexed by id (ids are dense: create_session hands out
  /// the next index).
  std::vector<Session> sessions_;
  /// Queue slots handed out per shard (slot 0 is the session-less tenant).
  std::vector<std::size_t> slots_;
  /// Per-shard demand: the images some placed session requires.  The
  /// placement heuristic's residency approximation.
  std::vector<ImageSet> demand_;
  /// Sessions placed by required set per shard (load-balance tie-break).
  std::vector<std::size_t> placed_;
};

}  // namespace fpgafu::host
