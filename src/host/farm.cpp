#include "host/farm.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <span>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace fpgafu::host {

namespace {
/// Tenant bucket for session-less submissions.  Round-robin fairness treats
/// all of them as one tenant.
constexpr Farm::SessionId kNoSession = ~std::uint64_t{0};
/// Most recent per-shard job-latency samples kept for job_latency_samples()
/// (a bounded ring, so a long-lived farm's footprint stays flat).
constexpr std::size_t kLatencyRingCapacity = 65536;
}  // namespace

LatencyPercentiles latency_percentiles(std::vector<std::uint64_t> samples) {
  LatencyPercentiles p;
  p.samples = samples.size();
  if (samples.empty()) {
    return p;
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](double q) {
    std::size_t r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    r = std::min(std::max<std::size_t>(r, 1), samples.size());
    return samples[r - 1];
  };
  p.p50 = rank(0.50);
  p.p95 = rank(0.95);
  p.p99 = rank(0.99);
  return p;
}

/// One farm job: the program, its budget, which tenant's queue it waits in,
/// the algorithm images it requires resident, and exactly one completion
/// surface — a promise (submit) or a callback (submit_async).
struct Farm::Job {
  isa::Program program;
  std::uint64_t budget = 0;
  /// The session's queue slot on its shard (0 = session-less).
  std::size_t slot = 0;
  /// Shard clock (sim_cycle_hint) at enqueue; the baseline of this job's
  /// simulated-cycle latency sample.
  std::uint64_t enqueue_cycle = 0;
  /// Images the session declared at create_session(required); the worker
  /// ensures them resident (swapping on an empty window) before the job
  /// issues.  Empty = no requirement.
  ImageSet required;
  /// Emplaced by submit() only, so callback jobs allocate no shared state.
  std::optional<std::promise<std::vector<msg::Response>>> promise;
  Callback callback;
  /// The job's transport ticket while it is in the window.
  ReliableTransport::ProgramId id = 0;
};

/// A read of the fleet statistics, on the reader's stack: where the shards
/// write their answers and how many have yet to.  Under Farm::reads_m_.
struct Farm::Read {
  sim::Counters* counters = nullptr;
  std::vector<std::uint64_t>* samples = nullptr;
  std::size_t pending = 0;
};

/// One shard: the bounded per-tenant job queues (cross-thread, under `m`),
/// the reads posted to it (under the farm's reads_m_), the shard step's own
/// state and statistics, and the worker thread.  Once warm, a job moves
/// through storage that is all reused — tenant queue, `held`, `active`,
/// the latency ring — so the shard allocates nothing per job.  The
/// simulated hardware itself (Engine) is built and destroyed by its owner
/// thread — the worker, or an inline farm's submitting thread — and touched
/// by no other, so the thread-affinity rule holds by construction.
struct Farm::Shard {
  /// A shard's simulated hardware and its host stack, bundled so inline
  /// mode and worker threads build them identically.
  struct Engine {
    top::System system;
    Coprocessor copro;
    ReliableTransport transport;
    /// Algorithm-on-demand manager (null when FarmConfig::fu_images is
    /// empty).  Worker-thread-affine, like everything else in the engine.
    std::unique_ptr<FuManager> manager;

    explicit Engine(const FarmConfig& cfg)
        : system(cfg.system), copro(system), transport(copro, cfg.transport) {
      if (!cfg.fu_images.empty()) {
        manager = std::make_unique<FuManager>(
            copro, FuManagerConfig{cfg.fu_slots, cfg.fu_cost_aware});
        for (const AlgorithmImage& image : cfg.fu_images) {
          manager->register_image(image);
        }
      }
    }
  };

  std::size_t index = 0;
  const Farm* farm = nullptr;

  /// The shard whose step this thread runs: set for life on a worker
  /// thread, and for the step loop on an inline farm's submitting thread.
  /// A submit from such a thread (a callback's follow-up) must not wait for
  /// queue space, and a read from it answers this shard's reads while it
  /// waits: this thread is the one that would free the space or answer.
  static inline thread_local Shard* t_stepping = nullptr;

  // -- Cross-thread state, under m -----------------------------------------
  std::mutex m;
  /// Worker waits: job queued, read posted or stop.
  std::condition_variable cv_work;
  std::condition_variable cv_space;  ///< producers wait: queue below capacity
  /// Tenants' queues by the dense slot each session was given at creation;
  /// slot 0 is every session-less job.  A slot outlives its empty queue, so
  /// a steadily busy session reuses its storage.
  std::vector<CompactingQueue<Job>> tenants;
  CompactingQueue<std::size_t> rr;  ///< round-robin rotation of queued slots
  std::size_t queued = 0;           ///< total queued jobs (bounded by capacity)
  bool stop = false;
  /// Lock-free mirror of `queued` so the worker's pump loop can notice new
  /// work without taking the queue mutex at every wake.
  std::atomic<std::size_t> queued_hint{0};
  /// Lock-free mirror of `!reads.empty()`, so the pump loop hands a busy
  /// shard back to its worker to answer.
  std::atomic<bool> read_hint{false};
  /// Jobs refused with kOverload (producers bump it; a read takes it live).
  std::atomic<std::uint64_t> jobs_shed{0};
  /// Worker-published mirror of the shard's simulated clock, so producers
  /// can stamp jobs at enqueue without touching the thread-affine
  /// simulator.  Slightly stale (updated at each wake of the pump, at most
  /// Pump::kMaxQuiet cycles apart), which only makes latency samples
  /// conservative (never negative — recording clamps).
  std::atomic<std::uint64_t> sim_cycle_hint{0};

  // -- Reads, under the farm's reads_m_ -------------------------------------
  /// Reads waiting for this shard's owner thread to answer.
  std::vector<Read*> reads;
  /// The worker has exited: reads are answered from `final_counters` and
  /// `latency`, which it no longer touches.
  bool exited = false;
  sim::Counters final_counters;

  // -- Shard-step state: worker-local (inline mode: the submitting thread) -
  std::vector<Job> active;  ///< jobs in the transport window, submission order
  /// Jobs popped from the queue but waiting to issue: the front needs an FU
  /// swap and the window is not empty yet.  Strict FIFO behind it — issuing
  /// a later job around a held one would reorder a session's register
  /// semantics.
  CompactingQueue<Job> held;
  // Scratch reused across steps, so a step allocates nothing once warm.
  std::vector<ReliableTransport::Completion> comps;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t resets = 0;
  LatencyRing latency{kLatencyRingCapacity};

  /// Built by the owner thread: the worker at its start, an inline farm's
  /// caller on its first submit.  A worker destroys it when it exits.
  std::unique_ptr<Engine> engine;

  std::thread thread;

  // Queue primitives (m held by the caller).
  void push_locked(Job&& job) {
    if (job.slot >= tenants.size()) {
      tenants.resize(job.slot + 1);
    }
    CompactingQueue<Job>& q = tenants[job.slot];
    if (q.empty()) {
      rr.push_back(job.slot);
    }
    q.push_back(std::move(job));
    ++queued;
    queued_hint.store(queued, std::memory_order_relaxed);
  }
  /// Move the next job, round-robin across tenants and FIFO within one,
  /// to the back of `into`.
  bool pop_locked(CompactingQueue<Job>& into) {
    if (rr.empty()) {
      return false;
    }
    const std::size_t slot = rr.front();
    rr.pop_front();
    CompactingQueue<Job>& q = tenants[slot];
    into.push_back(std::move(q.front()));
    q.pop_front();
    if (!q.empty()) {
      rr.push_back(slot);
    }
    --queued;
    queued_hint.store(queued, std::memory_order_relaxed);
    return true;
  }

  // Job resolution (worker thread; inline mode: the submitting thread).
  /// Resolve `job`: failed when `err` is set, else with `responses`.
  void resolve(Job& job, std::vector<msg::Response>&& responses,
               std::exception_ptr err);

  // Reads (the farm's reads_m_ held).
  /// Answer `read` now — an inline shard or one whose worker has exited —
  /// or leave it for the owner thread.
  void post(Read& read);
  /// Write this shard's view into `read` (owner thread, or after exit).
  void answer(Read& read);
  /// Answer every posted read and wake the readers (owner thread).
  void answer_posted();
  void recover(const SimError& cause);
  /// Move queued jobs into `held` until the window would be full.
  void pop_up_to_window();
  /// Issue held jobs into the transport window, FIFO, under the FU-swap
  /// rule.
  void issue();
  /// The shard step, the one submission path of threaded and inline farms
  /// alike: pop, issue, pump until something happens, resolve; recover on
  /// a fault.
  void step();
  bool busy() const { return !active.empty() || !held.empty(); }
  /// Thread body of a threaded shard: the step plus engine construction,
  /// the idle wait and stop.
  void worker();

  /// Make `job.required` resident (the caller guarantees the transport
  /// window is empty if a swap is needed).  On an unsatisfiable set — one
  /// larger than the slot budget — the job is resolved with the retryable
  /// FarmError{kUnitUnavailable} and false is returned; the shard stays
  /// healthy.
  bool ensure_required(Job& job) {
    try {
      engine->manager->ensure_resident(job.required);
      return true;
    } catch (const SimError& e) {
      resolve(job, {},
              std::make_exception_ptr(FarmError(
                  FarmError::Kind::kUnitUnavailable, index,
                  "farm shard " + std::to_string(index) +
                      ": required FU set not satisfiable: " +
                      std::string(e.what()))));
      return false;
    }
  }

  /// True when the job must wait for an empty transport window before it
  /// can issue: one of its required images is not resident, so making it
  /// resident may drain/evict units that in-flight programs' response
  /// predictions still count on.
  bool needs_swap(const Job& job) const {
    return job.required.any() && !engine->manager->resident(job.required);
  }

  /// First kUnitUnavailable error among `responses`, if any: the job raced
  /// a hot swap (or used a code whose image was never made resident) — it
  /// fails typed and retryable instead of handing the caller a response
  /// vector with a buried error.
  static bool hit_unavailable(const std::vector<msg::Response>& responses) {
    for (const msg::Response& r : responses) {
      if (r.type == msg::Response::Type::kError &&
          static_cast<msg::ErrorCode>(r.code) ==
              msg::ErrorCode::kUnitUnavailable) {
        return true;
      }
    }
    return false;
  }

  /// Record a completed job's simulated-cycle latency (enqueue stamp to
  /// now) and resolve it: success normally, the typed retryable failure
  /// when a kUnitUnavailable error response surfaced mid-program.
  void resolve_completion(Job& job, std::vector<msg::Response>&& responses) {
    const std::uint64_t now = engine->system.simulator().cycle();
    latency.push(now - std::min(job.enqueue_cycle, now));
    if (hit_unavailable(responses)) {
      resolve(job, {},
              std::make_exception_ptr(FarmError(
                  FarmError::Kind::kUnitUnavailable, index,
                  "farm shard " + std::to_string(index) +
                      ": a functional unit became unavailable "
                      "under this job (FU hot swap); retry")));
      return;
    }
    resolve(job, std::move(responses), nullptr);
  }
};

// A job counts as completed or failed before its callback runs or its
// value lands, so a read made after that sees it.
void Farm::Shard::resolve(Job& job, std::vector<msg::Response>&& responses,
                          std::exception_ptr err) {
  ++(err ? jobs_failed : jobs_completed);
  if (!job.promise) {
    job.callback(std::move(responses), err);
  } else if (err) {
    job.promise->set_exception(err);
  } else {
    job.promise->set_value(std::move(responses));
  }
}

void Farm::Shard::post(Read& read) {
  if (exited || farm->inline_mode()) {
    answer(read);
    return;
  }
  reads.push_back(&read);
  ++read.pending;
  {
    std::lock_guard<std::mutex> lk(m);  // an idle worker checks it under m
    read_hint.store(true, std::memory_order_relaxed);
  }
  cv_work.notify_one();
}

void Farm::Shard::answer(Read& read) {
  sim::Counters* out = read.counters;
  if (out != nullptr && exited) {
    out->merge(final_counters);
  } else if (out != nullptr) {
    out->bump("farm.jobs_completed", jobs_completed);
    out->bump("farm.jobs_failed", jobs_failed);
    out->bump("farm.shard_resets", resets);
    out->bump("farm.jobs_shed", jobs_shed.load());
    if (engine) {
      // The shard's simulated clock, so benches can report deterministic
      // cycles/job alongside wall-clock rates (sums across shards).
      out->bump("farm.shard_cycles", engine->system.simulator().cycle());
      out->merge(engine->transport.counters());
      out->merge(engine->copro.counters());
      if (engine->manager) {
        out->merge(engine->manager->counters());
      }
    }
  }
  if (read.samples != nullptr) {
    const std::vector<std::uint64_t>& ring = latency.samples();
    read.samples->insert(read.samples->end(), ring.begin(), ring.end());
  }
}

void Farm::Shard::answer_posted() {
  for (Read* read : reads) {
    answer(*read);
    --read->pending;
  }
  reads.clear();
  read_hint.store(false, std::memory_order_relaxed);
  farm->reads_cv_.notify_all();
}

/// Fault recovery: reset the shard's hardware so later submissions run on
/// a clean machine, then fail the in-flight window, the held jobs and
/// everything queued — all of it was submitted against machine state the
/// reset just destroyed.  Other shards never notice.
void Farm::Shard::recover(const SimError& cause) {
  ++resets;
  engine->transport.abort_in_flight();
  engine->system.simulator().reset();
  engine->system.rtm().clear_state();
  // Snapshot the queue BEFORE resolving any window job: a producer can only
  // learn of the fault through a window job's failure, so anything it
  // submits after that must run on the recovered shard, not die as a
  // casualty of a fault that preceded it.  Held jobs never issued, but the
  // reset destroyed the register state their sessions depend on all the
  // same.
  std::vector<Job> window = std::move(active);
  std::vector<Job> casualties;
  active.clear();
  for (; !held.empty(); held.pop_front()) {
    casualties.push_back(std::move(held.front()));
  }
  {
    std::lock_guard<std::mutex> lk(m);
    for (CompactingQueue<Job>& q : tenants) {
      for (; !q.empty(); q.pop_front()) {
        casualties.push_back(std::move(q.front()));
      }
    }
    rr.clear();
    queued = 0;
    queued_hint.store(0, std::memory_order_relaxed);
  }
  cv_space.notify_all();
  const std::string why = "farm shard " + std::to_string(index) +
                          " fault: " + std::string(cause.what());
  for (Job& j : window) {
    resolve(j, {}, std::make_exception_ptr(FarmError(
                       FarmError::Kind::kShardFault, index, why)));
  }
  for (Job& j : casualties) {
    resolve(j, {},
            std::make_exception_ptr(FarmError(
                FarmError::Kind::kShardFault, index,
                "farm shard " + std::to_string(index) +
                    " reset by an in-flight fault; queued job failed (its "
                    "register state is gone)")));
  }
}

void Farm::Shard::pop_up_to_window() {
  bool popped = false;
  {
    std::lock_guard<std::mutex> lk(m);
    while (active.size() + held.size() < farm->config_.transport.window &&
           pop_locked(held)) {
      popped = true;
    }
  }
  if (popped) {
    cv_space.notify_all();
  }
}

void Farm::Shard::issue() {
  // A job whose required images are all resident issues at once; one that
  // needs a swap waits for the window to drain first — response
  // predictions of in-flight programs were computed against the current FU
  // table, so the table must not change under them.
  while (!held.empty() && active.size() < farm->config_.transport.window) {
    Job& job = held.front();
    if (needs_swap(job)) {
      if (engine->transport.in_flight() > 0) {
        break;  // swap deferred until the window drains
      }
      if (!ensure_required(job)) {
        held.pop_front();  // unsatisfiable; job failed typed
        continue;
      }
    } else if (job.required.any()) {
      // All resident: record the hits so the victim rule's recency stays
      // honest.
      engine->manager->ensure_resident(job.required);
    }
    job.id = engine->transport.submit(job.program, job.budget);
    active.push_back(std::move(job));
    held.pop_front();
  }
}

void Farm::Shard::step() {
  pop_up_to_window();
  try {
    issue();
    if (!busy()) {
      return;
    }
    // Pump the shard's clock until there is something to act on: a
    // completion surfaced, the window has space and new work is queued
    // (queued_hint — no lock on the hot path), or the window drained.  In
    // between, the pump wakes only for the transport's own events; work
    // queued by other threads is seen at the next wake, at most
    // Pump::kMaxQuiet cycles away.  Job watchdogs live
    // inside the transport (per-program deadlines), so this loop itself is
    // unbounded.
    const std::size_t window = farm->config_.transport.window;
    const std::uint64_t start = engine->system.simulator().cycle();
    comps.clear();
    engine->copro.pump().run_until(
        [&] {
          sim_cycle_hint.store(engine->system.simulator().cycle(),
                               std::memory_order_relaxed);
          engine->transport.service();
          while (auto c = engine->transport.poll_completed()) {
            comps.push_back(std::move(*c));
          }
          // A posted read is answered between steps: hand the shard back
          // to the worker now rather than at the next completion, once
          // the clock has moved in this step, so that a reader polling in
          // a loop cannot stall the shard.
          if (!comps.empty() ||
              (read_hint.load(std::memory_order_relaxed) &&
               engine->system.simulator().cycle() != start)) {
            return Wake::done();
          }
          // Pull new queued work only while nothing is held: held jobs
          // issue strictly FIFO, so with a swap-blocked job at the front
          // there is nothing to do with more work except hold it too —
          // and returning here without stepping would spin the loop
          // without ever letting the in-flight window drain.
          if ((held.empty() && engine->transport.in_flight() < window &&
               queued_hint.load(std::memory_order_relaxed) > 0) ||
              engine->transport.in_flight() == 0) {
            return Wake::done();
          }
          return engine->transport.next_wake();
        },
        Deadline::unbounded(engine->system.simulator()), "Farm::shard step");
    for (ReliableTransport::Completion& c : comps) {
      const auto it =
          std::find_if(active.begin(), active.end(),
                       [&c](const Job& j) { return j.id == c.id; });
      if (it != active.end()) {
        resolve_completion(*it, std::move(c.responses));
        active.erase(it);
      }
    }
  } catch (const SimError& e) {
    recover(e);
  }
}

void Farm::Shard::worker() {
  // The System is constructed *here*, on the worker thread, making this
  // thread the simulator's owner (sim::Simulator is thread-affine — see
  // its class comment; debug builds assert it in step()).
  std::string construct_error;
  try {
    engine = std::make_unique<Engine>(farm->config_);
  } catch (const std::exception& e) {
    construct_error = e.what();
  }
  for (;;) {
    // Reads are answered between steps, busy or idle.
    if (read_hint.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lk(farm->reads_m_);
      answer_posted();
    }
    {
      std::unique_lock<std::mutex> lk(m);
      // Woken for a read, the step below finds nothing to do.
      cv_work.wait(lk, [&] {
        return stop || queued > 0 || busy() ||
               read_hint.load(std::memory_order_relaxed);
      });
      if (stop && queued == 0 && !busy()) {
        break;
      }
    }
    if (engine) {
      step();
      continue;
    }
    pop_up_to_window();
    for (; !held.empty(); held.pop_front()) {
      resolve(held.front(), {},
              std::make_exception_ptr(FarmError(
                  FarmError::Kind::kShardFault, index,
                  "farm shard " + std::to_string(index) +
                      " failed to construct: " + construct_error)));
    }
  }
  {
    // The last snapshot, for reads from now on.
    std::lock_guard<std::mutex> lk(farm->reads_m_);
    answer_posted();
    Read last{&final_counters};
    answer(last);
    exited = true;
  }
  engine.reset();
}

Farm::Farm(FarmConfig config) : config_(std::move(config)) {
  // Surface configuration errors on the constructing thread, not as a
  // worker-thread construction failure N times over.
  config_.system.validate();
  config_.transport.validate();
  check(config_.queue_capacity > 0, "FarmConfig::queue_capacity must be > 0");
  // Surface catalogue mistakes here instead of as every job failing with
  // a shard that cannot construct: each shard's register_image applies
  // the same rules, against the units its SystemConfig attaches.
  if (!config_.fu_images.empty()) {
    top::System probe(config_.system);
    const std::span<const AlgorithmImage> images(config_.fu_images);
    for (std::size_t i = 0; i < images.size(); ++i) {
      check_image(images[i], images.first(i), config_.fu_slots,
                  probe.rtm().table());
    }
  }
  const std::size_t n = config_.shards == 0 ? 1 : config_.shards;
  demand_.resize(n);
  placed_.assign(n, 0);
  slots_.assign(n, 0);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = i;
    shards_.back()->farm = this;
  }
  if (inline_mode()) {
    return;  // the caller's thread is shard 0's owner; engine built lazily
  }
  for (std::size_t i = 0; i < n; ++i) {
    Shard* shard = shards_[i].get();
    shard->thread = std::thread([shard] {
      Shard::t_stepping = shard;
      shard->worker();
    });
  }
}

Farm::~Farm() { shutdown(); }

void Farm::shutdown() {
  std::lock_guard<std::mutex> g(shutdown_m_);
  if (joined_) {
    return;
  }
  stopping_.store(true);
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lk(shard->m);
      shard->stop = true;
    }
    shard->cv_work.notify_all();
    shard->cv_space.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  joined_ = true;
}

std::size_t Farm::shard_count() const { return shards_.size(); }

Farm::SessionId Farm::add_session(std::size_t shard,
                                  const ImageSet& required) {
  sessions_.push_back({shard, ++slots_[shard], required});
  return sessions_.size() - 1;
}

Farm::SessionId Farm::create_session() {
  std::lock_guard<std::mutex> lk(placement_m_);
  return add_session(sessions_.size() % shards_.size(), ImageSet{});
}

Farm::SessionId Farm::create_session(const std::vector<std::string>& required) {
  check(!config_.fu_images.empty(),
        "Farm::create_session(required): the farm has no algorithm images "
        "(set FarmConfig::fu_images)");
  const ImageSet ids = image_set(config_.fu_images, required);
  std::lock_guard<std::mutex> lk(placement_m_);
  // FU-affine placement: maximise overlap with demand already placed on a
  // shard (the host-side approximation of residency — the live managers
  // are worker-thread-affine), break ties toward the least-loaded shard.
  std::size_t best = 0;
  std::size_t best_overlap = 0;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t overlap = (ids & demand_[s]).count();
    if (s == 0 || overlap > best_overlap ||
        (overlap == best_overlap && placed_[s] < best_load)) {
      best = s;
      best_overlap = overlap;
      best_load = placed_[s];
    }
  }
  demand_[best] |= ids;
  ++placed_[best];
  return add_session(best, ids);
}

Farm::Session Farm::session_of(SessionId session) const {
  std::lock_guard<std::mutex> lk(placement_m_);
  check(session < sessions_.size(), "Farm: unknown session id");
  return sessions_[session];
}

std::size_t Farm::shard_of(SessionId session) const {
  return session_of(session).shard;
}

Farm::Job Farm::make_job(isa::Program program,
                         std::optional<std::uint64_t> budget_cycles) const {
  Job job;
  job.program = std::move(program);
  job.budget = budget_cycles.value_or(kDefaultCallBudgetCycles);
  return job;
}

std::future<std::vector<msg::Response>> Farm::submit(
    isa::Program program, std::optional<std::uint64_t> budget_cycles) {
  return submit(kNoSession, std::move(program), budget_cycles);
}

std::future<std::vector<msg::Response>> Farm::submit(
    SessionId session, isa::Program program,
    std::optional<std::uint64_t> budget_cycles) {
  Job job = make_job(std::move(program), budget_cycles);
  std::future<std::vector<msg::Response>> fut =
      job.promise.emplace().get_future();
  enqueue(session, std::move(job));
  return fut;
}

void Farm::submit_async(isa::Program program, Callback done,
                        std::optional<std::uint64_t> budget_cycles) {
  submit_async(kNoSession, std::move(program), std::move(done), budget_cycles);
}

void Farm::submit_async(SessionId session, isa::Program program, Callback done,
                        std::optional<std::uint64_t> budget_cycles) {
  check(static_cast<bool>(done), "Farm::submit_async requires a callback");
  Job job = make_job(std::move(program), budget_cycles);
  job.callback = std::move(done);
  enqueue(session, std::move(job));
}

/// The admission front end, shared by both execution modes: typed
/// shutdown/overload refusals happen here, so inline and threaded farms
/// reject identically.  Session-less jobs round-robin across shards.
void Farm::enqueue(SessionId session, Job job) {
  std::size_t target = 0;
  if (session == kNoSession) {
    target = static_cast<std::size_t>(rr_next_.fetch_add(1) % shards_.size());
  } else {
    const Session entry = session_of(session);
    target = entry.shard;
    job.slot = entry.slot;
    job.required = entry.required;
  }
  Shard& shard = *shards_[target];
  // Stamp the arrival against the worker-published clock mirror; slightly
  // stale is fine (latency samples only get conservative).
  job.enqueue_cycle =
      shard.sim_cycle_hint.load(std::memory_order_relaxed);

  {
    std::unique_lock<std::mutex> lk(shard.m);
    if (stopping_.load() || shard.stop) {
      throw FarmError(FarmError::Kind::kShutdown, shard.index,
                      "Farm::submit on a farm that is shutting down");
    }
    if (shard.queued >= config_.queue_capacity) {
      // A submit from a thread that steps this farm (a callback) is shed:
      // blocking would park the thread that frees queue space.
      if (Shard::t_stepping != nullptr && Shard::t_stepping->farm == this) {
        shard.jobs_shed.fetch_add(1);
        throw FarmError(FarmError::Kind::kOverload, shard.index,
                        "Farm::submit: shard " + std::to_string(shard.index) +
                            " queue is full (" +
                            std::to_string(config_.queue_capacity) + ")");
      }
      // Backpressure: block while the bounded queue is full.
      shard.cv_space.wait(lk, [&] {
        return shard.stop || shard.queued < config_.queue_capacity;
      });
      if (shard.stop) {
        throw FarmError(FarmError::Kind::kShutdown, shard.index,
                        "Farm::submit on a farm that is shutting down");
      }
    }
    shard.push_locked(std::move(job));
  }

  if (!inline_mode()) {
    shard.cv_work.notify_one();
    return;
  }

  // Inline mode: run the shard step on the calling thread until the shard
  // is idle.  A reentrant submit (from inside a callback) just queues; the
  // outermost call's step loop runs it.
  if (Shard::t_stepping == &shard) {
    return;
  }
  struct Restore {
    Shard* outer;
    ~Restore() { Shard::t_stepping = outer; }
  } restore{std::exchange(Shard::t_stepping, &shard)};
  if (!shard.engine) {
    shard.engine = std::make_unique<Shard::Engine>(config_);
  }
  while (shard.busy() ||
         shard.queued_hint.load(std::memory_order_relaxed) > 0) {
    shard.step();
  }
}

void Farm::read(Read& read) const {
  std::unique_lock<std::mutex> lk(reads_m_);
  // On a worker (a completion callback), this thread is the one that
  // answers its own shard: it answers that shard's reads while it waits
  // for the others, so callbacks on two shards reading each other do not
  // deadlock.
  Shard* own = nullptr;
  for (const auto& shard : shards_) {
    shard->post(read);
    if (shard.get() == Shard::t_stepping) {
      own = shard.get();
    }
  }
  reads_cv_.notify_all();  // a callback waiting here may own a shard
  while (read.pending > 0) {
    if (own != nullptr && !own->reads.empty()) {
      own->answer_posted();
    } else {
      reads_cv_.wait(lk);
    }
  }
}

sim::Counters Farm::counters() const {
  sim::Counters out;
  Read r{&out};
  read(r);
  return out;
}

std::vector<std::uint64_t> Farm::job_latency_samples() const {
  std::vector<std::uint64_t> out;
  Read r{nullptr, &out};
  read(r);
  return out;
}

}  // namespace fpgafu::host
