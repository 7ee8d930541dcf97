#pragma once

#include <cstdint>
#include <string>

#include "fu/functional_unit.hpp"
#include "util/error.hpp"
#include "util/ring_buffer.hpp"

namespace fpgafu::fu {

/// The thesis' *performance-optimised configuration* (§2.3.4): an in-order
/// pipelined datapath in front of an output FIFO buffer.  A unit is this
/// core plus two hooks: `latency(req)`, the cycles from accept to
/// retirement, and `retire(req)`, which executes the operation in
/// retirement order and returns its completion record.
///
/// Key property reproduced from the thesis: destination bookkeeping is
/// enqueued *at dispatch time*, so the unit's occupancy is
/// `fifo contents + instructions still in the pipeline`, and `idle` is
/// computed from that reservation count — the pipeline itself never stalls,
/// and the FIFO can never overflow because a slot was reserved when the
/// instruction entered.  The thesis recommends "FIFO buffers able to hold
/// more data elements than there are pipeline stages"; the constructor
/// enforces it.
///
/// `initiation_interval` models a pipeline that accepts a new instruction
/// "at least every kth clock cycle".
///
/// The hardware shifts every stage each clock; the model keeps the stages
/// in a ring, each holding the absolute cycle its operation retires, and
/// sleeps until the head's (`wake_at`).  Retirement stays strictly in
/// order: a stage due before the one ahead of it retires with that one.
/// An initiation interval above one is a next-issue cycle, announced the
/// same way.  So a unit with work in flight costs the event kernel nothing
/// between accept, retirement and drain.
class PipelineCore : public FunctionalUnit {
 public:
  std::size_t in_flight() const { return pipe_.size(); }
  std::size_t buffered() const { return fifo_.size(); }

  void eval() override {
    // Reserved slots: results already buffered plus instructions that will
    // land in the FIFO when they retire from the pipeline.
    ports.idle.set(slot_free() && simulator().cycle() >= next_issue_);
    ports.data_ready.set(!fifo_.empty());
    if (!fifo_.empty()) {
      ports.result.set(fifo_.front());
    }
  }

  void commit() override {
    const std::uint64_t now = simulator().cycle();
    bool active = false;
    // Drain: the arbiter acknowledged the head result.
    if (!fifo_.empty() && ports.data_acknowledge.get()) {
      fifo_.pop();
      ++completed_;
      active = true;
    }
    // Retire in order into the FIFO (the slot was reserved at dispatch, so
    // push cannot overflow).
    while (!pipe_.empty() && pipe_.front().done_at <= now) {
      fifo_.push(retire(pipe_.pop().request));
      active = true;
    }
    // Accept a new instruction (the dispatcher honoured `idle`).
    if (ports.dispatch.get() && now >= next_issue_ && slot_free()) {
      const FuRequest& req = ports.request.get();
      pipe_.push({req, now + latency(req)});
      next_issue_ = now + interval_;
      active = true;
    }
    if (active) {
      mark_active();
    }
    if (interval_ > 1 && next_issue_ > now) {
      wake_at(next_issue_);  // `idle` rises then
    }
    if (!pipe_.empty()) {
      wake_at(pipe_.front().done_at);
    }
  }

  void reset() override {
    FunctionalUnit::reset();
    pipe_.clear();
    fifo_.clear();
    next_issue_ = 0;
  }

 protected:
  PipelineCore(sim::Simulator& sim, std::string name,
               std::uint32_t pipeline_depth, std::size_t fifo_capacity,
               std::uint32_t initiation_interval = 1)
      : FunctionalUnit(sim, std::move(name)),
        depth_(pipeline_depth),
        interval_(initiation_interval),
        pipe_(fifo_capacity),
        fifo_(fifo_capacity) {
    check(pipeline_depth >= 1, "pipeline depth must be >= 1");
    check(initiation_interval >= 1, "initiation interval must be >= 1");
    check(fifo_capacity > pipeline_depth,
          "FIFO must hold more elements than there are pipeline stages "
          "(thesis 2.3.4 sizing rule)");
  }

  /// Cycles from accept to retirement (at least one), fixed at accept.
  /// Called once per accepted request, in accept order.
  virtual std::uint64_t latency(const FuRequest& req) = 0;
  /// Execute `req` at retirement, in order; returns its completion record.
  virtual FuResult retire(const FuRequest& req) = 0;

  std::uint32_t depth() const { return depth_; }

 private:
  struct Stage {
    FuRequest request;
    std::uint64_t done_at = 0;  ///< cycle whose commit retires it
  };

  /// In-flight plus buffered never exceeds the FIFO capacity, so the stage
  /// ring (sized alike) cannot overflow either.
  bool slot_free() const {
    return pipe_.size() + fifo_.size() < fifo_.capacity();
  }

  std::uint32_t depth_;
  std::uint32_t interval_;
  std::uint64_t next_issue_ = 0;  ///< first cycle `idle` may rise
  RingBuffer<Stage> pipe_;
  RingBuffer<FuResult> fifo_;
};

/// A stateless core on the pipeline: every operation retires
/// `pipeline_depth` cycles after it is accepted.
class PipelinedFu : public PipelineCore {
 public:
  PipelinedFu(sim::Simulator& sim, std::string name, StatelessFn fn,
              std::uint32_t pipeline_depth, std::size_t fifo_capacity,
              std::uint32_t initiation_interval = 1)
      : PipelineCore(sim, std::move(name), pipeline_depth, fifo_capacity,
                     initiation_interval),
        fn_(std::move(fn)) {}

 private:
  std::uint64_t latency(const FuRequest&) override { return depth(); }
  FuResult retire(const FuRequest& req) override {
    return stateless_result(
        req, fn_(req.variety, req.operand1, req.operand2, req.flags_in));
  }

  StatelessFn fn_;
};

}  // namespace fpgafu::fu
