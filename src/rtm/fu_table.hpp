#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "fu/functional_unit.hpp"
#include "isa/types.hpp"
#include "util/error.hpp"

namespace fpgafu::rtm {

/// Functional unit table (paper Fig. 4): maps instruction function codes to
/// attached functional units.  "External table module definitions alleviate
/// customisation" — attaching a unit is the only configuration step.
///
/// Runtime hot-swap support (the partial-reconfiguration model the
/// algorithm-on-demand manager drives, cf. the Agile AOD co-processor):
///
///  * every code has a *lifecycle state*: resident (dispatchable), draining
///    (attached so in-flight writes still retire through the arbiter, but
///    the dispatcher refuses new instructions), or declared-unavailable
///    (no unit attached, but the code is *known* — evicted or still
///    loading).  Instructions for a draining or declared code yield typed
///    kUnitUnavailable error responses, distinct from kUnknownFunction, so
///    hosts can retry after the swap instead of failing the program;
///  * `find`/`index_of` are O(1) via a code-indexed lookup table kept
///    coherent across attach/detach — the decode hot path must not pay a
///    linear scan over a table that now churns at runtime.
///
/// The table also keeps the *ready set* the write arbiter grants from: one
/// bit per slot, set while the slot is attached (resident or draining) and
/// its unit asserts `data_ready`.  The bits follow `data_ready` edges (the
/// table watches each attached unit's wire), so the arbiter finds the next
/// requester with a find-next-set-bit instead of reading every slot.
/// Detach clears the bit and stops the watch, so a reused slot starts from
/// its new unit's wire, never from the old one's.  The table must outlive
/// changes to an attached unit's `data_ready`; detach first otherwise.
class FunctionalUnitTable final : public sim::WireWatcher {
 public:
  FunctionalUnitTable() {
    index_.fill(kNoSlot);
    unavailable_.fill(false);
  }
  FunctionalUnitTable(const FunctionalUnitTable&) = delete;
  FunctionalUnitTable& operator=(const FunctionalUnitTable&) = delete;

  /// Returned by next_ready() when no slot is ready.
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Attach a unit under a function code.  Returns the unit's table index
  /// (used as the lock-owner id).  Codes must be unique and not fc::kRtm.
  /// Detached slots are reused, preserving the indices of other units.
  /// Clears any declared-unavailable marker for the code (the swap
  /// completed; the unit is dispatchable again).
  std::uint32_t attach(isa::FunctionCode code, fu::FunctionalUnit& unit) {
    check(code != isa::fc::kRtm, "fc::kRtm is reserved for the RTM itself");
    check(index_[code] == kNoSlot, "function code already attached");
    std::size_t slot = 0;
    while (slot < entries_.size() && entries_[slot].unit != nullptr) {
      ++slot;
    }
    unit.ports.data_ready.watch(this, static_cast<std::uint32_t>(slot));
    unavailable_[code] = false;
    if (slot == entries_.size()) {
      entries_.push_back({});
      ready_.resize((entries_.size() + 63) / 64);
    }
    entries_[slot] = {code, &unit, false};
    index_[code] = static_cast<std::int16_t>(slot);
    set_ready(slot, unit.ports.data_ready.peek());
    ++generation_;
    return static_cast<std::uint32_t>(slot);
  }

  /// Detach the unit under `code` — the model's equivalent of partial
  /// reconfiguration (cf. Wirthlin & Hutchings' dynamic instruction set,
  /// discussed in the paper's related work): subsequent instructions with
  /// this code yield error responses until a new unit is attached
  /// (kUnknownFunction, or kUnitUnavailable once declared).  The caller
  /// must only detach an idle unit with no writes in flight (Rtm::detach
  /// enforces this, including the stalled-pre-dispatch case).
  void detach(isa::FunctionCode code) {
    const std::int16_t slot = index_[code];
    check(slot != kNoSlot, "detach: function code not attached");
    Entry& e = entries_[static_cast<std::size_t>(slot)];
    e.unit->ports.data_ready.watch(nullptr);
    set_ready(static_cast<std::size_t>(slot), false);
    e.unit = nullptr;
    e.draining = false;
    index_[code] = kNoSlot;
    ++generation_;
  }

  /// Unit registered under `code` and dispatchable, or nullptr.  This is
  /// the *dispatcher's* view: a draining unit is invisible here (new
  /// instructions must not reach it) even though its slot stays active so
  /// the write arbiter retires its in-flight completions.
  fu::FunctionalUnit* find(isa::FunctionCode code) const {
    const std::int16_t slot = index_[code];
    if (slot == kNoSlot || entries_[static_cast<std::size_t>(slot)].draining) {
      return nullptr;
    }
    return entries_[static_cast<std::size_t>(slot)].unit;
  }

  /// Table index for `code`; requires the code to be attached.  Draining
  /// entries are still found — this is the *management* view (lock-owner
  /// ids, Rtm::detach) rather than the dispatch view.
  std::uint32_t index_of(isa::FunctionCode code) const {
    const std::int16_t slot = index_[code];
    check(slot != kNoSlot, "function code not attached");
    return static_cast<std::uint32_t>(slot);
  }

  /// True when the code is attached (resident or draining).
  bool attached(isa::FunctionCode code) const {
    return index_[code] != kNoSlot;
  }

  // -- Hot-swap lifecycle ----------------------------------------------------
  /// Mark an attached code as draining: find() stops returning it, so new
  /// instructions become kUnitUnavailable errors, while the slot stays
  /// active for the arbiter to retire in-flight writes.
  void set_draining(isa::FunctionCode code, bool draining) {
    const std::int16_t slot = index_[code];
    check(slot != kNoSlot, "set_draining: function code not attached");
    entries_[static_cast<std::size_t>(slot)].draining = draining;
  }

  /// Declare a *detached* code as known-but-unavailable (registered with a
  /// hot-swap manager, currently evicted or loading): instructions for it
  /// yield kUnitUnavailable instead of kUnknownFunction.  Cleared by
  /// attach().
  void mark_unavailable(isa::FunctionCode code) {
    check(index_[code] == kNoSlot,
          "mark_unavailable: code is attached (use set_draining)");
    unavailable_[code] = true;
  }
  void clear_unavailable(isa::FunctionCode code) {
    unavailable_[code] = false;
  }

  /// True when instructions for `code` should yield kUnitUnavailable (the
  /// code is draining, loading or evicted) rather than kUnknownFunction.
  bool unavailable(isa::FunctionCode code) const {
    const std::int16_t slot = index_[code];
    if (slot != kNoSlot) {
      return entries_[static_cast<std::size_t>(slot)].draining;
    }
    return unavailable_[code];
  }

  /// Number of table slots (detached slots included; test with
  /// slot_active before calling unit()).
  std::size_t size() const { return entries_.size(); }
  bool slot_active(std::uint32_t index) const {
    return entries_.at(index).unit != nullptr;
  }
  bool slot_draining(std::uint32_t index) const {
    return entries_.at(index).draining;
  }
  fu::FunctionalUnit& unit(std::uint32_t index) const {
    check(entries_.at(index).unit != nullptr, "detached unit slot");
    return *entries_[index].unit;
  }
  isa::FunctionCode code(std::uint32_t index) const {
    return entries_.at(index).code;
  }

  /// Bumped by every attach and detach: a slot may now hold a different
  /// unit (or none).  Stages that remember which slot's wires they drove
  /// compare this to know when to drive every slot again.
  std::uint64_t generation() const { return generation_; }

  // -- Ready set --------------------------------------------------------------
  /// First ready slot at or after `from`, wrapping past the end; kNone when
  /// no slot is ready.  `from` must be below size() (or 0).
  std::size_t next_ready(std::size_t from) const {
    if (ready_count_ == 0) {
      return kNone;
    }
    std::size_t w = from / 64;
    std::uint64_t bits = ready_[w] & (~std::uint64_t{0} << (from % 64));
    // Up to one pass over every word, then the low bits of the first one.
    for (std::size_t k = 0; k <= ready_.size(); ++k) {
      if (bits != 0) {
        return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      }
      w = w + 1 == ready_.size() ? 0 : w + 1;
      bits = ready_[w];
    }
    return kNone;
  }
  /// True while the slot is attached and its unit asserts data_ready.
  bool ready(std::size_t slot) const {
    return (ready_[slot / 64] >> (slot % 64) & 1u) != 0;
  }
  /// Number of ready slots.
  std::size_t ready_count() const { return ready_count_; }

  /// data_ready of the unit in slot `tag` changed (sim::WireWatcher).
  void wire_edge(std::uint32_t tag) override {
    set_ready(tag, entries_[tag].unit->ports.data_ready.peek());
  }

 private:
  static constexpr std::int16_t kNoSlot = -1;

  void set_ready(std::size_t slot, bool ready) {
    std::uint64_t& word = ready_[slot / 64];
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    if (((word & bit) != 0) != ready) {
      word ^= bit;
      if (ready) {
        ++ready_count_;
      } else {
        --ready_count_;
      }
    }
  }

  struct Entry {
    isa::FunctionCode code;
    fu::FunctionalUnit* unit;
    bool draining;
  };
  std::vector<Entry> entries_;
  /// code -> slot lookup (kNoSlot when detached), kept coherent across
  /// attach/detach so the decode hot path never scans.
  std::array<std::int16_t, 256> index_;
  /// Codes declared known-but-not-resident by a hot-swap manager.
  std::array<bool, 256> unavailable_;
  /// Ready set: bit i of word i/64 for slot i (see the class comment).
  std::vector<std::uint64_t> ready_;
  std::size_t ready_count_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace fpgafu::rtm
