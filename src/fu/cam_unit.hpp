#pragma once

#include <string>
#include <vector>

#include "fu/minimal_fu.hpp"
#include "util/error.hpp"

namespace fpgafu::fu {

/// Associative-memory (content-addressable memory) functional unit — the
/// third stateful example the paper names (§IV-B).
///
/// The persistent state is a table of {key, value, valid} entries.  In
/// hardware every entry compares its key against the broadcast search key
/// simultaneously, so a lookup costs one cycle *regardless of capacity* —
/// the same circuit-parallelism story as the χ-sort cell array; the model
/// preserves that single-cycle timing with a minimal skeleton whose core
/// searches and updates the table.
///
/// Operations (variety code; key in operand1, value in operand2):
///   kClear  — invalidate every entry;
///   kInsert — update the entry matching the key, or claim a free slot;
///             sets kError (and changes nothing) when the table is full;
///   kErase  — invalidate the entry matching the key (a miss is a no-op
///             that reports kZero);
///   kLookup — return the value for the key; kCarry = hit, kZero = miss;
///   kCount  — return the number of valid entries (a population-count
///             tree in hardware).
class CamUnit : public MinimalFu {
 public:
  static constexpr isa::VarietyCode kClear = 0x01;
  static constexpr isa::VarietyCode kInsert = 0x02;
  static constexpr isa::VarietyCode kErase = 0x03;
  static constexpr isa::VarietyCode kLookup = 0x04;
  static constexpr isa::VarietyCode kCount = 0x05;

  CamUnit(sim::Simulator& sim, std::string name, std::size_t capacity)
      : MinimalFu(sim, std::move(name),
                  [this](isa::VarietyCode v, isa::Word key, isa::Word value,
                         isa::FlagWord) { return execute(v, key, value); }),
        entries_(capacity) {
    check(capacity >= 1, "CAM needs at least one entry");
  }

  std::size_t capacity() const { return entries_.size(); }

  void reset() override {
    MinimalFu::reset();
    for (Entry& e : entries_) {
      e = Entry{};
    }
  }

 private:
  struct Entry {
    isa::Word key = 0;
    isa::Word value = 0;
    bool valid = false;
  };

  StatelessOut execute(isa::VarietyCode variety, isa::Word key,
                       isa::Word new_value) {
    isa::Word value = 0;
    bool hit = false;
    bool error = false;
    switch (variety) {
      case kClear:
        for (Entry& e : entries_) {
          e.valid = false;
        }
        break;
      case kInsert: {
        Entry* slot = find(key);
        if (slot == nullptr) {
          for (Entry& e : entries_) {
            if (!e.valid) {
              slot = &e;
              break;
            }
          }
        }
        if (slot == nullptr) {
          error = true;  // table full: destination undefined by convention
        } else {
          slot->key = key;
          slot->value = new_value;
          slot->valid = true;
          hit = true;
        }
        break;
      }
      case kErase:
        if (Entry* e = find(key)) {
          e->valid = false;
          hit = true;
        }
        break;
      case kLookup:
        if (const Entry* e = find(key)) {
          value = e->value;
          hit = true;
        }
        break;
      case kCount:
        for (const Entry& e : entries_) {
          value += e.valid ? 1 : 0;
        }
        hit = value != 0;
        break;
      default:
        error = true;
        break;
    }
    isa::FlagWord flags = isa::FlagWord{1}
                          << (hit ? isa::flag::kCarry : isa::flag::kZero);
    if (error) {
      flags |= isa::FlagWord{1} << isa::flag::kError;
    }
    return StatelessOut{value, flags, /*write_data=*/true,
                        /*write_flags=*/true};
  }

  Entry* find(isa::Word key) {
    for (Entry& e : entries_) {
      if (e.valid && e.key == key) {
        return &e;
      }
    }
    return nullptr;
  }

  std::vector<Entry> entries_;
};

}  // namespace fpgafu::fu
