#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fpgafu::sim {

/// Named monotonically increasing counters for cycle statistics
/// (instructions dispatched, stalls, arbiter conflicts, ...).  Benchmarks
/// read these to report utilisation the way the paper discusses pipeline
/// behaviour.
///
/// Names are interned: `handle()` resolves a name to a dense index once,
/// and `bump(Handle)` is a plain vector increment.  Per-cycle code (the
/// dispatcher's stall accounting, the write arbiter's retirement counters)
/// interns its handles at construction so the hot path never hashes a
/// string.  The string overloads remain for cold paths and tests.
class Counters {
 public:
  using Handle = std::uint32_t;

  /// Intern `name`, creating the counter at zero if new.  Handles stay
  /// valid for the lifetime of this Counters object (clear() zeroes values
  /// but keeps the name table).
  Handle handle(std::string_view name) {
    auto it = index_.find(name);
    if (it != index_.end()) {
      return it->second;
    }
    const Handle h = static_cast<Handle>(values_.size());
    names_.emplace_back(name);
    values_.push_back(0);
    index_.emplace(names_.back(), h);
    return h;
  }

  void bump(Handle h, std::uint64_t by = 1) { values_[h] += by; }
  void bump(const std::string& name, std::uint64_t by = 1) {
    bump(handle(name), by);
  }

  std::uint64_t get(Handle h) const { return values_[h]; }
  std::uint64_t get(std::string_view name) const {
    auto it = index_.find(name);
    return it == index_.end() ? 0 : values_[it->second];
  }

  const std::string& name(Handle h) const { return names_[h]; }
  std::size_t size() const { return values_.size(); }

  /// Materialised name -> value view (sorted, zero entries included).
  std::map<std::string, std::uint64_t> all() const {
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < values_.size(); ++i) {
      out.emplace(names_[i], values_[i]);
    }
    return out;
  }

  /// Add every counter from `other` into this one, matching by name and
  /// creating counters that do not exist here yet.  Handles interned on
  /// this object before the merge remain valid and keep their names: a
  /// merge only appends to the name table, never reorders it.  This is how
  /// host::Farm aggregates per-shard statistics into one fleet-wide view.
  void merge(const Counters& other) {
    for (std::size_t i = 0; i < other.values_.size(); ++i) {
      bump(handle(other.names_[i]), other.values_[i]);
    }
  }

  /// An independent by-value copy.  Counter owners hand snapshots across
  /// thread boundaries (under their own locking) instead of sharing live
  /// objects; the copy's handles are its own.
  Counters snapshot() const { return *this; }

  /// Zero every counter.  Interned handles remain valid.
  void clear() { values_.assign(values_.size(), 0); }

 private:
  /// Heterogeneous lookup so get(string_view) does not allocate.
  std::map<std::string, Handle, std::less<>> index_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> values_;
};

}  // namespace fpgafu::sim
