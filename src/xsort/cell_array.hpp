#pragma once

#include <cstdint>
#include <vector>

#include "xsort/tree.hpp"
#include "xsort/types.hpp"

namespace fpgafu::xsort {

/// The array of SIMD cells plus its interior-node tree (paper Fig. 8/9).
///
/// Each cell holds one datum, its index interval <lower, upper>, a
/// selection flag and a saved selection state; all cells execute the same
/// command in one clock cycle ("this capability enables the χ-sort
/// algorithm to recalculate the index interval of every data item in
/// parallel, at clock speeds").
///
/// Modelling note: the cells are stored vectorised in one object rather
/// than as n simulator components; the XsortUnit applies exactly one
/// command per clock cycle, so cycle-level behaviour is identical while
/// large arrays stay fast to simulate (DESIGN.md §2).  The tree queries are
/// combinational within the cycle, matching the thesis' single-cycle
/// log-depth folds.
class CellArray {
 public:
  explicit CellArray(const XsortConfig& config);

  std::size_t size() const { return data_.size(); }
  const XsortConfig& config() const { return config_; }

  /// Apply one cycle's command to every cell.  `broadcast` is the value on
  /// the shared broadcast bus (operand, pivot, or microcode literal).
  void apply(const CellCmd& cmd, std::uint64_t broadcast);

  // --- Tree queries (combinational; see tree.hpp) -------------------------
  std::uint64_t count_selected() const;
  std::uint64_t count_imprecise() const;
  /// Leftmost selected cell (valid=false when none).
  Leftmost first_selected() const;
  /// Leftmost cell with an imprecise interval (the thesis' pivot choice).
  Leftmost first_imprecise() const;
  /// Depth of the fold tree — exposed for the area/latency model.
  unsigned tree_depth() const;

  // --- Introspection for tests --------------------------------------------
  std::uint64_t data(std::size_t i) const { return data_.at(i); }
  std::uint64_t lower(std::size_t i) const { return lower_.at(i); }
  std::uint64_t upper(std::size_t i) const { return upper_.at(i); }
  bool selected(std::size_t i) const { return selected_.at(i) != 0; }
  bool saved(std::size_t i) const { return saved_.at(i) != 0; }

  void reset();

 private:
  XsortConfig config_;
  std::uint64_t data_mask_;
  std::uint64_t interval_mask_;
  std::vector<std::uint64_t> data_;
  std::vector<std::uint64_t> lower_;
  std::vector<std::uint64_t> upper_;
  std::vector<std::uint8_t> selected_;
  std::vector<std::uint8_t> saved_;
  /// Leaf buffers the tree queries fold in place (see tree_fold), kept so
  /// a query does not allocate.  Like the rest of the simulated hardware, a
  /// cell array belongs to one thread, so const queries may share them.
  mutable std::vector<std::uint64_t> count_leaves_;
  mutable std::vector<Leftmost> leftmost_leaves_;
};

}  // namespace fpgafu::xsort
