#include "xsort/cell_array.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace fpgafu::xsort {

CellArray::CellArray(const XsortConfig& config)
    : config_(config),
      data_mask_(bits::mask(config.data_bits)),
      interval_mask_(bits::mask(config.interval_bits)),
      data_(config.cells, 0),
      lower_(config.cells, 0),
      upper_(config.cells, 0),
      selected_(config.cells, 0),
      saved_(config.cells, 0),
      count_leaves_(config.cells, 0),
      leftmost_leaves_(config.cells) {
  check(config.cells >= 1, "cell array needs at least one cell");
  check(config.data_bits >= 1 && config.data_bits <= 64,
        "data_bits must be in [1, 64]");
  check(config.interval_bits >= 1 && config.interval_bits <= 32,
        "interval_bits must be in [1, 32]");
  check(bits::fits_unsigned(config.cells - 1, config.interval_bits),
        "interval_bits too narrow to index every cell");
}

void CellArray::reset() {
  data_.assign(data_.size(), 0);
  lower_.assign(lower_.size(), 0);
  upper_.assign(upper_.size(), 0);
  selected_.assign(selected_.size(), 0);
  saved_.assign(saved_.size(), 0);
}

void CellArray::apply(const CellCmd& cmd, std::uint64_t broadcast) {
  const std::uint64_t bcast_data = broadcast & data_mask_;
  const std::uint64_t bcast_ivl = broadcast & interval_mask_;
  const std::size_t n = data_.size();

  // Shift-load first: "load a single value received from the functional
  // unit adapter into the first SIMD cell, at the same time shifting the
  // data of all SIMD cells to the respective following cell" (thesis
  // §3.3.3).  Bounds and flags do not shift; loading happens before the
  // array is partitioned.
  if (cmd.load) {
    for (std::size_t i = n; i-- > 1;) {
      data_[i] = data_[i - 1];
    }
    data_[0] = bcast_data;
  }

  // Scan-based rank distribution: the interior nodes compute, for every
  // selected cell, the number of selected cells to its left (a parallel
  // prefix sum — paper Fig. 8's "parallel scans"); the cell then latches
  // base+prefix as its precise final position.  The model's running counter
  // is the sequential view of that scan.
  if (cmd.rank_selected) {
    std::uint64_t prefix = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (selected_[i] != 0) {
        const std::uint64_t rank = (bcast_ivl + prefix) & interval_mask_;
        lower_[i] = rank;
        upper_[i] = rank;
        ++prefix;
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    // Selection network.
    bool sel = selected_[i] != 0;
    if (cmd.select_all) {
      sel = true;
    }
    if (cmd.restore) {
      sel = saved_[i] != 0;
    }
    if (cmd.select_imprecise) {
      sel = lower_[i] != upper_[i];
    }
    if (cmd.match_data_lt) {
      sel = sel && data_[i] < bcast_data;
    }
    if (cmd.match_data_eq) {
      sel = sel && data_[i] == bcast_data;
    }
    if (cmd.match_data_gt) {
      sel = sel && data_[i] > bcast_data;
    }
    if (cmd.match_lower) {
      sel = sel && lower_[i] == bcast_ivl;
    }
    if (cmd.match_upper) {
      sel = sel && upper_[i] == bcast_ivl;
    }
    if (cmd.match_lower_i) {
      sel = sel && lower_[i] != bcast_ivl;
    }
    if (cmd.match_upper_i) {
      sel = sel && upper_[i] != bcast_ivl;
    }

    // Datapath writes gated by the (pre-update) selection flag, as in the
    // schematic: the registers' enables are driven from the current
    // reg_selected output.
    const bool enabled = selected_[i] != 0;
    if (cmd.set_lower && enabled) {
      lower_[i] = bcast_ivl;
    }
    if (cmd.set_upper && enabled) {
      upper_[i] = bcast_ivl;
    }
    if (cmd.set_bounds && enabled) {
      lower_[i] = bcast_ivl;
      upper_[i] = bcast_ivl;
    }
    if (cmd.load_selected && enabled) {
      data_[i] = bcast_data;
    }
    if (cmd.save) {
      saved_[i] = selected_[i];
    }

    selected_[i] = sel ? 1 : 0;
  }
}

namespace {

std::uint64_t add(std::uint64_t a, std::uint64_t b) { return a + b; }

}  // namespace

std::uint64_t CellArray::count_selected() const {
  for (std::size_t i = 0; i < data_.size(); ++i) {
    count_leaves_[i] = selected_[i];
  }
  return tree_fold<std::uint64_t>(count_leaves_, 0, add);
}

std::uint64_t CellArray::count_imprecise() const {
  for (std::size_t i = 0; i < data_.size(); ++i) {
    count_leaves_[i] = lower_[i] != upper_[i] ? 1 : 0;
  }
  return tree_fold<std::uint64_t>(count_leaves_, 0, add);
}

Leftmost CellArray::first_selected() const {
  for (std::size_t i = 0; i < data_.size(); ++i) {
    leftmost_leaves_[i] = {selected_[i] != 0, i, data_[i], lower_[i],
                           upper_[i]};
  }
  return tree_fold<Leftmost>(leftmost_leaves_, Leftmost{}, leftmost_combine);
}

Leftmost CellArray::first_imprecise() const {
  for (std::size_t i = 0; i < data_.size(); ++i) {
    leftmost_leaves_[i] = {lower_[i] != upper_[i], i, data_[i], lower_[i],
                           upper_[i]};
  }
  return tree_fold<Leftmost>(leftmost_leaves_, Leftmost{}, leftmost_combine);
}

unsigned CellArray::tree_depth() const {
  unsigned depth = 0;
  tree_fold<std::uint64_t>(count_leaves_, 0, add, &depth);
  return depth;
}

}  // namespace fpgafu::xsort
