#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace fpgafu::xsort {

/// Balanced-binary-tree fold, mirroring the interior-node network of paper
/// Fig. 8: "a logarithmic height tree is used to compute the count of SIMD
/// cells whose selection flag register is set and to select a pivot element
/// having an imprecise interval.  Both operations are associative and can
/// therefore be realised with logarithmic delay in hardware."
///
/// The model evaluates the same tree shape a synthesiser would build —
/// pairwise combination over ceil(log2 n) levels — so associativity bugs
/// (a combine that silently depends on fold order) surface in tests, and
/// the depth is available for the area/latency model.
///
/// The fold runs in place: each tree level is combined into the front of
/// `level`, whose contents are consumed.  A caller that keeps the buffer
/// across calls folds without allocating.
template <typename T, typename Combine>
T tree_fold(std::span<T> level, T identity, Combine combine,
            unsigned* depth_out = nullptr) {
  unsigned depth = 0;
  std::size_t n = level.size();
  while (n > 1) {
    // Slot i / 2 is written only after slots up to i - 1 were read.
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      level[i / 2] = combine(level[i], level[i + 1]);
    }
    if (n % 2 == 1) {
      level[n / 2] = level[n - 1];
    }
    n = (n + 1) / 2;
    ++depth;
  }
  if (depth_out != nullptr) {
    *depth_out = depth;
  }
  return n == 0 ? identity : level.front();
}

/// Leaf payload for "leftmost matching cell" selections: the tree keeps the
/// left operand whenever it is valid, so the root holds the leftmost match.
struct Leftmost {
  bool valid = false;
  std::size_t index = 0;
  std::uint64_t data = 0;
  std::uint64_t lower = 0;
  std::uint64_t upper = 0;
};

inline Leftmost leftmost_combine(const Leftmost& a, const Leftmost& b) {
  return a.valid ? a : b;
}

}  // namespace fpgafu::xsort
