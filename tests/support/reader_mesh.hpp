#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/component.hpp"
#include "sim/signal.hpp"

namespace fpgafu::testing {

/// One node of a ReaderMesh: a registered state word, an output driven
/// from it and from one other node's output (read in eval()), and a second
/// node's output sampled only in commit().
class MeshNode : public sim::Component {
 public:
  explicit MeshNode(sim::Simulator& s) : Component(s, "mesh"), out(s) {}

  sim::Wire<std::uint32_t> out;
  const sim::Wire<std::uint32_t>* eval_in = nullptr;  ///< nullptr: none
  const sim::Wire<std::uint32_t>* commit_in = nullptr;
  bool source = false;  ///< free-running: advances every cycle
  std::uint64_t evals = 0;
  std::uint64_t commits = 0;

  void eval() override {
    ++evals;
    const std::uint32_t in = eval_in != nullptr ? eval_in->get() : 0;
    out.set((state_ * 0x9e3779b1u) ^ (in >> 3));
  }
  void commit() override {
    ++commits;
    const std::uint32_t in = commit_in->get();
    if (source) {
      ++state_;
      mark_active();
    } else if ((in & 15u) == (state_ & 15u)) {
      state_ += in | 1u;  // odd, so the state always changes
      mark_active();
    }
  }
  void reset() override {
    state_ = 0;
    out.reset();
  }
  std::uint32_t state() const { return state_; }

 private:
  std::uint32_t state_ = 0;
};

/// `n` MeshNodes spread over several bitmap words, wired so that readers
/// and the wires they read sit in different words, in both directions.
/// Node `index(r)` has rank r (a permutation of the indices).  Ranks form
/// combinational chains of four — rank r reads rank r-1 in eval() unless
/// r is a multiple of four — and rank r samples the head of a chain half
/// the mesh away in commit() only.  Ranks 3 mod 4 end their chains and are
/// read by nobody: leaves, which can be destroyed mid-run.  Rank 0 is the
/// one free-running source; activity spreads from it.
struct ReaderMesh {
  static constexpr std::size_t kStride = 37;  ///< coprime with n

  std::vector<std::unique_ptr<MeshNode>> nodes;

  ReaderMesh(sim::Simulator& sim, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<MeshNode>(sim));
    }
    for (std::size_t r = 0; r < n; ++r) {
      MeshNode& node = at_rank(r);
      node.source = r == 0;
      if (r % 4 != 0) {
        node.eval_in = &at_rank(r - 1).out;
      }
      node.commit_in = &at_rank((r + n / 2) % n / 4 * 4).out;
    }
  }

  std::size_t index(std::size_t rank) const {
    return rank * kStride % nodes.size();
  }
  MeshNode& at_rank(std::size_t rank) { return *nodes[index(rank)]; }
  bool leaf(std::size_t i) const {
    for (std::size_t r = 0; r < nodes.size(); ++r) {
      if (index(r) == i) {
        return r % 4 == 3;
      }
    }
    return false;
  }

  /// Every live node's state and output, in index order.
  std::vector<std::uint32_t> snapshot() const {
    std::vector<std::uint32_t> v;
    for (const auto& node : nodes) {
      if (node != nullptr) {
        v.push_back(node->state());
        v.push_back(node->out.peek());
      }
    }
    return v;
  }
};

}  // namespace fpgafu::testing
