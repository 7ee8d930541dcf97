#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fu/pipelined_fu.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace fpgafu::fu {

/// Blocked matrix-multiply functional unit built on the thesis §2.3.4
/// *performance-optimised* (pipelined) skeleton, PipelineCore: an in-order
/// command pipeline in front of an output FIFO, with destination
/// bookkeeping reserved at dispatch time so the FIFO can never overflow and
/// the datapath never stalls.
///
/// The unit holds three block-RAM panels — A (m×k), B (k×n) and a C
/// accumulator (m×n) — sized at construction.  A host-side blocking driver
/// streams panels in, triggers a compute sweep, and reads the C block back,
/// tiling a larger GEMM out of these block operations (the shape of the
/// HPC Challenge GEMM kernel on an FPGA with limited on-chip memory).
///
/// Operations (variety code; address in operand1, data in operand2):
///   kConfig — set the active block dims from operand1
///             (m = bits [23:16], n = [15:8], k = [7:0]); error when a dim
///             is zero or exceeds the constructed capacity;
///   kLoadA  — A[addr] <- data (row-major m×k);   result = data;
///   kLoadB  — B[addr] <- data (row-major k×n);   result = data;
///   kStart  — C[i][j] += Σ_p A[i][p]·B[p][j] over the active dims;
///             result = the number of MACs performed (m·n·k);
///   kReadC  — result = C[addr];
///   kClearC — every C word <- 0 (hardware clear);  result = 0.
/// Out-of-range addresses and unknown varieties set the error flag
/// (destination contents undefined).
///
/// Timing: the command pipeline has `pipeline_depth` register stages and
/// initiation interval 1, so loads/reads stream at one per cycle after the
/// fill.  kStart occupies the MAC pipeline for `pipeline_depth + m·n·k`
/// cycles — a fully pipelined multiply-accumulate datapath retiring one
/// MAC per clock after the fill; the sweep length is fixed at accept, from
/// the dims of the last valid kConfig accepted ahead of it (in flight or
/// retired), which are the dims the sweep computes with.  Commands retire
/// strictly in order, so a load issued behind a kStart mutates its panel
/// only after the sweep has used the old contents (sequential consistency
/// for the host driver).
class GemmUnit : public PipelineCore {
 public:
  static constexpr isa::VarietyCode kConfig = 0x01;
  static constexpr isa::VarietyCode kLoadA = 0x02;
  static constexpr isa::VarietyCode kLoadB = 0x03;
  static constexpr isa::VarietyCode kStart = 0x04;
  static constexpr isa::VarietyCode kReadC = 0x05;
  static constexpr isa::VarietyCode kClearC = 0x06;

  /// Pack block dims into a kConfig operand1 word.
  static constexpr isa::Word config_word(std::size_t m, std::size_t n,
                                         std::size_t k) {
    return (static_cast<isa::Word>(m & 0xff) << 16) |
           (static_cast<isa::Word>(n & 0xff) << 8) |
           static_cast<isa::Word>(k & 0xff);
  }

  GemmUnit(sim::Simulator& sim, std::string name, std::size_t max_m,
           std::size_t max_n, std::size_t max_k,
           std::uint32_t pipeline_depth = 4, std::size_t fifo_capacity = 8,
           unsigned width = 64)
      : PipelineCore(sim, std::move(name), pipeline_depth, fifo_capacity),
        a_(max_m * max_k, 0),
        b_(max_k * max_n, 0),
        c_(max_m * max_n, 0),
        max_m_(max_m),
        max_n_(max_n),
        max_k_(max_k),
        m_(max_m),
        n_(max_n),
        k_(max_k),
        accepted_macs_(max_m * max_n * max_k),
        width_(width) {
    check(max_m >= 1 && max_n >= 1 && max_k >= 1,
          "GEMM block capacities must all be >= 1");
    check(max_m <= 255 && max_n <= 255 && max_k <= 255,
          "GEMM block capacities must fit the 8-bit kConfig dim fields");
  }

  std::size_t m() const { return m_; }
  std::size_t n() const { return n_; }
  std::size_t k() const { return k_; }

  /// Direct test/debug access (the host path goes through instructions).
  isa::Word peek_a(std::size_t addr) const { return a_.at(addr); }
  isa::Word peek_b(std::size_t addr) const { return b_.at(addr); }
  isa::Word peek_c(std::size_t addr) const { return c_.at(addr); }

  void reset() override {
    PipelineCore::reset();
    a_.assign(a_.size(), 0);
    b_.assign(b_.size(), 0);
    c_.assign(c_.size(), 0);
    m_ = max_m_;
    n_ = max_n_;
    k_ = max_k_;
    accepted_macs_ = max_m_ * max_n_ * max_k_;
  }

 private:
  struct Dims {
    std::size_t m, n, k;
  };

  /// The block dims a kConfig operand names.
  static Dims decode(isa::Word word) {
    return {static_cast<std::size_t>((word >> 16) & 0xff),
            static_cast<std::size_t>((word >> 8) & 0xff),
            static_cast<std::size_t>(word & 0xff)};
  }

  /// True when every dim is non-zero and within the constructed capacity.
  bool fits(const Dims& d) const {
    return d.m >= 1 && d.n >= 1 && d.k >= 1 && d.m <= max_m_ &&
           d.n <= max_n_ && d.k <= max_k_;
  }

  std::uint64_t latency(const FuRequest& req) override {
    if (req.variety == kConfig) {
      const Dims d = decode(req.operand1);
      if (fits(d)) {
        accepted_macs_ = static_cast<std::uint64_t>(d.m) * d.n * d.k;
      }
    }
    if (req.variety == kStart) {
      // Pipelined MAC datapath: fill + one MAC retired per clock.
      return depth() + accepted_macs_;
    }
    return depth();
  }

  /// Execute a command at retirement.  All architectural state (panels,
  /// accumulator, active dims) mutates here, in retirement order.
  FuResult retire(const FuRequest& req) override {
    const isa::Word addr = req.operand1;
    const isa::Word data = req.operand2 & bits::mask(width_);
    isa::Word result = 0;
    bool error = false;
    switch (req.variety) {
      case kConfig: {
        const Dims d = decode(addr);
        if (fits(d)) {
          m_ = d.m;
          n_ = d.n;
          k_ = d.k;
          result = config_word(d.m, d.n, d.k);
        } else {
          error = true;  // active dims unchanged
        }
        break;
      }
      case kLoadA:
        if (addr < m_ * k_) {
          a_[addr] = data;
          result = data;
        } else {
          error = true;
        }
        break;
      case kLoadB:
        if (addr < k_ * n_) {
          b_[addr] = data;
          result = data;
        } else {
          error = true;
        }
        break;
      case kStart: {
        const std::uint64_t msk = bits::mask(width_);
        for (std::size_t i = 0; i < m_; ++i) {
          for (std::size_t j = 0; j < n_; ++j) {
            isa::Word acc = c_[i * n_ + j];
            for (std::size_t p = 0; p < k_; ++p) {
              acc = (acc + a_[i * k_ + p] * b_[p * n_ + j]) & msk;
            }
            c_[i * n_ + j] = acc;
          }
        }
        result = static_cast<isa::Word>(m_) * n_ * k_;
        break;
      }
      case kReadC:
        if (addr < m_ * n_) {
          result = c_[addr];
        } else {
          error = true;
        }
        break;
      case kClearC:
        c_.assign(c_.size(), 0);
        result = 0;
        break;
      default:
        error = true;
        break;
    }
    return stateless_result(req, word_out(result, error));
  }

  std::vector<isa::Word> a_;
  std::vector<isa::Word> b_;
  std::vector<isa::Word> c_;
  std::size_t max_m_;
  std::size_t max_n_;
  std::size_t max_k_;
  std::size_t m_;
  std::size_t n_;
  std::size_t k_;
  /// m·n·k of the last valid kConfig accepted: the next kStart's sweep.
  std::uint64_t accepted_macs_;
  unsigned width_;
};

}  // namespace fpgafu::fu
