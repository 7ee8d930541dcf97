#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "msg/response.hpp"
#include "sim/component.hpp"
#include "sim/counters.hpp"
#include "sim/handshake.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"

namespace fpgafu::msg {

/// Timing of one link direction.
///
/// `latency` is the flight time of a word in cycles; `interval` is the
/// minimum number of cycles between successive word transfers (1 = a word
/// every cycle).  A slow serial prototyping-board connection is a large
/// interval; a tightly integrated FPGA/CPU fabric is latency ~1, interval 1.
struct LinkTiming {
  std::uint32_t latency = 1;
  std::uint32_t interval = 1;
};

/// Named timing presets used across benchmarks and examples.
struct LinkPreset {
  const char* name;
  LinkTiming timing;
};

/// Tightly coupled fabric (paper: "there are FPGAs that are tightly
/// integrated with processors, offering extremely high transfer rates").
inline constexpr LinkPreset kTightLink{"tight", {1, 1}};
/// Burst-oriented bus (PCIe-like: high latency, full throughput).
inline constexpr LinkPreset kBurstLink{"burst", {64, 1}};
/// Slow serial prototyping-board connection (the paper's actual testbed:
/// "only a very slow connection from the FPGA board to the processor was
/// available").
inline constexpr LinkPreset kSerialLink{"serial", {4, 32}};

/// Per-direction fault rates.  Rates are in parts-per-million per word so
/// integer arithmetic stays exact; `jitter_max` is the largest extra flight
/// latency (cycles) added uniformly at random to each word.
struct FaultRates {
  std::uint32_t drop_ppm = 0;
  std::uint32_t corrupt_ppm = 0;
  std::uint32_t duplicate_ppm = 0;
  std::uint32_t jitter_max = 0;
};

/// Seeded fault injection for a Link.  The default (all rates zero) never
/// faults and draws no random numbers.
struct FaultConfig {
  std::uint64_t seed = 0x5eedULL;
  FaultRates down;  ///< host -> FPGA
  FaultRates up;    ///< FPGA -> host
};

/// The interface circuitry: a full-duplex transceiver between the host CPU
/// (software side, called between simulation steps) and the FPGA-side
/// message buffer / serialiser (handshaked wire ports).
///
/// The paper treats this block as replaceable COTS IP; here it is a single
/// parameterised model whose timing spans the spectrum the paper discusses.
/// Both directions may carry bounded transfer buffers (`down_capacity` /
/// `up_capacity`, 0 = unbounded): a full downstream buffer rejects
/// `host_send` (the host must retry), a full upstream buffer deasserts
/// `tx.ready` so backpressure propagates into the serialiser.
///
/// The link can also inject word-level transport faults, configured per
/// direction by `FaultConfig`: drops, single-bit corruption, duplication
/// and latency jitter.  All randomness comes from one generator seeded from
/// `FaultConfig::seed` and shared by both directions, so a given (seed,
/// traffic) pair always produces the same fault pattern — soak failures
/// replay exactly.  Per word: jitter first, then drop, else corrupt, else
/// duplicate.  A disabled fault class draws no random numbers, so enabling
/// one class does not perturb the pattern of another, and a link with every
/// rate at zero never draws at all.  A dropped word still consumes its
/// departure slot; jitter never reorders a direction (arrival times are
/// clamped monotonic).
class Link : public sim::Component {
 public:
  Link(sim::Simulator& sim, std::string name, LinkTiming down_timing,
       LinkTiming up_timing, std::size_t down_capacity = 0,
       std::size_t up_capacity = 0, FaultConfig faults = {});

  /// FPGA-side ports.
  sim::Handshake<LinkWord> rx;  ///< link -> message buffer (downstream data)
  sim::Handshake<LinkWord> tx;  ///< message serialiser -> link (upstream)

  /// Host-side software API -------------------------------------------------
  /// Queue a word for transmission to the FPGA.  Returns false (and queues
  /// nothing) when the bounded downstream buffer is full; the caller must
  /// step the simulation and retry.
  bool host_send(LinkWord word);

  /// Downstream buffer slots currently free (SIZE_MAX when unbounded).
  std::size_t host_space() const;

  /// True when `host_send` would accept a word right now.
  bool host_ready() const { return host_space() > 0; }

  /// Pop the next word that has *arrived* at the host (flight time elapsed).
  std::optional<LinkWord> host_receive();

  /// Move every word that has arrived at the host into `out`, in order;
  /// returns how many moved.  One call drains what a loop of host_receive()
  /// would.
  std::size_t host_receive_all(CompactingQueue<LinkWord>& out);

  /// Words currently arrived and waiting at the host.
  std::size_t host_available() const;

  /// Downstream words sent by the host and not yet taken by the FPGA.
  std::size_t down_pending() const { return dirs_[kDown].queue.size(); }

  /// Upstream words in flight or arrived but not yet received by the host.
  std::size_t up_pending() const { return dirs_[kUp].queue.size(); }

  /// Cycle at which the `n`-th upstream word not yet received (1-based)
  /// reaches the host, or UINT64_MAX when fewer than `n` are on the way.
  /// Words the serialiser has not handed over yet are not counted: they
  /// can only be added by a later clock edge.
  std::uint64_t host_arrival(std::size_t n) const {
    const Path& up = dirs_[kUp];
    return n == 0 || n > up.queue.size() ? ~std::uint64_t{0}
                                         : up.queue[n - 1].arrives_at;
  }

  /// True when the upstream buffer is bounded: then every word the host
  /// receives frees a slot the serialiser may be waiting for.
  bool up_bounded() const { return dirs_[kUp].capacity != 0; }

  /// True when no word is in flight or queued in either direction.
  bool drained() const;

  /// Total words moved in each direction (for bandwidth accounting):
  /// downstream words delivered to the FPGA, upstream words accepted from
  /// the serialiser.
  std::uint64_t words_down() const { return dirs_[kDown].words; }
  std::uint64_t words_up() const { return dirs_[kUp].words; }
  /// host_send calls rejected by a full downstream buffer.
  std::uint64_t send_rejects() const { return send_rejects_; }

  /// Injection statistics: link.{down,up}_{dropped,corrupted,duplicated}.
  const sim::Counters& fault_counters() const { return counters_; }

  void eval() override;
  void commit() override;
  void reset() override;

 private:
  enum Dir : std::size_t { kDown = 0, kUp = 1 };

  struct InFlight {
    LinkWord word;
    std::uint64_t arrives_at;
  };

  /// One direction of the link.
  struct Path {
    LinkTiming timing;
    std::size_t capacity = 0;  ///< 0 = unbounded
    FaultRates faults;
    CompactingQueue<InFlight> queue;
    std::uint64_t next_slot = 0;  ///< earliest cycle the next word may depart
    std::uint64_t words = 0;
    sim::Counters::Handle dropped = 0;
    sim::Counters::Handle corrupted = 0;
    sim::Counters::Handle duplicated = 0;

    bool full() const { return capacity != 0 && queue.size() >= capacity; }

    /// Append with a monotonic arrival clamp so per-word jitter cannot
    /// reorder the FIFO.
    void push(LinkWord word, std::uint64_t arrives_at) {
      if (!queue.empty()) {
        arrives_at = std::max(arrives_at, queue.back().arrives_at);
      }
      queue.push_back({word, arrives_at});
    }
  };

  /// Send `word` into `dir` at cycle `depart`: take the departure slot,
  /// draw the faults, and queue the word (and its duplicate) for arrival.
  void launch(Dir dir, LinkWord word, std::uint64_t depart);

  std::uint64_t seed_;
  Xoshiro256 rng_;
  sim::Counters counters_;
  Path dirs_[2];
  std::uint64_t send_rejects_ = 0;
};

}  // namespace fpgafu::msg
