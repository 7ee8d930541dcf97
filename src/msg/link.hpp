#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "msg/response.hpp"
#include "sim/component.hpp"
#include "sim/handshake.hpp"
#include "util/ring_buffer.hpp"

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
/// Subclasses can override `classify()` to perturb words in flight (see
/// `FaultyLink`); the base link never faults.
class Link : public sim::Component {
 public:
  Link(sim::Simulator& sim, std::string name, LinkTiming down_timing,
       LinkTiming up_timing, std::size_t down_capacity = 0,
       std::size_t up_capacity = 0);
  ~Link() override = default;

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

  /// Words currently arrived and waiting at the host.
  std::size_t host_available() const;

  /// True when no word is in flight or queued in either direction.
  bool drained() const;

  /// Diagnostic/test hook: make `word` appear on the host's receive side
  /// this cycle, as if the FPGA had sent it (used to forge frames in
  /// fault-handling tests).
  void inject_upstream(LinkWord word);

  /// Total words moved in each direction (for bandwidth accounting).
  std::uint64_t words_down() const { return words_down_; }
  std::uint64_t words_up() const { return words_up_; }
  /// host_send calls rejected by a full downstream buffer.
  std::uint64_t send_rejects() const { return send_rejects_; }

  void eval() override;
  void commit() override;
  void reset() override;

 protected:
  /// Verdict for one word crossing the link, produced by `classify`.
  /// `drop` discards the word (it still consumes its departure slot, so a
  /// never-faulting subclass is cycle-identical to the base link);
  /// `duplicate` sends the word twice back to back; `extra_latency` delays
  /// arrival (arrival order stays FIFO — jitter never reorders).
  struct Injection {
    bool drop = false;
    bool duplicate = false;
    std::uint32_t extra_latency = 0;
  };

  /// Fault-injection hook, called once per word as it enters the given
  /// direction (`downstream` true = host -> FPGA).  May rewrite `word` in
  /// place (bit corruption).  The base link never injects anything.
  virtual Injection classify(bool downstream, LinkWord& word) {
    (void)downstream;
    (void)word;
    return {};
  }

 private:
  struct InFlight {
    LinkWord word;
    std::uint64_t arrives_at;
  };

  /// Append with a monotonic arrival clamp so per-word jitter cannot
  /// reorder the FIFO.
  static void enqueue(CompactingQueue<InFlight>& queue, LinkWord word,
                      std::uint64_t arrives_at);

  LinkTiming down_;
  LinkTiming up_;
  std::size_t down_capacity_;  ///< 0 = unbounded
  std::size_t up_capacity_;    ///< 0 = unbounded
  CompactingQueue<InFlight> down_queue_;  ///< host -> FPGA
  CompactingQueue<InFlight> up_queue_;    ///< FPGA -> host
  std::uint64_t down_next_slot_ = 0;  ///< earliest cycle the next word may depart
  std::uint64_t up_next_slot_ = 0;
  std::uint64_t words_down_ = 0;
  std::uint64_t words_up_ = 0;
  std::uint64_t send_rejects_ = 0;
};

}  // namespace fpgafu::msg
