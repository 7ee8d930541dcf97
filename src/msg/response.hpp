#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "isa/rtm_ops.hpp"
#include "isa/types.hpp"

namespace fpgafu::msg {

/// Physical-layer transfer unit.  The link moves 32-bit words, matching the
/// paper's register file granularity ("configurable in multiples of 32
/// bits") and typical COTS transceiver widths.
using LinkWord = std::uint32_t;

/// Host-to-FPGA framing: each 64-bit stream word travels as two link words,
/// most significant first.
inline constexpr unsigned kLinkWordsPerStreamWord = 2;

/// Error codes carried in error responses.
enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kUnknownFunction = 1,  ///< no functional unit registered for the code
  kBadRegister = 2,      ///< register number exceeds the configured file size
  kTruncatedPut = 3,     ///< stream ended before a PUT's data word
  kUnitUnavailable = 5,  ///< the function code is *known* but its unit is
                         ///< currently detached, draining or loading (FU
                         ///< hot-swap in progress) — retry after the swap,
                         ///< unlike kUnknownFunction which is permanent
};

/// One message from the coprocessor back to the host.  The message encoder
/// multiplexes "several types of message ... including data records and flag
/// vectors ... into a single standard vector of signals" (paper §III);
/// this struct is that standard vector.
struct Response {
  enum class Type : std::uint8_t {
    /// payload = register value (GET)
    kData = static_cast<std::uint8_t>(isa::Reply::kData),
    /// code = flag vector (GETF)
    kFlags = static_cast<std::uint8_t>(isa::Reply::kFlags),
    /// barrier completed (SYNC)
    kSyncDone = static_cast<std::uint8_t>(isa::Reply::kSyncDone),
    kError = 0x7f,  ///< code = ErrorCode; seq identifies the instruction
  };

  Type type = Type::kData;
  std::uint8_t code = 0;  ///< flag vector or error code
  std::uint16_t seq = 0;  ///< response sequence number (issue order)
  isa::Word payload = 0;
  /// Sub-response index within a GETV burst (all sub-responses share the
  /// header instruction's seq; this field disambiguates them so the host
  /// can detect a duplicated or missing sub-response).  0 outside bursts.
  std::uint16_t burst = 0;

  bool operator==(const Response&) const = default;

  /// Serialise to the four link words the message serialiser transmits:
  /// header {type, code, seq}, payload high half, payload low half, and a
  /// check word {burst index, CRC-16 over the preceding three words and
  /// the burst index}.
  std::array<LinkWord, 4> to_link_words() const;

  /// Reassemble from four link words (host-side deframer).  Does not
  /// validate; call frame_ok() first when the words came off a real link.
  static Response from_link_words(const std::array<LinkWord, 4>& words);

  /// True when the frame's check word matches its contents — a corrupted,
  /// torn or misaligned frame fails this with probability ~1 - 2^-16.
  static bool frame_ok(const std::array<LinkWord, 4>& words);

  /// The check word for a frame: (burst << 16) | crc16.
  static LinkWord check_word(LinkWord header, LinkWord payload_hi,
                             LinkWord payload_lo, std::uint16_t burst);
};

inline constexpr unsigned kLinkWordsPerResponse = 4;

std::string to_string(const Response& r);

}  // namespace fpgafu::msg
