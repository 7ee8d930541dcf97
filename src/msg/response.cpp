#include "msg/response.hpp"

#include <cstdio>

#include "util/bits.hpp"

namespace fpgafu::msg {

LinkWord Response::check_word(LinkWord header, LinkWord payload_hi,
                              LinkWord payload_lo, std::uint16_t burst) {
  std::uint16_t crc = 0xffff;
  crc = bits::crc16_word(crc, header);
  crc = bits::crc16_word(crc, payload_hi);
  crc = bits::crc16_word(crc, payload_lo);
  crc = bits::crc16_byte_lut(crc, static_cast<std::uint8_t>(burst >> 8));
  crc = bits::crc16_byte_lut(crc, static_cast<std::uint8_t>(burst));
  return (static_cast<LinkWord>(burst) << 16) | crc;
}

std::array<LinkWord, 4> Response::to_link_words() const {
  const LinkWord header = (static_cast<LinkWord>(type) << 24) |
                          (static_cast<LinkWord>(code) << 16) |
                          static_cast<LinkWord>(seq);
  const LinkWord hi = static_cast<LinkWord>(payload >> 32);
  const LinkWord lo = static_cast<LinkWord>(payload & 0xffffffffu);
  return {header, hi, lo, check_word(header, hi, lo, burst)};
}

Response Response::from_link_words(const std::array<LinkWord, 4>& words) {
  Response r;
  r.type = static_cast<Type>((words[0] >> 24) & 0xff);
  r.code = static_cast<std::uint8_t>((words[0] >> 16) & 0xff);
  r.seq = static_cast<std::uint16_t>(words[0] & 0xffff);
  r.payload = (static_cast<isa::Word>(words[1]) << 32) | words[2];
  r.burst = static_cast<std::uint16_t>(words[3] >> 16);
  return r;
}

bool Response::frame_ok(const std::array<LinkWord, 4>& words) {
  const auto burst = static_cast<std::uint16_t>(words[3] >> 16);
  return check_word(words[0], words[1], words[2], burst) == words[3];
}

std::string to_string(const Response& r) {
  char buf[112];
  const char* type = "?";
  switch (r.type) {
    case Response::Type::kData: type = "DATA"; break;
    case Response::Type::kFlags: type = "FLAGS"; break;
    case Response::Type::kSyncDone: type = "SYNC"; break;
    case Response::Type::kError: type = "ERROR"; break;
  }
  std::snprintf(buf, sizeof buf,
                "%s seq=%u.%u code=0x%02x payload=0x%llx", type, r.seq,
                r.burst, r.code, static_cast<unsigned long long>(r.payload));
  return buf;
}

}  // namespace fpgafu::msg
