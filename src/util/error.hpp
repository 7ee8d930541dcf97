#pragma once

#include <stdexcept>
#include <string>

namespace fpgafu {

/// Error raised when the simulated hardware model itself is misused or
/// reaches an impossible state (combinational loop, watchdog timeout,
/// out-of-range register index, ...).  Configuration errors made by the
/// user of the library also surface as SimError.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// Throw SimError(message).  Out of line and cold, so a check() inlines to
/// one compare and the optimiser knows a failed check does not return.
[[noreturn, gnu::cold, gnu::noinline]] inline void fail(const char* message) {
  throw SimError(message);
}

/// Throw SimError if `cond` is false.  Used for precondition checks on the
/// public API; internal invariants use assert-style checks as well so that
/// misbehaviour is caught in release builds too (this is a simulator, and a
/// silently-wrong cycle count is worse than an abort).
///
/// Never build a message on the pass path.  A literal binds to the
/// `const char*` overload and costs one compare when the check passes; the
/// `std::string` overload is for cold paths whose message is already a
/// string.  Where the message needs formatting (`+`, `std::to_string`),
/// write `if (!cond) throw SimError(...)` so the string is only built on
/// failure — per-cycle code must not allocate.
inline void check(bool cond, const char* message) {
  if (!cond) {
    fail(message);
  }
}

inline void check(bool cond, const std::string& message) {
  if (!cond) {
    throw SimError(message);
  }
}

}  // namespace fpgafu
