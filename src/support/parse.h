// Range-checked parsing of the unsigned integers in knob, clause,
// fault-plan, mix, fuzz-program and tuning-cache text. One parser for
// every text surface, so none of them can wrap around: "4294967328"
// must be rejected where a uint32_t is expected, not silently become
// 32.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "support/status.h"

namespace simtomp {

/// `text` in single quotes, for diagnostics. Built by appending: GCC 12
/// at -O3 misreports `"'" + std::string(...)` as a -Wrestrict overlap.
[[nodiscard]] inline std::string quoted(std::string_view text) {
  std::string out = "'";
  out += text;
  out += '\'';
  return out;
}

/// Parse `text` as a decimal unsigned integer no greater than `max`.
/// Only the digits 0-9 are accepted (no sign, no whitespace). Empty or
/// non-digit text is kInvalidArgument; a value above `max` (including
/// one that does not fit 64 bits) is kOutOfRange.
[[nodiscard]] inline Result<uint64_t> parseUnsigned(std::string_view text,
                                                    uint64_t max = UINT64_MAX) {
  if (text.empty()) return Status::invalidArgument("expected a number");
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return Status::invalidArgument(quoted(text) +
                                     " is not an unsigned integer");
    }
    const auto digit = static_cast<uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) {
      return Status::outOfRange(quoted(text) + " exceeds " +
                                std::to_string(max));
    }
    value = value * 10 + digit;
  }
  return value;
}

/// parseUnsigned capped at the width of `out`, the field the number is
/// stored in; `out` is left unchanged on error.
template <typename T>
[[nodiscard]] Status parseUnsignedInto(std::string_view text, T& out) {
  static_assert(std::is_unsigned_v<T>);
  const Result<uint64_t> value =
      parseUnsigned(text, std::numeric_limits<T>::max());
  if (!value.isOk()) return value.status();
  out = static_cast<T>(value.value());
  return Status::ok();
}

}  // namespace simtomp
