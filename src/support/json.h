// JSON string escaping for every writer of JSON text: the Chrome trace
// export, the tuning cache and the bench result files. One escaper, so
// each of them emits a valid JSON string for any byte: a quote, a
// backslash and every control character below 0x20 are escaped.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace simtomp {

/// `text` as the body of a JSON string literal (without the quotes).
/// Bytes from 0x20 up pass through unchanged, so UTF-8 stays UTF-8.
[[nodiscard]] inline std::string jsonEscaped(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace simtomp
