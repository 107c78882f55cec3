// Table-driven command-line flags for the simtomp binary.
//
// Each subcommand declares its flags as a table of Flag rows: a name
// and a destination. The destination's type picks the parser and
// its width bounds the value, so one parser serves every subcommand:
//
//   - `--f V` and `--f=V` are the same; a bool flag takes no value;
//   - integers go through parseUnsigned, capped by Flag::max and by
//     the destination's width (u32 flags reject 4294967296);
//   - a seed range is `N` (meaning [N, N+1)) or half-open `A..B`;
//   - a knob-typed flag (--workers, --check) parses through its knob
//     row with gpusim::matchKnob, the matcher the environment uses;
//     text the row does not recognize is an error here, not the
//     environment's silent fallback to the built-in value.
//
// Words that do not start with "--" are positional arguments.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "gpusim/knobs.h"
#include "support/status.h"

namespace simtomp::cli {

/// A half-open seed range [begin, end).
struct SeedRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// A flag whose text is one of a knob row's spellings.
template <typename T>
struct KnobFlag {
  const gpusim::Knob<T>* knob;
  T* dest;
};

/// Where a flag's value lands; the alternative selects the parser.
using FlagDest =
    std::variant<bool*, std::string*, uint32_t*, uint64_t*, SeedRange*,
                 KnobFlag<uint32_t>, KnobFlag<simcheck::CheckMode>>;

struct Flag {
  const char* name;  ///< including the leading "--"
  FlagDest dest;
  /// Inclusive bound of an integer flag, on top of the destination's.
  uint64_t max = UINT64_MAX;
};

/// Parse `text` as `N` ([N, N+1)) or `A..B` ([A, B), B >= A).
[[nodiscard]] Result<SeedRange> parseSeedRange(std::string_view text);

/// Apply `args` to `flags`, appending positional words to `positional`.
/// Unknown flags, missing or malformed values and out-of-range numbers
/// are kInvalidArgument/kOutOfRange errors naming the flag.
[[nodiscard]] Status parseFlags(std::span<const std::string_view> args,
                                std::span<const Flag> flags,
                                std::vector<std::string_view>& positional);

}  // namespace simtomp::cli
