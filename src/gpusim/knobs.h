// Launch options and the environment-knob table.
//
// Six host-side knobs ride every launch: host workers, simcheck,
// simfault plan, watchdog budget, simprof and the convergence fast
// path. LaunchOptions declares them once; gpusim::LaunchConfig,
// omprt::TargetConfig (and through it dsl::LaunchSpec) and
// simfuzz::RunOptions inherit it, and every layer hands the knobs on
// with one base-object assignment.
//
// Each knob that an environment variable can set is one Knob row
// below: env var, accepted spellings, built-in fallback and doc line.
// One resolver serves every row, with one precedence:
//
//   explicit (a non-auto request)  >  env var  >  built-in
//
// The env var is re-read on every resolution, so a process can flip
// a knob between launches. Unset and unrecognized env text both give
// the built-in value; unrecognized text also logs a warning. A
// resolved value is never auto, so resolving it again returns it
// unchanged: omprt, hostrt and gpusim may each resolve the same
// options.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "simcheck/report.h"
#include "simfault/fault.h"
#include "simfault/resilience.h"
#include "simprof/profile.h"
#include "support/log.h"

namespace simtomp::gpusim {

/// Convergence fast path (batched lane execution for hazard-free SIMD
/// bodies declared dsl::convergent). Modeled results are bit-identical
/// either way; only host wall-time changes.
enum class FastPathMode : uint8_t { kAuto, kOn, kOff };

/// How a launch wants autotuning (simtune/tuner.h).
enum class TuneMode : uint8_t {
  kAuto = 0,  ///< resolve from SIMTOMP_TUNE (default: off)
  kOff,       ///< auto fields resolve heuristically; no cache, no trials
  kCache,     ///< resolve from the tuning cache; miss -> heuristics
  kTune,      ///< resolve from the cache; miss -> run a trial search
};

/// The per-launch host knobs. None of them changes modeled cycles.
struct LaunchOptions {
  /// Host threads executing independent blocks (0 = auto; 1 = serial).
  uint32_t hostWorkers = 0;
  /// Correctness checking (simcheck). Findings land in
  /// Device::lastCheckReport(); kFatal also fails an unclean launch.
  simcheck::CheckConfig check{};
  /// Fault-injection plan (simfault); "" = auto, "off" pins it off.
  /// `fault.simdActive` is filled by omprt::launchTarget so when=simd
  /// plans can be evaluated at arm time.
  simfault::FaultConfig fault{};
  /// Per-block watchdog step budget (0 = auto; simfault::kWatchdogOff
  /// disables it). The budget check runs in the fiber scheduler loop.
  uint64_t watchdogSteps = 0;
  /// Hierarchical profiling (simprof) into Device::lastProfile().
  simprof::ProfileConfig profile{};
  /// Convergence fast path. Fault-armed blocks always take the
  /// lane-per-fiber path regardless of this setting.
  FastPathMode fastPath = FastPathMode::kAuto;
};

/// One accepted env spelling and the value it means.
template <typename T>
struct Spelling {
  const char* text;
  T value;
};

/// One row of the knob table.
template <typename T>
struct Knob {
  const char* env;
  const char* doc;
  /// The request value meaning "not set": resolve from env/built-in.
  T autoValue;
  /// Fallback for an unset or unrecognized env var (never autoValue).
  T (*builtin)();
  /// Fixed words, grouped by value; the last word of a group is the
  /// value's name.
  std::vector<Spelling<T>> spellings;
  /// Free-form env values (numbers, fault plans); nullopt = unrecognized.
  std::optional<T> (*parseOther)(std::string_view) = nullptr;
  /// How parseOther's values read in the docs, e.g. "<steps>".
  const char* otherHint = nullptr;
  /// Match the fixed words case-insensitively.
  bool foldCase = false;
};

/// A resolved knob value and where it came from.
template <typename T>
struct Resolved {
  T value{};  ///< never the knob's autoValue
  const char* source = "default";  ///< "explicit" | the env var | "default"
  std::string envValue;            ///< raw env text when consulted
};

// The knob table, one row per environment knob.
extern const Knob<uint32_t> kHostWorkersKnob;
extern const Knob<simcheck::CheckMode> kCheckKnob;
extern const Knob<std::string> kFaultKnob;
extern const Knob<uint64_t> kWatchdogKnob;
extern const Knob<simprof::ProfileMode> kProfileKnob;
extern const Knob<FastPathMode> kFastPathKnob;
extern const Knob<TuneMode> kTuneKnob;
extern const Knob<simfault::ResilienceMode> kResilienceKnob;

/// The value `text` spells for `knob`: one of its fixed words, else
/// what parseOther makes of it; nullopt = unrecognized. The env
/// resolver and the command-line flags share this one matcher.
template <typename T>
[[nodiscard]] std::optional<T> matchKnob(const Knob<T>& knob,
                                         std::string_view text) {
  std::string folded(text);
  if (knob.foldCase) {
    for (char& c : folded) {
      if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
    }
  }
  for (const Spelling<T>& word : knob.spellings) {
    if (folded == word.text) return word.value;
  }
  if (knob.parseOther == nullptr) return std::nullopt;
  return knob.parseOther(text);
}

/// Resolve one knob: explicit > env > built-in.
template <typename T>
[[nodiscard]] Resolved<T> resolveKnob(
    const Knob<T>& knob, const std::type_identity_t<T>& requested) {
  if (requested != knob.autoValue) return {requested, "explicit", {}};
  const char* env = std::getenv(knob.env);
  if (env == nullptr) return {knob.builtin(), "default", {}};
  std::optional<T> matched = matchKnob(knob, env);
  if (!matched.has_value()) {
    SIMTOMP_WARN("ignoring invalid %s=\"%s\"", knob.env, env);
    matched = knob.builtin();
  }
  return {*std::move(matched), knob.env, env};
}

/// Every knob of `options` resolved to a concrete value.
[[nodiscard]] LaunchOptions resolveLaunchOptions(const LaunchOptions& options);

/// The distinct values the fixed words name, in table order.
template <typename T>
[[nodiscard]] std::vector<T> knobValues(const Knob<T>& knob) {
  std::vector<T> out;
  for (const Spelling<T>& s : knob.spellings) {
    if (out.empty() || out.back() != s.value) out.push_back(s.value);
  }
  return out;
}

/// Display name of a knob value: the name of its fixed-word group, or
/// the value itself for numbers and plans.
template <typename T>
[[nodiscard]] std::string knobValueName(const Knob<T>& knob, const T& value) {
  const char* name = nullptr;
  for (const Spelling<T>& s : knob.spellings) {
    if (s.value == value) name = s.text;
  }
  if (name != nullptr) return name;
  if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else {
    return "?";
  }
}

/// The accepted env values, e.g. "0/off, 1/on/report, 2/fatal".
template <typename T>
[[nodiscard]] std::string knobAcceptedValues(const Knob<T>& knob) {
  std::string out;
  const T* prev = nullptr;
  for (const Spelling<T>& s : knob.spellings) {
    if (prev != nullptr) out += *prev == s.value ? "/" : ", ";
    out += s.text;
    prev = &s.value;
  }
  if (knob.otherHint != nullptr) {
    if (!out.empty()) out += ", ";
    out += knob.otherHint;
  }
  return out;
}

}  // namespace simtomp::gpusim
