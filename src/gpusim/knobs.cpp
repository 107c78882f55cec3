#include "gpusim/knobs.h"

#include <thread>

#include "gpusim/executor.h"
#include "support/parse.h"

namespace simtomp::gpusim {

namespace {

using simcheck::CheckMode;
using simfault::ResilienceMode;
using simprof::ProfileMode;

std::optional<uint32_t> parseHostWorkers(std::string_view text) {
  const Result<uint64_t> n =
      parseUnsigned(text, BlockExecutor::kMaxHelpers + 1);
  if (n.isOk() && n.value() >= 1) return static_cast<uint32_t>(n.value());
  return std::nullopt;
}

std::optional<std::string> parseFault(std::string_view text) {
  // The plan itself is validated when the launch arms it.
  return text.empty() ? "off" : std::string(text);
}

std::optional<uint64_t> parseWatchdog(std::string_view text) {
  const Result<uint64_t> n = parseUnsigned(text);
  if (!n.isOk()) return std::nullopt;
  return n.value() == 0 ? simfault::kWatchdogOff : n.value();
}

}  // namespace

const Knob<uint32_t> kHostWorkersKnob{
    .env = "SIMTOMP_HOST_WORKERS",
    .doc = "host threads simulating independent blocks (wall time only); "
           "default: hardware concurrency",
    .autoValue = 0,
    .builtin =
        [] {
          const unsigned hw = std::thread::hardware_concurrency();
          return hw == 0 ? 1u : static_cast<uint32_t>(hw);
        },
    .spellings = {},
    .parseOther = parseHostWorkers,
    .otherHint = "1..65",
};

const Knob<CheckMode> kCheckKnob{
    .env = "SIMTOMP_CHECK",
    .doc = "simcheck race/divergence/sharing checking; default: off",
    .autoValue = CheckMode::kAuto,
    .builtin = [] { return CheckMode::kOff; },
    .spellings = {{"0", CheckMode::kOff}, {"off", CheckMode::kOff},
                  {"1", CheckMode::kReport}, {"on", CheckMode::kReport},
                  {"report", CheckMode::kReport},
                  {"2", CheckMode::kFatal}, {"fatal", CheckMode::kFatal}},
};

const Knob<std::string> kFaultKnob{
    .env = "SIMTOMP_FAULT",
    .doc = "simfault plan armed on every launch (docs/FAULTS.md); "
           "default: off",
    .autoValue = "",
    .builtin = [] { return std::string("off"); },
    .spellings = {{"0", "off"}, {"none", "off"}, {"off", "off"}},
    .parseOther = parseFault,
    .otherHint = "<plan>",
};

const Knob<uint64_t> kWatchdogKnob{
    .env = "SIMTOMP_WATCHDOG",
    .doc = "per-block scheduler step budget; default: 2^26 steps",
    .autoValue = 0,
    .builtin = [] { return simfault::kDefaultWatchdogSteps; },
    .spellings = {{"0", simfault::kWatchdogOff},
                  {"off", simfault::kWatchdogOff}},
    .parseOther = parseWatchdog,
    .otherHint = "<steps>",
};

const Knob<ProfileMode> kProfileKnob{
    .env = "SIMTOMP_PROF",
    .doc = "simprof construct-tree profiling; default: off",
    .autoValue = ProfileMode::kAuto,
    .builtin = [] { return ProfileMode::kOff; },
    .spellings = {{"0", ProfileMode::kOff}, {"off", ProfileMode::kOff},
                  {"1", ProfileMode::kOn}, {"on", ProfileMode::kOn}},
    .foldCase = true,
};

const Knob<FastPathMode> kFastPathKnob{
    .env = "SIMTOMP_FAST",
    .doc = "convergence fast path for simd bodies declared "
           "dsl::convergent (wall time only); default: on",
    .autoValue = FastPathMode::kAuto,
    .builtin = [] { return FastPathMode::kOn; },
    .spellings = {{"0", FastPathMode::kOff}, {"false", FastPathMode::kOff},
                  {"off", FastPathMode::kOff}, {"1", FastPathMode::kOn},
                  {"true", FastPathMode::kOn}, {"on", FastPathMode::kOn}},
};

const Knob<TuneMode> kTuneKnob{
    .env = "SIMTOMP_TUNE",
    .doc = "simtune resolution of auto launch-shape fields; default: off",
    .autoValue = TuneMode::kAuto,
    .builtin = [] { return TuneMode::kOff; },
    .spellings = {{"0", TuneMode::kOff}, {"off", TuneMode::kOff},
                  {"1", TuneMode::kCache}, {"on", TuneMode::kCache},
                  {"cache", TuneMode::kCache}, {"2", TuneMode::kTune},
                  {"trial", TuneMode::kTune}, {"tune", TuneMode::kTune}},
};

const Knob<ResilienceMode> kResilienceKnob{
    .env = "SIMTOMP_RESILIENCE",
    .doc = "DeviceManager retry/fallback chain for synchronous launches; "
           "default: on",
    .autoValue = ResilienceMode::kAuto,
    .builtin = [] { return ResilienceMode::kOn; },
    .spellings = {{"0", ResilienceMode::kOff}, {"off", ResilienceMode::kOff},
                  {"1", ResilienceMode::kOn}, {"on", ResilienceMode::kOn}},
};

LaunchOptions resolveLaunchOptions(const LaunchOptions& options) {
  LaunchOptions out = options;
  out.hostWorkers = resolveKnob(kHostWorkersKnob, options.hostWorkers).value;
  out.check.mode = resolveKnob(kCheckKnob, options.check.mode).value;
  out.fault.spec = resolveKnob(kFaultKnob, options.fault.spec).value;
  out.watchdogSteps = resolveKnob(kWatchdogKnob, options.watchdogSteps).value;
  out.profile.mode = resolveKnob(kProfileKnob, options.profile.mode).value;
  out.fastPath = resolveKnob(kFastPathKnob, options.fastPath).value;
  return out;
}

}  // namespace simtomp::gpusim
