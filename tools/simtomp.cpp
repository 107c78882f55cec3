// simtomp: the command-line front end of the reproduction.
//
//   simtomp run <app> "<directive>" [--csv | --prof | --folded | --json]
//               [--trace P] [--metrics P]
//   simtomp info [occupancy|groups|check|tune|prof|counters|
//                 metrics[=prom|json]]
//   simtomp tune tune|list|evict|clear ...
//   simtomp fault matrix [--workers N]
//   simtomp fuzz run|show|repro|minimize ...
//   simtomp serve gen|replay|trace|chaos ...
//
// Every subcommand is one row of kCommands at the bottom of this file:
// name, action word, synopsis and handler. The row table drives both
// dispatch and the usage text. Each handler declares its flags as a
// cli::Flag table (tools/cli.h), so every subcommand takes `--f V` and
// `--f=V`, range-checks its numbers and rejects unknown flags the same
// way. Run `simtomp` with no arguments for the full synopsis.
//
// Exit codes: 2 is a usage error everywhere (an unreadable or
// malformed input file counts as one). `run` triages a launch into
// 0-8 (kExit* below; docs/FAULTS.md). The other subcommands exit 0 on
// success and 1 when their work fails (a divergence, a violated
// invariant, an unwritable output).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/tunable.h"
#include "cli.h"
#include "dsl/dsl.h"
#include "front/directive.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "gpusim/knobs.h"
#include "gpusim/occupancy.h"
#include "gpusim/stats.h"
#include "gpusim/trace.h"
#include "hostrt/device_manager.h"
#include "omprt/runtime.h"
#include "omprt/target.h"
#include "simfault/fault.h"
#include "simfault/resilience.h"
#include "simfuzz/generator.h"
#include "simfuzz/harness.h"
#include "simfuzz/minimize.h"
#include "simprof/metrics.h"
#include "simprof/profile.h"
#include "simserve/chaos.h"
#include "simserve/mix.h"
#include "simserve/service.h"
#include "simtune/cache.h"
#include "simtune/tuner.h"
#include "support/parse.h"

namespace simtomp {
namespace {

using Args = std::span<const std::string_view>;

// Exit codes of `run`, per failure class (docs/FAULTS.md).
constexpr int kExitVerifyFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBuildError = 3;
constexpr int kExitLaunchFailure = 4;
constexpr int kExitWatchdog = 5;
constexpr int kExitCheckFatal = 6;
constexpr int kExitFaultUnrecovered = 7;
constexpr int kExitProfileInvariant = 8;

struct Command {
  const char* name;
  const char* action;  ///< "" = the command takes no action word
  const char* synopsis;
  int (*run)(const Command& self, Args args);
};

/// Print the synopsis of every row named `name` ("" = every row).
int usage(std::string_view name);

int usageError(const Command& self, const Status& why) {
  std::fprintf(stderr, "simtomp %s%s%s: %s\n", self.name,
               *self.action != '\0' ? " " : "", self.action,
               why.message().c_str());
  return usage(self.name);
}

/// Parse a handler's arguments: its flag table plus between `min_pos`
/// and `max_pos` positional words.
Status parseArgs(Args args, std::span<const cli::Flag> flags,
                 std::vector<std::string_view>& positional, size_t min_pos,
                 size_t max_pos) {
  const Status parsed = cli::parseFlags(args, flags, positional);
  if (!parsed.isOk()) return parsed;
  if (positional.size() < min_pos) {
    return Status::invalidArgument("missing argument");
  }
  if (positional.size() > max_pos) {
    return Status::invalidArgument("unexpected argument '" +
                                   std::string(positional[max_pos]) + "'");
  }
  return Status::ok();
}

/// A handler for an action that takes no arguments and only prints.
template <void (*Print)()>
int noArgs(const Command& self, Args args) {
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, {}, pos, 0, 0); !st.isOk()) {
    return usageError(self, st);
  }
  Print();
  return 0;
}

Result<uint32_t> parseU32(std::string_view text) {
  const Result<uint64_t> n = parseUnsigned(text, UINT32_MAX);
  if (!n.isOk()) return n.status();
  return static_cast<uint32_t>(n.value());
}

/// Write to `path`, or to stdout when it is "-".
bool writeTo(const std::string& path,
             const std::function<void(std::ostream&)>& body) {
  if (path == "-") {
    body(std::cout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "simtomp: cannot write %s\n", path.c_str());
    return false;
  }
  body(out);
  return true;
}

/// The architecture presets: `info` tabulates all of them and
/// `tune --arch` picks one by its short name.
struct ArchPreset {
  const char* shortName;
  gpusim::ArchSpec spec;
};

const ArchPreset kArchPresets[] = {
    {"a100", gpusim::ArchSpec::nvidiaA100()},
    {"mi100", gpusim::ArchSpec::amdMI100()},
    {"tiny", gpusim::ArchSpec::testTiny()},
};

// ---------------------------------------------------------------------
// run: a corpus app under a directive you type.
//
// The app is a row of apps::tunableCorpus. The directive's constructs
// pick the execution modes via the tightly-nested => SPMD rule
// (override with teams_mode/parallel_mode); num_teams/thread_limit/
// simdlen shape the launch, and auto fields tune (resolveLaunchTuning).
// The app runs with the directive's knobs on the A100-like device and
// is verified against the host reference. It launches on a plain
// device (no DeviceManager): an injected fault surfaces with its exit
// class instead of recovering; `simtomp fault matrix` covers recovery.
//
// Output: the default is a summary of cycles and counters; --csv
// prints one KernelStats row; --prof, --folded and --json profile the
// launch (simprof) and render its construct tree as a table, folded
// stacks or JSON. Profiling observes the cost model without perturbing
// it: a profiled launch whose root differs from KernelStats.cycles
// exits 8.
// ---------------------------------------------------------------------

/// Triage a failed launch into its documented exit code. The watchdog
/// check comes first: its message also carries the [simfault] marker.
int exitCodeFor(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) return kExitWatchdog;
  if (status.message().find("simcheck") != std::string::npos) {
    return kExitCheckFatal;
  }
  if (status.message().find("[simfault]") != std::string::npos) {
    return kExitFaultUnrecovered;
  }
  return kExitLaunchFailure;
}

/// Resolve the launch's auto fields through simtune when SIMTOMP_TUNE
/// enables it: cache-only under SIMTOMP_TUNE=1; SIMTOMP_TUNE=2 runs the
/// launch search over the app's axes on a miss, with fault-free trials
/// on scratch devices, and persists the winner (SIMTOMP_TUNE_CACHE).
Status resolveLaunchTuning(const apps::TunableApp& app,
                           const gpusim::Device& device,
                           dsl::LaunchSpec& launch) {
  if (!omprt::hasAutoLaunchFields(launch)) return Status::ok();
  const gpusim::Resolved<simtune::TuneMode> mode =
      gpusim::resolveKnob(gpusim::kTuneKnob, simtune::TuneMode::kAuto);
  if (mode.value == simtune::TuneMode::kOff) return Status::ok();
  if (launch.tuneKey.empty()) launch.tuneKey = app.name;
  launch.tripCount = app.tripCount;

  simtune::Tuner tuner;
  if (tuner.resolveConfig(device.arch(), device.costModel(), launch)) {
    std::printf("  tuning     : key %s resolved from cache (%s=%s)\n",
                launch.tuneKey.c_str(), mode.source, mode.envValue.c_str());
    return Status::ok();
  }
  if (mode.value != simtune::TuneMode::kTune) {
    std::printf("  tuning     : key %s missed the cache; heuristics apply\n",
                launch.tuneKey.c_str());
    return Status::ok();
  }
  const simtune::TargetTrialFn trial =
      [&app](gpusim::Device& scratch, const omprt::TargetConfig& shape) {
        return apps::verifiedStats(
            app.run(scratch, simtune::shapeOf(shape), shape), app.name);
      };
  const Result<simtune::TuneOutcome> tuned =
      tuner.tuneTarget(device.arch(), device.costModel(), app.axes, launch,
                       trial, simtune::launchTuneRequest());
  if (!tuned.isOk()) return tuned.status();
  std::printf("  tuning     : key %s searched (%u trials, winner %llu "
              "cycles)\n",
              launch.tuneKey.c_str(), tuned.value().trialsRun,
              static_cast<unsigned long long>(tuned.value().shape.cycles));
  return Status::ok();
}

/// Counter-name adapter for the renderer: simprof speaks raw ids, the
/// names live in gpusim's counter table.
std::string_view profCounterName(uint32_t id) {
  if (id >= gpusim::kNumCounters) return "?";
  return gpusim::counterName(static_cast<gpusim::Counter>(id));
}

simprof::RenderOptions renderOptions() {
  simprof::RenderOptions opts;
  opts.counterName = &profCounterName;
  opts.laneRoundsCounter =
      static_cast<uint32_t>(gpusim::Counter::kSimdLaneRounds);
  opts.idleLaneRoundsCounter =
      static_cast<uint32_t>(gpusim::Counter::kSimdIdleLaneRounds);
  return opts;
}

void printSummary(std::string_view kernel, const dsl::LaunchSpec& launch,
                  const apps::AppRunResult& r) {
  std::printf("%.*s: verified (max error %.2e)\n",
              static_cast<int>(kernel.size()), kernel.data(), r.maxError);
  std::printf("  launch     : %u teams x %u threads, teams %s, parallel %s, "
              "simdlen %u\n",
              launch.numTeams, launch.threadsPerTeam,
              omprt::execModeName(launch.teamsMode).data(),
              omprt::execModeName(launch.parallelMode).data(),
              launch.simdlen);
  std::printf("  cycles     : %llu (%u waves, occupancy %.0f%%)\n",
              static_cast<unsigned long long>(r.stats.cycles), r.stats.waves,
              r.stats.occupancy.warpOccupancy * 100.0);
  const auto& c = r.stats.counters;
  using gpusim::Counter;
  std::printf("  simd loops : %llu (lane rounds %llu, idle %llu)\n",
              static_cast<unsigned long long>(c.get(Counter::kSimdLoop)),
              static_cast<unsigned long long>(c.get(Counter::kSimdLaneRounds)),
              static_cast<unsigned long long>(
                  c.get(Counter::kSimdIdleLaneRounds)));
  std::printf("  syncs      : %llu warp, %llu block, %llu state polls\n",
              static_cast<unsigned long long>(c.get(Counter::kWarpSync)),
              static_cast<unsigned long long>(c.get(Counter::kBlockSync)),
              static_cast<unsigned long long>(c.get(Counter::kStatePoll)));
  std::printf("  memory     : %llu global loads, %llu stores, %llu atomics, "
              "%llu shared accesses\n",
              static_cast<unsigned long long>(c.get(Counter::kGlobalLoad)),
              static_cast<unsigned long long>(c.get(Counter::kGlobalStore)),
              static_cast<unsigned long long>(c.get(Counter::kAtomicRmw)),
              static_cast<unsigned long long>(c.get(Counter::kSharedLoad) +
                                              c.get(Counter::kSharedStore)));
}

int cmdRun(const Command& self, Args args) {
  bool csv = false, prof = false, folded = false, json = false;
  std::string trace_path, metrics_path;
  const cli::Flag flags[] = {
      {"--csv", &csv},       {"--prof", &prof},
      {"--folded", &folded}, {"--json", &json},
      {"--trace", &trace_path}, {"--metrics", &metrics_path},
  };
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, flags, pos, 2, 2); !st.isOk()) {
    return usageError(self, st);
  }
  gpusim::Device device;
  const Result<apps::TunableApp> found =
      apps::tunableByName(std::string(pos[0]), device.arch(), false);
  if (!found.isOk()) return usageError(self, found.status());
  const apps::TunableApp& app = found.value();
  if (int{csv} + int{prof} + int{folded} + int{json} > 1) {
    return usageError(self, Status::invalidArgument(
                                "--csv, --prof, --folded and --json are "
                                "alternatives"));
  }

  auto parsed = front::parseDirective(std::string(pos[1]));
  if (!parsed.isOk()) {
    std::fprintf(stderr, "directive error: %s\n",
                 parsed.status().toString().c_str());
    return kExitBuildError;
  }
  dsl::LaunchSpec launch = parsed.value().toLaunchSpec(device.arch());
  // The profile renderers switch profiling on unless the directive
  // pinned it off explicitly.
  const bool profiling = (prof || folded || json) &&
                         launch.profile.mode != simprof::ProfileMode::kOff;
  if (profiling) launch.profile.mode = simprof::ProfileMode::kOn;
  const Status tuned = resolveLaunchTuning(app, device, launch);
  if (!tuned.isOk()) {
    std::fprintf(stderr, "tuning error: %s\n", tuned.toString().c_str());
    return kExitBuildError;
  }
  omprt::resolveAutoConfig(device.arch(), launch);
  gpusim::TraceRecorder recorder;
  if (!trace_path.empty()) device.setTraceRecorder(&recorder);

  auto result = app.run(device, simtune::shapeOf(launch), launch);
  if (!result.isOk()) {
    std::fprintf(stderr, "run error: %s\n",
                 result.status().toString().c_str());
    return exitCodeFor(result.status());
  }
  const apps::AppRunResult& r = result.value();
  if (!r.verified) {
    std::fprintf(stderr, "VERIFICATION FAILED (max error %g)\n", r.maxError);
    return kExitVerifyFailed;
  }

  const simprof::LaunchProfile& profile = device.lastProfile();
  if (profiling) {
    if (!profile.enabled) {
      std::fprintf(stderr, "profile missing: launch did not profile\n");
      return kExitProfileInvariant;
    }
    // The contract the whole subsystem hangs on: profiling observed the
    // launch without perturbing it, and the tree accounts for it all.
    if (profile.root.inclusiveCycles != r.stats.cycles) {
      std::fprintf(stderr,
                   "profile invariant violated: root %llu != cycles %llu\n",
                   static_cast<unsigned long long>(
                       profile.root.inclusiveCycles),
                   static_cast<unsigned long long>(r.stats.cycles));
      return kExitProfileInvariant;
    }
  }
  if (!trace_path.empty()) {
    const Status wrote = recorder.writeChromeJson(trace_path);
    if (!wrote.isOk()) {
      std::fprintf(stderr, "trace error: %s\n", wrote.toString().c_str());
      return kExitLaunchFailure;
    }
  }
  if (!metrics_path.empty() &&
      !writeTo(metrics_path, [](std::ostream& out) {
        simprof::MetricsRegistry::global().writePrometheus(out);
      })) {
    return kExitLaunchFailure;
  }

  if (csv) {
    std::printf("kernel,%s\n", gpusim::KernelStats::csvHeader().c_str());
    std::printf("%s,%s\n", app.name.c_str(), r.stats.csvRow().c_str());
  } else if (folded) {
    std::fputs(profile.folded().c_str(), stdout);
  } else if (json) {
    profile.writeJson(std::cout, renderOptions());
    std::printf("\n");
  } else if (prof) {
    std::printf("%s: verified (max error %.2e), %llu cycles\n",
                app.name.c_str(), r.maxError,
                static_cast<unsigned long long>(r.stats.cycles));
    std::fputs(profile.table(renderOptions()).c_str(), stdout);
  } else {
    printSummary(app.name, launch, r);
  }
  return 0;
}

// ---------------------------------------------------------------------
// info: the simulated architectures, launch shapes and knob resolution.
// ---------------------------------------------------------------------

void infoPresets() {
  std::printf("%-10s %-7s %5s %5s %9s %11s %12s %s\n", "name", "vendor",
              "warp", "SMs", "thr/blk", "shared/blk", "shared/SM",
              "warp barriers");
  for (const ArchPreset& preset : kArchPresets) {
    const gpusim::ArchSpec& arch = preset.spec;
    std::printf("%-10s %-7s %5u %5u %9u %10uK %11uK %s\n", arch.name.c_str(),
                arch.vendor == gpusim::Vendor::kNvidia ? "nvidia" : "amd",
                arch.warpSize, arch.numSMs, arch.maxThreadsPerBlock,
                arch.sharedMemPerBlock / 1024, arch.sharedMemPerSM / 1024,
                arch.hasWarpLevelBarrier ? "yes" : "no");
  }
}

/// Occupancy per preset for blocks of T threads using S shared bytes
/// (default: the runtime's sharing space).
int infoOccupancy(const Command& self, Args args) {
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, {}, pos, 1, 2); !st.isOk()) {
    return usageError(self, st);
  }
  const Result<uint32_t> threads = parseU32(pos[0]);
  if (!threads.isOk()) return usageError(self, threads.status());
  uint32_t shared_bytes = omprt::kDefaultSharingSpaceBytes;
  if (pos.size() == 2) {
    const Result<uint32_t> shared = parseU32(pos[1]);
    if (!shared.isOk()) return usageError(self, shared.status());
    shared_bytes = shared.value();
  }
  std::printf("occupancy for %u threads/block, %u shared bytes/block:\n",
              threads.value(), shared_bytes);
  std::printf("%-10s %9s %12s %12s %10s\n", "arch", "warps/blk",
              "blk/SM(thr)", "blk/SM(shm)", "occupancy");
  for (const ArchPreset& preset : kArchPresets) {
    const gpusim::OccupancyInfo info =
        gpusim::computeOccupancy(preset.spec, threads.value(), shared_bytes);
    std::printf("%-10s %9u %12u %12u %9.0f%%\n", preset.spec.name.c_str(),
                info.warpsPerBlock, info.blocksPerSmByThreads,
                info.blocksPerSmByShared, info.warpOccupancy * 100.0);
  }
  return 0;
}

/// Legal SIMD group configurations for a team of T worker threads.
int infoGroups(const Command& self, Args args) {
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, {}, pos, 1, 1); !st.isOk()) {
    return usageError(self, st);
  }
  const Result<uint32_t> parsed = parseU32(pos[0]);
  if (!parsed.isOk()) return usageError(self, parsed.status());
  const uint32_t threads = parsed.value();
  std::printf("SIMD group configurations for %u worker threads:\n", threads);
  for (const ArchPreset& preset : kArchPresets) {
    const gpusim::ArchSpec& arch = preset.spec;
    std::printf("%s (warp %u):\n", arch.name.c_str(), arch.warpSize);
    if (threads % arch.warpSize != 0) {
      std::printf("  (threads must be a multiple of the warp size)\n");
      continue;
    }
    std::printf("  %-8s %-8s %-14s %s\n", "simdlen", "groups", "groups/warp",
                "generic-SIMD");
    for (uint32_t g = 1; g <= arch.warpSize; g *= 2) {
      const bool generic_ok = arch.hasWarpLevelBarrier || g == 1;
      std::printf("  %-8u %-8u %-14u %s\n", g, threads / g,
                  arch.warpSize / g,
                  generic_ok ? "supported" : "falls back to simdlen 1");
    }
  }
  return 0;
}

/// One knob's resolution block, rendered from the knob table: the env
/// value, what an auto launch resolves to, and each explicit mode.
template <typename T>
void knobInfo(const char* subsystem, const gpusim::Knob<T>& knob) {
  const auto name = [&knob](const T& v) {
    return gpusim::knobValueName(knob, v);
  };
  // An explicit mode on the launch config always wins; a launch that
  // leaves the knob auto consults the environment.
  const gpusim::Resolved<T> auto_mode =
      gpusim::resolveKnob(knob, knob.autoValue);
  std::printf("%s resolution for this environment:\n", subsystem);
  std::printf("  %-24s = %s\n", knob.env,
              auto_mode.source == knob.env ? auto_mode.envValue.c_str()
                                           : "(unset)");
  std::printf("  default  %-6s launches  -> %-6s  [from %s]\n", "(auto)",
              name(auto_mode.value).c_str(), auto_mode.source);
  for (const T& mode : gpusim::knobValues(knob)) {
    const gpusim::Resolved<T> r = gpusim::resolveKnob(knob, mode);
    std::printf("  explicit %-6s launches  -> %-6s  [from %s]\n",
                name(mode).c_str(), name(r.value).c_str(), r.source);
  }
  std::printf("accepted %s values: %s\n", knob.env,
              gpusim::knobAcceptedValues(knob).c_str());
  std::printf("%s: %s\n", knob.env, knob.doc);
}

void infoCheck() {
  knobInfo("simcheck", gpusim::kCheckKnob);
}

/// How simtune would resolve: tune mode, cache path, entry count, and
/// hit/miss per demo kernel.
void infoTune() {
  knobInfo("simtune", gpusim::kTuneKnob);
  const char* cache_env = std::getenv("SIMTOMP_TUNE_CACHE");
  std::printf("  SIMTOMP_TUNE_CACHE       = %s\n",
              cache_env != nullptr ? cache_env : "(unset)");

  simtune::TuneCache cache(simtune::resolveCachePath(""));
  if (cache.persistent()) {
    const Status loaded = cache.load();
    std::printf("cache: %s (%zu entries)%s\n", cache.path().c_str(),
                cache.size(),
                loaded.isOk() ? "" : "  [load failed: malformed file]");
  } else {
    std::printf("cache: (in-memory; set SIMTOMP_TUNE_CACHE to persist)\n");
  }

  // Demo-kernel resolution: would a launch of each tunable app, on the
  // default A100 device with the stock cost model, hit the cache?
  const gpusim::ArchSpec arch = gpusim::ArchSpec::nvidiaA100();
  const gpusim::CostModel cost{};
  std::printf("demo kernels (%s, cost %s):\n", arch.name.c_str(),
              simtune::costFingerprint(cost).c_str());
  for (const auto& app : apps::tunableCorpus(arch, /*small=*/false)) {
    const simtune::TuneKey key =
        simtune::makeTuneKey(app.name, arch, cost, app.tripCount);
    const auto hit = cache.lookup(key);
    if (hit.has_value()) {
      std::printf("  %-16s hit   %s\n", app.name.c_str(),
                  hit->toString().c_str());
    } else {
      std::printf("  %-16s miss  (b%u; run simtomp tune tune to fill)\n",
                  app.name.c_str(), key.bucket);
    }
  }
}

void infoProf() {
  knobInfo("simprof", gpusim::kProfileKnob);
  std::printf("SIMTOMP_METRICS=<path> dumps the metrics registry at exit\n");
}

// The next two render straight from the authoritative tables
// (gpusim::counterName/counterDescription and simprof::allMetricDefs),
// so this listing cannot drift from what the runtime records.
void infoCounters() {
  std::printf("per-launch event counters (KernelStats.counters):\n");
  std::printf("  %-22s %s\n", "name", "description");
  for (size_t i = 0; i < gpusim::kNumCounters; ++i) {
    const auto c = static_cast<gpusim::Counter>(i);
    std::printf("  %-22s %s\n",
                std::string(gpusim::counterName(c)).c_str(),
                std::string(gpusim::counterDescription(c)).c_str());
  }
}

void infoMetrics() {
  std::printf("process-wide metrics (simprof registry):\n");
  std::printf("  %-42s %-9s %s\n", "name", "type", "description");
  for (const simprof::MetricDef& def : simprof::allMetricDefs()) {
    std::printf("  %-42s %-9s %s\n", std::string(def.name).c_str(),
                std::string(simprof::metricTypeName(def.type)).c_str(),
                std::string(def.help).c_str());
  }
}

/// The registry's current values in the two formats the
/// SIMTOMP_METRICS exit dump writes.
void infoMetricsProm() {
  simprof::MetricsRegistry::global().writePrometheus(std::cout);
}

void infoMetricsJson() {
  simprof::MetricsRegistry::global().writeJson(std::cout);
}

// ---------------------------------------------------------------------
// tune: pre-tune the app corpus and manage the tuning cache.
//
// --cache PATH defaults to SIMTOMP_TUNE_CACHE; `tune` without either
// keeps an in-memory cache (winners are printed but not persisted).
// ---------------------------------------------------------------------

std::vector<std::string> splitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int tuneTune(const Command& self, Args args) {
  std::string apps_csv, arch_name = "a100", strategy, cache_path;
  bool small = false;
  simtune::TuneRequest request;
  simcheck::CheckMode check = simcheck::CheckMode::kAuto;
  const cli::Flag flags[] = {
      {"--apps", &apps_csv},
      {"--arch", &arch_name},
      {"--strategy", &strategy},
      {"--budget", &request.maxTrials},
      {"--workers", cli::KnobFlag<uint32_t>{&gpusim::kHostWorkersKnob,
                                            &request.hostWorkers}},
      {"--cache", &cache_path},
      {"--check",
       cli::KnobFlag<simcheck::CheckMode>{&gpusim::kCheckKnob, &check}},
      {"--small", &small},
      {"--retune", &request.skipCache},
  };
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, flags, pos, 0, 0); !st.isOk()) {
    return usageError(self, st);
  }
  // Every trial launch resolves SIMTOMP_CHECK, so the flag sets it for
  // the process.
  if (check != simcheck::CheckMode::kAuto) {
    setenv("SIMTOMP_CHECK",
           gpusim::knobValueName(gpusim::kCheckKnob, check).c_str(), 1);
  }
  if (strategy == "exhaustive") {
    request.strategy = simtune::TuneStrategy::kExhaustive;
  } else if (strategy == "hill" || strategy == "hillclimb" ||
             strategy == "hill-climb") {
    request.strategy = simtune::TuneStrategy::kHillClimb;
  } else if (!strategy.empty()) {
    return usageError(self, Status::invalidArgument("unknown strategy '" +
                                                    strategy + "'"));
  }
  const ArchPreset* preset = nullptr;
  for (const ArchPreset& p : kArchPresets) {
    if (arch_name == p.shortName) preset = &p;
  }
  if (preset == nullptr) {
    return usageError(self, Status::invalidArgument("unknown arch '" +
                                                    arch_name + "'"));
  }
  const gpusim::ArchSpec& arch = preset->spec;
  const gpusim::CostModel cost{};

  std::vector<apps::TunableApp> corpus;
  for (const std::string& name : splitCsv(apps_csv)) {
    Result<apps::TunableApp> app = apps::tunableByName(name, arch, small);
    if (!app.isOk()) return usageError(self, app.status());
    corpus.push_back(std::move(app.value()));
  }
  if (corpus.empty()) corpus = apps::tunableCorpus(arch, small);

  auto cache = std::make_shared<simtune::TuneCache>(
      simtune::resolveCachePath(cache_path));
  if (cache->persistent()) {
    const Status loaded = cache->load();
    if (!loaded.isOk()) {
      std::fprintf(stderr, "simtomp tune: cannot load %s: %s\n",
                   cache->path().c_str(), loaded.message().c_str());
      return 1;
    }
  }
  simtune::Tuner tuner(cache);

  std::printf("tuning %zu app(s) on %s [%s%s, strategy %s, budget %u]\n",
              corpus.size(), arch.name.c_str(),
              cache->persistent() ? cache->path().c_str() : "in-memory cache",
              small ? ", small" : "",
              std::string(simtune::tuneStrategyName(request.strategy)).c_str(),
              request.maxTrials);
  for (const auto& app : corpus) {
    simtune::TuneRequest app_request = request;
    app_request.tripCount = app.tripCount;
    const Result<simtune::TuneOutcome> result =
        tuner.tune(app.name, arch, cost, app.axes, app.trial, app_request);
    if (!result.isOk()) {
      std::fprintf(stderr, "simtomp tune: %s failed: %s\n", app.name.c_str(),
                   result.status().message().c_str());
      return 1;
    }
    const simtune::TuneOutcome& outcome = result.value();
    std::printf("  %-16s %s  [%s, %u trial(s)]\n", app.name.c_str(),
                outcome.shape.toString().c_str(),
                outcome.fromCache ? "cached" : "searched", outcome.trialsRun);
  }
  std::printf("done: %llu trial launches, %llu cache hit(s)\n",
              static_cast<unsigned long long>(tuner.trialLaunches()),
              static_cast<unsigned long long>(tuner.cacheHits()));
  return 0;
}

/// The cache-management actions: parse [--cache PATH] plus `npos`
/// positional words, then load the persistent cache. Returns the exit
/// code to stop with, or -1 to go on.
int openCache(const Command& self, Args args, size_t npos,
              std::vector<std::string_view>& pos,
              std::unique_ptr<simtune::TuneCache>& cache) {
  std::string cache_path;
  const cli::Flag flags[] = {{"--cache", &cache_path}};
  if (const Status st = parseArgs(args, flags, pos, npos, npos); !st.isOk()) {
    return usageError(self, st);
  }
  cache = std::make_unique<simtune::TuneCache>(
      simtune::resolveCachePath(cache_path));
  if (!cache->persistent()) {
    return usageError(self, Status::invalidArgument(
                                "no cache file (pass --cache or set "
                                "SIMTOMP_TUNE_CACHE)"));
  }
  const Status loaded = cache->load();
  if (!loaded.isOk()) {
    std::fprintf(stderr, "simtomp tune: cannot load %s: %s\n",
                 cache->path().c_str(), loaded.message().c_str());
    return 1;
  }
  return -1;
}

int tuneList(const Command& self, Args args) {
  std::vector<std::string_view> pos;
  std::unique_ptr<simtune::TuneCache> cache;
  if (const int rc = openCache(self, args, 0, pos, cache); rc >= 0) return rc;
  std::printf("%s: %zu entries\n", cache->path().c_str(), cache->size());
  for (const auto& [key, shape] : cache->entries()) {
    std::printf("  %s\n    -> %s\n", key.c_str(), shape.toString().c_str());
  }
  return 0;
}

/// `evict <prefix>` drops the entries whose kernel key starts with
/// <prefix>; `clear` drops every entry.
int tuneEvict(const Command& self, Args args) {
  const bool clear = std::string_view(self.action) == "clear";
  std::vector<std::string_view> pos;
  std::unique_ptr<simtune::TuneCache> cache;
  if (const int rc = openCache(self, args, clear ? 0 : 1, pos, cache);
      rc >= 0) {
    return rc;
  }
  const std::string prefix = clear ? "" : std::string(pos[0]);
  const size_t removed = cache->evict(prefix);
  const Status saved = cache->save();
  if (!saved.isOk()) {
    std::fprintf(stderr, "simtomp tune: cannot save %s: %s\n",
                 cache->path().c_str(), saved.message().c_str());
    return 1;
  }
  std::printf("evicted %zu entr%s %s '%s'\n", removed,
              removed == 1 ? "y" : "ies",
              prefix.empty() ? "(everything)" : "matching", prefix.c_str());
  return 0;
}

// ---------------------------------------------------------------------
// fault matrix: every simfault kind against every recovery policy rung
// on a fresh tiny device manager, printing the ResilienceReports. The
// output is byte-identical for any --workers value (docs/FAULTS.md).
// ---------------------------------------------------------------------

struct FaultCase {
  const char* label;  ///< row label (stable across spec tweaks)
  const char* spec;   ///< SIMTOMP_FAULT-grammar plan
};

// One case per FaultKind. The transient device-lost pairs consume
// themselves after one attempt (count=1); the SIMD-predicated pair
// heals when the mode fallback drops simdlen to 1; the last two fire
// on every attempt (count=0) and only the fault-stripped host-serial
// reference gets past them.
const FaultCase kFaultCases[] = {
    {"device_lost_pre", "device_lost_pre:count=1"},
    {"device_lost_post", "device_lost_post:count=1"},
    {"trap", "trap:block=0:step=50:count=0:when=simd"},
    {"sharing_exhausted", "sharing_exhausted:block=0:count=0:when=simd"},
    {"barrier_corrupt", "barrier_corrupt:block=0:count=0"},
    {"livelock", "livelock:block=0:count=0"},
};

struct PolicyCase {
  const char* label;
  simfault::ResiliencePolicy policy;
};

std::vector<PolicyCase> policyCases() {
  simfault::ResiliencePolicy retry_only;
  retry_only.modeFallback = false;
  retry_only.hostSerial = false;
  simfault::ResiliencePolicy retry_mode;
  retry_mode.hostSerial = false;
  simfault::ResiliencePolicy full;
  return {{"retry", retry_only}, {"retry+mode", retry_mode}, {"full", full}};
}

constexpr uint64_t kTile = 8;
constexpr uint64_t kTrip = 192;  // 24 tiles of 8, split over 2 teams

/// One cell of the matrix: a fresh manager/device, the classic
/// generic-teams + generic-parallel + simdlen-4 kernel (so every fault
/// site — scheduler steps, barrier arrivals, sharing-space begins — is
/// exercised), the case's fault plan, one resilient launch.
int runFaultCell(const FaultCase& fault, const PolicyCase& policy,
                 uint32_t workers) {
  hostrt::DeviceManager mgr({gpusim::ArchSpec::testTiny()});
  mgr.setDefaultResilience(policy.policy, simfault::ResilienceMode::kOn);

  std::vector<uint64_t> out(kTrip, 0);

  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kGeneric;
  config.numTeams = 2;
  config.threadsPerTeam = 64;
  config.parallelMode = omprt::ExecMode::kGeneric;
  config.simdlen = 4;
  config.hostWorkers = workers;
  config.check.mode = simcheck::CheckMode::kOff;
  config.fault.spec = fault.spec;
  // Small enough that a livelock dies quickly, far above what any
  // healthy attempt of this kernel needs.
  config.watchdogSteps = 200000;

  omprt::ParallelConfig pc;
  pc.modeAuto = true;           // follow the launch-wide parallel mode
  pc.simdGroupSize = 0;         // follow the launch-wide simdlen
  // Three-level structure (teams / parallel-for over tiles / simd over
  // lanes) so generic-mode launches route tile arguments through the
  // sharing space — the kSharingExhausted site.
  auto region = [&](omprt::OmpContext& ctx) {
    const omprt::rt::Range r =
        omprt::rt::distributeStatic(ctx, kTrip / kTile);
    auto tile_body = [&out, base = r.begin](omprt::OmpContext& c,
                                            uint64_t logical) {
      const uint64_t tile = base + logical;
      c.gpu().work(2);
      dsl::simd(c, kTile, [&out, tile](omprt::OmpContext& cc, uint64_t lane) {
        const uint64_t i = tile * kTile + lane;
        cc.gpu().work(2);
        out[i] = 3 * i + 7;
      });
    };
    dsl::parallelFor(ctx, r.size(), tile_body, pc);
  };

  const auto stats = mgr.launchOn(0, config, region);
  const simfault::ResilienceReport& report = mgr.lastResilienceReport(0);

  std::printf("=== fault=%s policy=%s ===\n", fault.label, policy.label);
  std::printf("health: %s\n",
              std::string(simfault::deviceHealthName(mgr.deviceHealth(0)))
                  .c_str());
  std::printf("%s", report.toString().c_str());
  if (stats.isOk()) {
    bool verified = true;
    for (uint64_t i = 0; i < kTrip; ++i) {
      if (out[i] != 3 * i + 7) verified = false;
    }
    std::printf("verify: %s\n", verified ? "ok" : "FAIL");
    if (!verified) return 1;
  } else {
    std::printf("verify: skipped (launch failed)\n");
  }
  std::printf("\n");
  return 0;
}

int faultMatrix(const Command& self, Args args) {
  uint32_t workers = 1;
  const cli::Flag flags[] = {
      {"--workers",
       cli::KnobFlag<uint32_t>{&gpusim::kHostWorkersKnob, &workers}},
  };
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, flags, pos, 0, 0); !st.isOk()) {
    return usageError(self, st);
  }
  // The report header is part of the byte-compare surface CI diffs.
  std::printf("simtomp_fault matrix: %zu fault kinds x %zu policies\n\n",
              std::size(kFaultCases), policyCases().size());
  int rc = 0;
  for (const FaultCase& fault : kFaultCases) {
    for (const PolicyCase& policy : policyCases()) {
      rc |= runFaultCell(fault, policy, workers);
    }
  }
  return rc;
}

// ---------------------------------------------------------------------
// fuzz: the deterministic differential kernel fuzzer (docs/FUZZING.md).
//
// `run` generates one program per seed in the half-open --seeds range,
// runs each through the differential matrix, minimizes every
// divergence and prints the findings log (byte-identical across reruns
// and for any SIMTOMP_HOST_WORKERS); exit 1 when any seed diverged.
// `show` prints one seed's program; `repro` re-runs a stored program
// (first non-comment line; '-' reads stdin) and exits 1 if it still
// diverges; `minimize` shrinks a diverging program.
// ---------------------------------------------------------------------

void printNotes(const simfuzz::DiffResult& diff) {
  for (const std::string& note : diff.notes) {
    std::printf("  note %s\n", note.c_str());
  }
  if (diff.droppedNotes != 0) {
    std::printf("  (+%llu more notes)\n",
                static_cast<unsigned long long>(diff.droppedNotes));
  }
}

int fuzzRun(const Command& self, Args args) {
  simfuzz::CampaignOptions opt;
  cli::SeedRange seeds{opt.seedBegin, opt.seedEnd};
  std::string inject, emit_dir;
  bool tiny_only = false, no_minimize = false;
  const cli::Flag flags[] = {
      {"--seeds", &seeds},
      {"--salt", &opt.generatorSalt},
      {"--inject", &inject},
      {"--fault", &opt.diff.faultSpec},
      {"--tiny-only", &tiny_only},
      {"--no-minimize", &no_minimize},
      {"--emit-repro", &emit_dir},
  };
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, flags, pos, 0, 0); !st.isOk()) {
    return usageError(self, st);
  }
  if (inject == "offbyone") {
    opt.inject = simfuzz::InjectKind::kOffByOne;
  } else if (inject == "dropiter") {
    opt.inject = simfuzz::InjectKind::kDropIteration;
  } else if (!inject.empty() && inject != "none") {
    return usageError(self, Status::invalidArgument("unknown inject kind '" +
                                                    inject + "'"));
  }
  opt.seedBegin = seeds.begin;
  opt.seedEnd = seeds.end;
  if (tiny_only) opt.diff.crossArch = false;
  if (no_minimize) opt.minimize = false;

  const simfuzz::CampaignResult result = simfuzz::runCampaign(opt);
  std::fputs(result.log.c_str(), stdout);

  if (!emit_dir.empty()) {
    for (const simfuzz::Finding& finding : result.findings) {
      const std::string path =
          emit_dir + "/seed" + std::to_string(finding.seed) + ".fuzzprog";
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "simtomp fuzz: cannot write %s\n", path.c_str());
        return kExitUsage;
      }
      out << "# simtomp fuzz finding, seed " << finding.seed << " ("
          << finding.notes.size() << " notes)\n"
          << finding.minimized.serialize() << "\n";
    }
  }
  return result.findings.empty() ? 0 : 1;
}

int fuzzShow(const Command& self, Args args) {
  std::string seed_text;
  uint64_t salt = 0;
  const cli::Flag flags[] = {{"--seed", &seed_text}, {"--salt", &salt}};
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, flags, pos, 0, 0); !st.isOk()) {
    return usageError(self, st);
  }
  if (seed_text.empty()) {
    return usageError(self, Status::invalidArgument("--seed is required"));
  }
  const Result<uint64_t> seed = parseUnsigned(seed_text);
  if (!seed.isOk()) return usageError(self, seed.status());
  const simfuzz::Generator gen(salt);
  std::printf("%s\n", gen.generate(seed.value()).serialize().c_str());
  return 0;
}

/// Load the program stored in `path` ('-' = stdin) and echo it as
/// "program: <line>"; nullopt after printing why it could not be read
/// or parsed.
std::optional<simfuzz::FuzzProgram> loadProgram(std::string_view path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in{std::string(path)};
    if (!in) {
      std::fprintf(stderr, "simtomp fuzz: cannot read %.*s\n",
                   static_cast<int>(path.size()), path.data());
      return std::nullopt;
    }
    buffer << in.rdbuf();
  }
  auto parsed = simfuzz::FuzzProgram::parse(buffer.str());
  if (!parsed.isOk()) {
    std::fprintf(stderr, "simtomp fuzz: %s\n",
                 parsed.status().toString().c_str());
    return std::nullopt;
  }
  std::printf("program: %s\n", parsed.value().serialize().c_str());
  return parsed.value();
}

int fuzzRepro(const Command& self, Args args) {
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, {}, pos, 1, 1); !st.isOk()) {
    return usageError(self, st);
  }
  const std::optional<simfuzz::FuzzProgram> program = loadProgram(pos[0]);
  if (!program.has_value()) return kExitUsage;
  const simfuzz::DiffResult diff = simfuzz::diffProgram(*program);
  if (!diff.diverged()) {
    std::printf("clean (%llu runs)\n",
                static_cast<unsigned long long>(diff.runs));
    return 0;
  }
  std::printf("DIVERGE notes=%zu\n", diff.notes.size());
  printNotes(diff);
  return 1;
}

/// Prints the shrink trail and the minimized canonical line; exit 1
/// when the program diverged (and so was minimized).
int fuzzMinimize(const Command& self, Args args) {
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, {}, pos, 1, 1); !st.isOk()) {
    return usageError(self, st);
  }
  const std::optional<simfuzz::FuzzProgram> program = loadProgram(pos[0]);
  if (!program.has_value()) return kExitUsage;
  const simfuzz::DiffResult initial = simfuzz::diffProgram(*program);
  if (!initial.diverged()) {
    std::printf("clean — nothing to minimize\n");
    return 0;
  }
  printNotes(initial);

  simfuzz::DiffOptions minimize_opt;
  minimize_opt.failFast = true;
  const simfuzz::MinimizeResult mini = simfuzz::minimizeProgram(
      *program, [&](const simfuzz::FuzzProgram& candidate) {
        return simfuzz::diffProgram(candidate, minimize_opt).diverged();
      });
  std::printf("minimized (%u steps, %u candidates): %s\n", mini.steps,
              mini.tested, mini.program.serialize().c_str());
  return 1;
}

// ---------------------------------------------------------------------
// serve: generate and replay launch-service request mixes
// (docs/SERVING.md).
//
// `gen` writes a deterministic mix (same flags, same bytes) in the
// format of src/simserve/mix.h. `replay` drives it through a
// LaunchService over fresh tiny devices and prints the service's stats
// dump. `trace` replays the same way with request tracing on and
// prints the surfaces of src/simserve/trace.h: per-request span
// timelines (--req narrows to one id), the per-tenant SLO burn
// summary, queue-delay/batch-size histograms and the canonical
// flight-recorder dump; --physical adds device/shard detail and the
// physical ring (not a byte-compare surface). `chaos` runs the seeded
// fault campaign of src/simserve/chaos.h over the half-open --seeds
// range and exits 0 only when every invariant held for every seed;
// with --trace --flight FILE a violating seed's flight recorder is
// dumped, and --plant-violation drills that path. Replay stats, trace
// dumps and chaos reports are byte-identical across reruns, --workers
// and --shards.
// ---------------------------------------------------------------------

int serveGen(const Command& self, Args args) {
  simserve::MixProfile profile;
  std::string out_path;
  const cli::Flag flags[] = {
      {"--seed", &profile.seed},
      {"--tenants", &profile.tenants},
      {"--requests", &profile.requests},
      {"--pump-every", &profile.pumpEvery},
      {"--fault-permille", &profile.faultPermille},
      {"--out", &out_path},
  };
  std::vector<std::string_view> pos;
  if (const Status st = parseArgs(args, flags, pos, 0, 0); !st.isOk()) {
    return usageError(self, st);
  }
  const std::string text = simserve::generateMix(profile).toString();
  if (out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  return writeTo(out_path, [&](std::ostream& out) { out << text; }) ? 0 : 1;
}

/// The flags `replay` and `trace` share: where and how to replay.
struct ReplaySetup {
  uint32_t devices = 4;
  uint32_t shards = 0;
  uint32_t workers = 1;
};

/// Replay the mix at `path` through a fresh service over `devices`
/// tiny devices, then hand the service and report to `done`.
int replayMixFile(std::string_view path, const ReplaySetup& setup,
                  simserve::ServiceConfig config,
                  const std::function<int(simserve::LaunchService&,
                                          const simserve::ReplayReport&)>&
                      done) {
  std::ifstream in{std::string(path)};
  if (!in) {
    std::fprintf(stderr, "simtomp serve: cannot read %.*s\n",
                 static_cast<int>(path.size()), path.data());
    return kExitUsage;
  }
  const Result<simserve::Mix> mix = simserve::parseMix(in);
  if (!mix.isOk()) {
    std::fprintf(stderr, "simtomp serve: %s\n",
                 mix.status().toString().c_str());
    return kExitUsage;
  }
  std::vector<gpusim::ArchSpec> specs(setup.devices,
                                      gpusim::ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  config.shardCount = setup.shards;
  simserve::LaunchService service(mgr, config);

  const Result<simserve::ReplayReport> report =
      simserve::replayMix(service, mix.value(), setup.workers);
  if (!report.isOk()) {
    std::fprintf(stderr, "simtomp serve: replay failed: %s\n",
                 report.status().toString().c_str());
    return 1;
  }
  return done(service, report.value());
}

int serveReplay(const Command& self, Args args) {
  ReplaySetup setup;
  std::string stats_path;
  const cli::Flag flags[] = {
      {"--devices", &setup.devices},
      {"--shards", &setup.shards},
      {"--workers",
       cli::KnobFlag<uint32_t>{&gpusim::kHostWorkersKnob, &setup.workers}},
      {"--stats", &stats_path},
  };
  std::vector<std::string_view> pos;
  Status st = parseArgs(args, flags, pos, 1, 1);
  if (st.isOk() && setup.devices == 0) {
    st = Status::invalidArgument("--devices must be at least 1");
  }
  if (!st.isOk()) return usageError(self, st);
  const std::string_view mix_path = pos[0];
  return replayMixFile(
      mix_path, setup, {},
      [&](simserve::LaunchService& service,
          const simserve::ReplayReport& report) {
        std::printf("replay %.*s: %s\n", static_cast<int>(mix_path.size()),
                    mix_path.data(), report.toString().c_str());
        std::ostringstream stats;
        service.dumpStats(stats);
        std::fputs(stats.str().c_str(), stdout);
        if (stats_path.empty()) return 0;
        return writeTo(stats_path,
                       [&](std::ostream& out) { out << stats.str(); })
                   ? 0
                   : 1;
      });
}

int serveTrace(const Command& self, Args args) {
  ReplaySetup setup;
  uint64_t ring = 8192;
  uint64_t req_id = UINT64_MAX;
  bool physical = false;
  std::string flight_path, perfetto_path;
  const cli::Flag flags[] = {
      {"--devices", &setup.devices},
      {"--shards", &setup.shards},
      {"--workers",
       cli::KnobFlag<uint32_t>{&gpusim::kHostWorkersKnob, &setup.workers}},
      {"--req", &req_id, UINT64_MAX - 1},
      {"--physical", &physical},
      {"--ring", &ring},
      {"--flight", &flight_path},
      {"--perfetto", &perfetto_path},
  };
  std::vector<std::string_view> pos;
  Status st = parseArgs(args, flags, pos, 1, 1);
  if (st.isOk() && (setup.devices == 0 || ring == 0)) {
    st = Status::invalidArgument("--devices and --ring must be at least 1");
  }
  if (!st.isOk()) return usageError(self, st);
  const std::string_view mix_path = pos[0];
  simserve::ServiceConfig config;
  config.trace.enabled = true;
  config.trace.ringCapacity = ring;
  return replayMixFile(
      mix_path, setup, config,
      [&](simserve::LaunchService& service,
          const simserve::ReplayReport& report) {
        std::cout << "trace " << mix_path << ": " << report.toString()
                  << "\n";
        if (req_id != UINT64_MAX) {
          const Status dumped =
              service.dumpTimeline(std::cout, req_id, physical);
          if (!dumped.isOk()) {
            std::fprintf(stderr, "simtomp serve: %s\n",
                         dumped.toString().c_str());
            return kExitUsage;
          }
        } else {
          service.dumpTimelines(std::cout, physical);
        }
        service.dumpTenantSummary(std::cout);
        service.dumpHistograms(std::cout);
        const simserve::ServiceTracer* tracer = service.tracer();
        tracer->dumpFlight(std::cout, physical);
        if (!flight_path.empty()) {
          const Status wrote =
              tracer->dumpFlightToFile(flight_path, physical, "on_demand");
          if (!wrote.isOk()) {
            std::fprintf(stderr, "simtomp serve: %s\n",
                         wrote.toString().c_str());
            return 1;
          }
        }
        if (!perfetto_path.empty()) {
          gpusim::TraceRecorder recorder;
          service.exportPerfetto(recorder);
          const Status wrote = recorder.writeChromeJson(perfetto_path);
          if (!wrote.isOk()) {
            std::fprintf(stderr, "simtomp serve: %s\n",
                         wrote.toString().c_str());
            return 1;
          }
        }
        return 0;
      });
}

int serveChaos(const Command& self, Args args) {
  simserve::ChaosConfig config;
  // ChaosConfig's seed fields are inclusive; the flag is half-open.
  cli::SeedRange seeds{config.seedLo, config.seedHi + 1};
  std::string out_path;
  const cli::Flag flags[] = {
      {"--seeds", &seeds},
      {"--devices", &config.devices},
      {"--shards", &config.shards},
      {"--workers",
       cli::KnobFlag<uint32_t>{&gpusim::kHostWorkersKnob, &config.workers}},
      {"--epochs", &config.epochs},
      {"--requests", &config.requests},
      {"--out", &out_path},
      {"--trace", &config.trace},
      {"--flight", &config.flightPath},
      {"--plant-violation", &config.plantViolation},
  };
  std::vector<std::string_view> pos;
  Status st = parseArgs(args, flags, pos, 0, 0);
  if (st.isOk() && seeds.begin == seeds.end) {
    st = Status::invalidArgument("empty seed range");
  }
  if (!st.isOk()) return usageError(self, st);
  config.seedLo = seeds.begin;
  config.seedHi = seeds.end - 1;

  const Result<simserve::ChaosReport> report =
      simserve::runChaosCampaign(config);
  if (!report.isOk()) {
    std::fprintf(stderr, "simtomp serve: %s\n",
                 report.status().toString().c_str());
    return kExitUsage;
  }
  const std::string& text = report.value().text;
  std::fwrite(text.data(), 1, text.size(), stdout);
  if (!out_path.empty() &&
      !writeTo(out_path, [&](std::ostream& out) { out << text; })) {
    return 1;
  }
  if (!report.value().violations.empty()) {
    std::fprintf(stderr,
                 "simtomp serve: chaos campaign found %zu violations\n",
                 report.value().violations.size());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// The subcommand table: dispatch and usage both come from it.
// ---------------------------------------------------------------------

const Command kCommands[] = {
    {"run", "",
     "<app> \"<directive>\" "
     "[--csv | --prof | --folded | --json] [--trace PATH] "
     "[--metrics PATH|-]",
     cmdRun},
    {"info", "", "", noArgs<infoPresets>},
    {"info", "occupancy", "<threads> [sharedBytes]", infoOccupancy},
    {"info", "groups", "<threads>", infoGroups},
    {"info", "check", "", noArgs<infoCheck>},
    {"info", "tune", "", noArgs<infoTune>},
    {"info", "prof", "", noArgs<infoProf>},
    {"info", "counters", "", noArgs<infoCounters>},
    {"info", "metrics", "", noArgs<infoMetrics>},
    {"info", "metrics=prom", "", noArgs<infoMetricsProm>},
    {"info", "metrics=json", "", noArgs<infoMetricsJson>},
    {"tune", "tune",
     "[--apps a,b,c] [--arch a100|mi100|tiny] "
     "[--strategy exhaustive|hill] [--budget N] [--workers 1..65] "
     "[--cache PATH] [--check off|report|fatal] [--small] [--retune]",
     tuneTune},
    {"tune", "list", "[--cache PATH]", tuneList},
    {"tune", "evict", "<prefix> [--cache PATH]", tuneEvict},
    {"tune", "clear", "[--cache PATH]", tuneEvict},
    {"fault", "matrix", "[--workers 1..65]", faultMatrix},
    {"fuzz", "run",
     "[--seeds A..B] [--salt S] [--inject none|offbyone|dropiter] "
     "[--fault SPEC] [--tiny-only] [--no-minimize] [--emit-repro DIR]",
     fuzzRun},
    {"fuzz", "show", "--seed N [--salt S]", fuzzShow},
    {"fuzz", "repro", "<file|->", fuzzRepro},
    {"fuzz", "minimize", "<file|->", fuzzMinimize},
    {"serve", "gen",
     "[--seed S] [--tenants T] [--requests R] [--pump-every P] "
     "[--fault-permille F] [--out FILE]",
     serveGen},
    {"serve", "replay",
     "FILE [--devices D] [--shards S] [--workers 1..65] [--stats FILE]",
     serveReplay},
    {"serve", "trace",
     "FILE [--devices D] [--shards S] [--workers 1..65] [--req ID] "
     "[--physical] [--ring N] [--flight FILE] [--perfetto FILE]",
     serveTrace},
    {"serve", "chaos",
     "[--seeds A..B] [--devices D] [--shards S] [--workers 1..65] "
     "[--epochs E] [--requests R] [--out FILE] [--trace] [--flight FILE] "
     "[--plant-violation]",
     serveChaos},
};

int usage(std::string_view name) {
  std::fprintf(stderr, "usage:\n");
  for (const Command& c : kCommands) {
    if (!name.empty() && name != c.name) continue;
    std::string line = std::string("  simtomp ") + c.name;
    for (const char* word : {c.action, c.synopsis}) {
      if (*word != '\0') line += std::string(" ") + word;
    }
    // `<app>` is a choice of the app corpus names.
    if (const size_t at = line.find("<app>"); at != std::string::npos) {
      std::string names;
      for (const apps::TunableApp& app :
           apps::tunableCorpus(gpusim::ArchSpec::nvidiaA100(), true)) {
        names += (names.empty() ? "<" : "|") + app.name;
      }
      line.replace(at, 5, names + ">");
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  return kExitUsage;
}

}  // namespace
}  // namespace simtomp

int main(int argc, char** argv) {
  using simtomp::kCommands;
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  if (args.empty()) return simtomp::usage("");
  const simtomp::Command* bare = nullptr;
  bool known = false;
  for (const simtomp::Command& c : kCommands) {
    if (args[0] != c.name) continue;
    known = true;
    if (*c.action == '\0') {
      bare = &c;
    } else if (args.size() > 1 && args[1] == c.action) {
      return c.run(c, simtomp::Args(args).subspan(2));
    }
  }
  if (bare != nullptr) return bare->run(*bare, simtomp::Args(args).subspan(1));
  return simtomp::usage(known ? args[0] : "");
}
