// simtomp_info: inspect the simulated architectures and launch shapes.
//
//   simtomp_info                      — list the architecture presets
//   simtomp_info occupancy T [S]      — occupancy table for blocks of T
//                                       threads using S bytes of shared
//                                       memory (default: the runtime's
//                                       2,048-byte sharing space)
//   simtomp_info groups T             — legal SIMD group configurations
//                                       for a team of T worker threads
//   simtomp_info --check              — how simcheck (the correctness
//                                       sanitizer) would resolve for a
//                                       launch in this environment
//   simtomp_info --tune               — how simtune (the autotuner)
//                                       would resolve: tune mode, cache
//                                       path, entry count, and hit/miss
//                                       per demo kernel
//   simtomp_info --prof               — how simprof (the profiler)
//                                       would resolve for a launch in
//                                       this environment
//   simtomp_info --counters           — the per-launch event counters
//                                       (KernelStats) with descriptions
//   simtomp_info --metrics            — the process-wide metrics
//                                       catalog (simprof registry)
//   simtomp_info --metrics=prom|json  — the registry's current values
//                                       in Prometheus text or JSON form
//                                       (the same two formats the
//                                       SIMTOMP_METRICS exit dump
//                                       writes)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "apps/tunable.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "gpusim/knobs.h"
#include "gpusim/occupancy.h"
#include "gpusim/stats.h"
#include "omprt/target.h"
#include "simprof/metrics.h"
#include "simtune/cache.h"
#include "simtune/tuner.h"

using namespace simtomp;

namespace {

const gpusim::ArchSpec kPresets[] = {
    gpusim::ArchSpec::nvidiaA100(),
    gpusim::ArchSpec::amdMI100(),
    gpusim::ArchSpec::testTiny(),
};

void listPresets() {
  std::printf("%-10s %-7s %5s %5s %9s %11s %12s %s\n", "name", "vendor",
              "warp", "SMs", "thr/blk", "shared/blk", "shared/SM",
              "warp barriers");
  for (const auto& arch : kPresets) {
    std::printf("%-10s %-7s %5u %5u %9u %10uK %11uK %s\n", arch.name.c_str(),
                arch.vendor == gpusim::Vendor::kNvidia ? "nvidia" : "amd",
                arch.warpSize, arch.numSMs, arch.maxThreadsPerBlock,
                arch.sharedMemPerBlock / 1024, arch.sharedMemPerSM / 1024,
                arch.hasWarpLevelBarrier ? "yes" : "no");
  }
}

void occupancyTable(uint32_t threads, uint32_t shared_bytes) {
  std::printf("occupancy for %u threads/block, %u shared bytes/block:\n",
              threads, shared_bytes);
  std::printf("%-10s %9s %12s %12s %10s\n", "arch", "warps/blk",
              "blk/SM(thr)", "blk/SM(shm)", "occupancy");
  for (const auto& arch : kPresets) {
    const gpusim::OccupancyInfo info =
        gpusim::computeOccupancy(arch, threads, shared_bytes);
    std::printf("%-10s %9u %12u %12u %9.0f%%\n", arch.name.c_str(),
                info.warpsPerBlock, info.blocksPerSmByThreads,
                info.blocksPerSmByShared, info.warpOccupancy * 100.0);
  }
}

void groupTable(uint32_t threads) {
  std::printf("SIMD group configurations for %u worker threads:\n", threads);
  for (const auto& arch : kPresets) {
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

void tuneInfo() {
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
      std::printf("  %-16s miss  (b%u; run simtomp_tune to fill)\n",
                  app.name.c_str(), key.bucket);
    }
  }
}

// The next two render straight from the authoritative tables
// (gpusim::counterName/counterDescription and simprof::allMetricDefs),
// so this listing cannot drift from what the runtime records.
void counterTable() {
  std::printf("per-launch event counters (KernelStats.counters):\n");
  std::printf("  %-22s %s\n", "name", "description");
  for (size_t i = 0; i < gpusim::kNumCounters; ++i) {
    const auto c = static_cast<gpusim::Counter>(i);
    std::printf("  %-22s %s\n",
                std::string(gpusim::counterName(c)).c_str(),
                std::string(gpusim::counterDescription(c)).c_str());
  }
}

void metricTable() {
  std::printf("process-wide metrics (simprof registry):\n");
  std::printf("  %-42s %-9s %s\n", "name", "type", "description");
  for (const simprof::MetricDef& def : simprof::allMetricDefs()) {
    std::printf("  %-42s %-9s %s\n", std::string(def.name).c_str(),
                std::string(simprof::metricTypeName(def.type)).c_str(),
                std::string(def.help).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc <= 1) {
    listPresets();
    return 0;
  }
  if (std::strcmp(argv[1], "occupancy") == 0 && argc >= 3) {
    const auto threads = static_cast<uint32_t>(std::atoi(argv[2]));
    const uint32_t shared_bytes =
        argc >= 4 ? static_cast<uint32_t>(std::atoi(argv[3]))
                  : omprt::kDefaultSharingSpaceBytes;
    occupancyTable(threads, shared_bytes);
    return 0;
  }
  if (std::strcmp(argv[1], "groups") == 0 && argc >= 3) {
    groupTable(static_cast<uint32_t>(std::atoi(argv[2])));
    return 0;
  }
  if (std::strcmp(argv[1], "--check") == 0 ||
      std::strcmp(argv[1], "check") == 0) {
    knobInfo("simcheck", gpusim::kCheckKnob);
    return 0;
  }
  if (std::strcmp(argv[1], "--tune") == 0 ||
      std::strcmp(argv[1], "tune") == 0) {
    tuneInfo();
    return 0;
  }
  if (std::strcmp(argv[1], "--prof") == 0 ||
      std::strcmp(argv[1], "prof") == 0) {
    knobInfo("simprof", gpusim::kProfileKnob);
    std::printf(
        "SIMTOMP_METRICS=<path> dumps the metrics registry at exit\n");
    return 0;
  }
  if (std::strcmp(argv[1], "--counters") == 0 ||
      std::strcmp(argv[1], "counters") == 0) {
    counterTable();
    return 0;
  }
  if (std::strcmp(argv[1], "--metrics") == 0 ||
      std::strcmp(argv[1], "metrics") == 0) {
    metricTable();
    return 0;
  }
  if (std::strcmp(argv[1], "--metrics=prom") == 0 ||
      std::strcmp(argv[1], "metrics=prom") == 0) {
    simprof::MetricsRegistry::global().writePrometheus(std::cout);
    return 0;
  }
  if (std::strcmp(argv[1], "--metrics=json") == 0 ||
      std::strcmp(argv[1], "metrics=json") == 0) {
    simprof::MetricsRegistry::global().writeJson(std::cout);
    return 0;
  }
  std::fprintf(stderr,
               "usage: simtomp_info [occupancy <threads> [sharedBytes] | "
               "groups <threads> | --check | --tune | --prof | --counters | "
               "--metrics | --metrics=prom | --metrics=json]\n");
  return 2;
}
