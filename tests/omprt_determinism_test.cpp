// Determinism contract for host-parallel block execution (DESIGN.md
// §3): for any hostWorkers value, a launch produces bit-identical
// KernelStats — cycles, busy cycles, every counter — and identical
// computed results. Exercised on the two most race-prone shapes: the
// fig9 sparse_matvec 3-level atomic kernel (global atomics from every
// team) and a dynamic-schedule workshare loop (contended iteration
// claiming inside each team).
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "apps/csr.h"
#include "apps/sparse_matvec.h"
#include "omprt/runtime.h"
#include "omprt/target.h"
#include "scoped_env.h"

namespace simtomp::omprt {
namespace {

using gpusim::ArchSpec;
using gpusim::Device;
using gpusim::KernelStats;

constexpr uint32_t kWorkerCounts[] = {1, 2, 8};

void expectIdenticalStats(const KernelStats& got, const KernelStats& want,
                          uint32_t workers) {
  EXPECT_EQ(got.cycles, want.cycles) << workers << " workers";
  EXPECT_EQ(got.busyCycles, want.busyCycles) << workers << " workers";
  EXPECT_EQ(got.maxThreadCycles, want.maxThreadCycles)
      << workers << " workers";
  EXPECT_EQ(got.numBlocks, want.numBlocks);
  EXPECT_EQ(got.threadsPerBlock, want.threadsPerBlock);
  EXPECT_EQ(got.waves, want.waves);
  EXPECT_EQ(got.peakSharedBytes, want.peakSharedBytes);
  EXPECT_EQ(got.counters.values, want.counters.values)
      << workers << " workers";
}

TEST(DeterminismTest, SpmvThreeLevelAtomicStatsIdenticalAcrossWorkers) {
  apps::CsrGenConfig gen;
  gen.numRows = 512;
  gen.numCols = 512;
  gen.meanRowLength = 8;
  gen.maxRowLength = 48;
  gen.seed = 13;
  const apps::CsrMatrix A = apps::generateCsr(gen);

  apps::SpmvOptions options;
  options.variant = apps::SpmvVariant::kThreeLevelAtomic;
  options.numTeams = 16;
  options.threadsPerTeam = 128;
  options.simdlen = 8;

  KernelStats serial;
  for (uint32_t workers : kWorkerCounts) {
    Device dev;
    options.hostWorkers = workers;
    auto result = apps::runSpmv(dev, A, options);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_TRUE(result.value().verified) << workers << " workers";
    if (workers == 1) {
      serial = result.value().stats;
    } else {
      expectIdenticalStats(result.value().stats, serial, workers);
    }
  }
}

struct DynProbe {
  std::vector<std::atomic<int>> hits;
  explicit DynProbe(size_t n) : hits(n) {}
};

void dynBody(OmpContext& ctx, uint64_t iv, void** args) {
  auto* probe = static_cast<DynProbe*>(args[0]);
  probe->hits[iv]++;
  // Skewed iteration cost: dynamic claiming order differs run to run,
  // but charged work per iteration does not.
  ctx.gpu().work(1 + iv % 7);
}

void dynRegion(OmpContext& ctx, void** args) {
  rt::workshareForScheduled(ctx, 301, &dynBody, args,
                            {ForSchedule::kDynamic, 4});
}

KernelStats runDynamicSchedule(uint32_t host_workers, DynProbe& probe) {
  Device dev(ArchSpec::testTiny());
  TargetConfig config;
  config.teamsMode = ExecMode::kSPMD;
  config.numTeams = 6;
  config.threadsPerTeam = 64;
  config.hostWorkers = host_workers;
  void* args[] = {&probe};
  auto stats = launchTarget(dev, config, [&](OmpContext& ctx) {
    rt::parallel(ctx, &dynRegion, args, 1, {ExecMode::kSPMD, 1});
  });
  EXPECT_TRUE(stats.isOk()) << stats.status().toString();
  return stats.isOk() ? stats.value() : KernelStats{};
}

TEST(DeterminismTest, DynamicScheduleStatsIdenticalAcrossWorkers) {
  KernelStats serial;
  for (uint32_t workers : kWorkerCounts) {
    DynProbe probe(301);
    const KernelStats stats = runDynamicSchedule(workers, probe);
    // Every team workshares the full trip count: 6 teams each run
    // every iteration exactly once.
    for (size_t iv = 0; iv < 301; ++iv) {
      ASSERT_EQ(probe.hits[iv].load(), 6) << "iv " << iv;
    }
    if (workers == 1) {
      serial = stats;
    } else {
      expectIdenticalStats(stats, serial, workers);
    }
  }
}

TEST(DeterminismTest, EnvVarWorkerCountPreservesStats) {
  // hostWorkers=0 defers to SIMTOMP_HOST_WORKERS; the env path must
  // honor the same contract as the explicit one.
  DynProbe serial_probe(301);
  const KernelStats serial = runDynamicSchedule(1, serial_probe);

  DynProbe env_probe(301);
  KernelStats via_env;
  {
    test::ScopedEnv env("SIMTOMP_HOST_WORKERS", "8");
    via_env = runDynamicSchedule(0, env_probe);
  }
  expectIdenticalStats(via_env, serial, 8);
}

}  // namespace
}  // namespace simtomp::omprt
