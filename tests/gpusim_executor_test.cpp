// Unit tests for the host-parallel block execution engine: pool
// correctness (every index exactly once, nesting, concurrent clients),
// worker-count resolution, and the determinism contract at the Device
// layer — identical stats, counters, trace, check report and profile
// for any hostWorkers, also when the launch fails.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/executor.h"
#include "gpusim/knobs.h"
#include "scoped_env.h"

namespace simtomp::gpusim {
namespace {

using test::ScopedEnv;

TEST(ResolveHostWorkersTest, ExplicitRequestWins) {
  ScopedEnv env("SIMTOMP_HOST_WORKERS", "16");
  EXPECT_EQ(resolveKnob(kHostWorkersKnob, 3).value, 3u);
  EXPECT_EQ(resolveKnob(kHostWorkersKnob, 1).value, 1u);
}

TEST(ResolveHostWorkersTest, EnvVarUsedWhenAuto) {
  ScopedEnv env("SIMTOMP_HOST_WORKERS", "5");
  EXPECT_EQ(resolveKnob(kHostWorkersKnob, 0).value, 5u);
}

TEST(ResolveHostWorkersTest, GarbageEnvFallsBackToHardware) {
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  {
    ScopedEnv env("SIMTOMP_HOST_WORKERS", "banana");
    EXPECT_EQ(resolveKnob(kHostWorkersKnob, 0).value, hw);
  }
  {
    ScopedEnv env("SIMTOMP_HOST_WORKERS", "0");
    EXPECT_EQ(resolveKnob(kHostWorkersKnob, 0).value, hw);
  }
  {
    ScopedEnv env("SIMTOMP_HOST_WORKERS", nullptr);
    EXPECT_EQ(resolveKnob(kHostWorkersKnob, 0).value, hw);
  }
}

TEST(BlockExecutorTest, RunsEveryIndexExactlyOnce) {
  BlockExecutor pool;
  constexpr uint32_t kCount = 100;
  std::vector<std::atomic<uint32_t>> hits(kCount);
  pool.parallelFor(kCount, 4, [&](uint32_t i) { hits[i]++; });
  for (uint32_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(BlockExecutorTest, SingleWorkerRunsInlineWithoutHelpers) {
  BlockExecutor pool;
  const std::thread::id caller = std::this_thread::get_id();
  uint32_t sum = 0;  // no atomics needed: must stay on this thread
  pool.parallelFor(10, 1, [&](uint32_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sum += i;
  });
  EXPECT_EQ(sum, 45u);
  EXPECT_EQ(pool.helperCount(), 0u);
}

TEST(BlockExecutorTest, NestedCallsRunInline) {
  BlockExecutor pool;
  std::atomic<uint32_t> inner_total{0};
  pool.parallelFor(4, 4, [&](uint32_t) {
    // A worker calling back into the pool must not deadlock waiting
    // for helpers occupied by its own outer job.
    pool.parallelFor(8, 4, [&](uint32_t) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 4u * 8u);
}

TEST(BlockExecutorTest, ConcurrentClientsShareThePool) {
  BlockExecutor pool;
  std::atomic<uint32_t> a{0};
  std::atomic<uint32_t> b{0};
  std::thread other(
      [&] { pool.parallelFor(64, 4, [&](uint32_t) { a++; }); });
  pool.parallelFor(64, 4, [&](uint32_t) { b++; });
  other.join();
  EXPECT_EQ(a.load(), 64u);
  EXPECT_EQ(b.load(), 64u);
}

TEST(BlockExecutorTest, HelperCountGrowsOnDemandAndIsCapped) {
  BlockExecutor pool;
  pool.parallelFor(32, 8, [](uint32_t) {});
  // 8 workers = the caller + up to 7 helpers; lazy spawn may stop
  // early if the job drains first, but never exceeds the budget.
  EXPECT_LE(pool.helperCount(), 7u);
  pool.parallelFor(BlockExecutor::kMaxHelpers * 2,
                   BlockExecutor::kMaxHelpers + 100, [](uint32_t) {});
  EXPECT_LE(pool.helperCount(), static_cast<size_t>(BlockExecutor::kMaxHelpers));
}

/// Skewed compute + global atomics + barriers: enough machinery that a
/// nondeterministic merge would almost surely move some number.
KernelStats runDeterminismKernel(uint32_t host_workers,
                                 TraceRecorder* trace) {
  Device dev(ArchSpec::testTiny());
  auto sums = dev.allocateArray<double>(4);
  EXPECT_TRUE(sums.isOk());
  for (size_t i = 0; i < 4; ++i) sums.value().raw(i) = 0.0;
  dev.setTraceRecorder(trace);

  LaunchConfig config;
  config.numBlocks = 7;
  config.threadsPerBlock = 64;
  config.hostWorkers = host_workers;
  auto stats = dev.launch(config, [&](ThreadCtx& t) {
    t.work(100 * (t.blockId() + 1));
    t.chargeGlobalLoad(2);
    sums.value().atomicAdd(t, t.blockId() % 4, 1.0);
    t.syncBlock();
    t.work(t.threadId());
  });
  EXPECT_TRUE(stats.isOk()) << stats.status().toString();

  double total = 0.0;
  for (size_t i = 0; i < 4; ++i) total += sums.value().raw(i);
  EXPECT_EQ(total, 7.0 * 64.0);
  return stats.isOk() ? stats.value() : KernelStats{};
}

TEST(BlockExecutorTest, DeviceLaunchIsDeterministicAcrossWorkerCounts) {
  TraceRecorder serial_trace;
  const KernelStats serial = runDeterminismKernel(1, &serial_trace);

  for (uint32_t workers : {2u, 4u, 8u}) {
    TraceRecorder trace;
    const KernelStats parallel = runDeterminismKernel(workers, &trace);

    EXPECT_EQ(parallel.cycles, serial.cycles) << workers << " workers";
    EXPECT_EQ(parallel.busyCycles, serial.busyCycles);
    EXPECT_EQ(parallel.maxThreadCycles, serial.maxThreadCycles);
    EXPECT_EQ(parallel.numBlocks, serial.numBlocks);
    EXPECT_EQ(parallel.threadsPerBlock, serial.threadsPerBlock);
    EXPECT_EQ(parallel.waves, serial.waves);
    EXPECT_EQ(parallel.peakSharedBytes, serial.peakSharedBytes);
    EXPECT_EQ(parallel.counters.values, serial.counters.values);

    // Same SM placement, same timeline, same event order.
    ASSERT_EQ(trace.events().size(), serial_trace.events().size());
    for (size_t i = 0; i < trace.events().size(); ++i) {
      const auto& got = trace.events()[i];
      const auto& want = serial_trace.events()[i];
      EXPECT_EQ(got.name, want.name) << "event " << i;
      EXPECT_EQ(got.track, want.track) << "event " << i;
      EXPECT_EQ(got.startCycle, want.startCycle) << "event " << i;
      EXPECT_EQ(got.durationCycles, want.durationCycles) << "event " << i;
    }
  }
}

TEST(BlockExecutorTest, FailingBlockReportsLowestBlockId) {
  // Under parallel execution several blocks may fail; the reported
  // error must deterministically be the lowest failing block's.
  Device dev(ArchSpec::testTiny());
  LaunchConfig config;
  config.numBlocks = 6;
  config.threadsPerBlock = 32;
  config.hostWorkers = 4;
  auto stats = dev.launch(config, [](ThreadCtx& t) {
    if (t.blockId() >= 3 && t.threadId() == 0) {
      fiber::WaitList never_released;
      t.block().scheduler().block(never_released);  // simulated deadlock
    }
  });
  ASSERT_FALSE(stats.isOk());
  EXPECT_NE(stats.status().message().find("block 3"), std::string::npos)
      << stats.status().message();
}

TEST(BlockExecutorTest, FailedLaunchPublishesTheSameReportAtAnyWorkerCount) {
  // Every block deadlocks at a half-reached warp barrier. Every block
  // still runs, so the failed launch's check report and partial profile
  // cover all four blocks at 1 host worker exactly as at 4.
  const auto run = [](uint32_t workers) {
    Device dev(ArchSpec::testTiny());
    LaunchConfig config(4, 32);
    config.hostWorkers = workers;
    config.check.mode = simcheck::CheckMode::kReport;
    config.profile.mode = simprof::ProfileMode::kOn;
    auto stats = dev.launch(config, [](ThreadCtx& t) {
      if (t.laneId() < 16) t.syncWarp(fullMask(32));
    });
    EXPECT_FALSE(stats.isOk());
    EXPECT_EQ(dev.lastCheckReport().count(simcheck::DiagKind::kBarrierDivergence),
              4u)
        << workers << " workers: " << dev.lastCheckReport().toString();
    return std::pair{dev.lastCheckReport().toString(),
                     dev.lastProfile().table()};
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

TEST(BlockExecutorTest, ParallelLaunchAtomicsSumCorrectly) {
  // 16 blocks x 64 threads all hammering 8 global cells with
  // hostWorkers=8: the atomic RMW path must not lose updates.
  Device dev(ArchSpec::testTiny());
  auto cells = dev.allocateArray<uint64_t>(8);
  ASSERT_TRUE(cells.isOk());
  for (size_t i = 0; i < 8; ++i) cells.value().raw(i) = 0;

  LaunchConfig config;
  config.numBlocks = 16;
  config.threadsPerBlock = 64;
  config.hostWorkers = 8;
  auto stats = dev.launch(config, [&](ThreadCtx& t) {
    cells.value().atomicAdd(t, t.threadId() % 8, 1);
  });
  ASSERT_TRUE(stats.isOk());
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(cells.value().raw(i), 16u * 8u) << "cell " << i;
  }
  EXPECT_EQ(stats.value().counters.get(Counter::kAtomicRmw), 16u * 64u);
}

}  // namespace
}  // namespace simtomp::gpusim
