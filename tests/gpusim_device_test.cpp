// Unit tests for Device: launch validation, SM wave scheduling, and
// kernel statistics.
#include <gtest/gtest.h>

#include <atomic>

#include "gpusim/device.h"

namespace simtomp::gpusim {
namespace {

TEST(ArchSpecTest, PresetsValidate) {
  EXPECT_TRUE(ArchSpec::nvidiaA100().validate().isOk());
  EXPECT_TRUE(ArchSpec::amdMI100().validate().isOk());
  EXPECT_TRUE(ArchSpec::testTiny().validate().isOk());
}

TEST(ArchSpecTest, AmdPresetTraits) {
  const ArchSpec amd = ArchSpec::amdMI100();
  EXPECT_EQ(amd.vendor, Vendor::kAmd);
  EXPECT_EQ(amd.warpSize, 64u);
  EXPECT_FALSE(amd.hasWarpLevelBarrier);
}

TEST(ArchSpecTest, InvalidSpecsRejected) {
  ArchSpec spec = ArchSpec::testTiny();
  spec.warpSize = 24;  // not a power of two
  EXPECT_FALSE(spec.validate().isOk());
  spec = ArchSpec::testTiny();
  spec.warpSize = 128;  // wider than LaneMask
  EXPECT_FALSE(spec.validate().isOk());
  spec = ArchSpec::testTiny();
  spec.numSMs = 0;
  EXPECT_FALSE(spec.validate().isOk());
  spec = ArchSpec::testTiny();
  spec.maxThreadsPerBlock = 100;  // not a warp multiple
  EXPECT_FALSE(spec.validate().isOk());
}

TEST(DeviceTest, RejectsBadLaunchConfigs) {
  Device dev(ArchSpec::testTiny());
  EXPECT_FALSE(dev.launch({0, 32}, [](ThreadCtx&) {}).isOk());
  EXPECT_FALSE(dev.launch({1, 0}, [](ThreadCtx&) {}).isOk());
  EXPECT_FALSE(dev.launch({1, 100000}, [](ThreadCtx&) {}).isOk());
}

TEST(DeviceTest, RunsEveryThreadOfEveryBlock) {
  Device dev(ArchSpec::testTiny());
  std::atomic<uint64_t> count{0};
  auto stats = dev.launch({5, 64}, [&](ThreadCtx&) { count++; });
  ASSERT_TRUE(stats.isOk());
  EXPECT_EQ(count.load(), 5u * 64u);
  EXPECT_EQ(stats.value().numBlocks, 5u);
  EXPECT_EQ(stats.value().threadsPerBlock, 64u);
}

TEST(DeviceTest, KernelLaunchOverheadAlwaysCharged) {
  CostModel cost;
  Device dev(ArchSpec::testTiny(), cost);
  auto stats = dev.launch({1, 32}, [](ThreadCtx&) {});
  ASSERT_TRUE(stats.isOk());
  EXPECT_EQ(stats.value().cycles, cost.kernelLaunch);
}

TEST(DeviceTest, WavesComputedFromSmCount) {
  Device dev(ArchSpec::testTiny());  // 2 SMs
  auto one = dev.launch({2, 32}, [](ThreadCtx& t) { t.work(10); });
  ASSERT_TRUE(one.isOk());
  EXPECT_EQ(one.value().waves, 1u);
  auto three = dev.launch({5, 32}, [](ThreadCtx& t) { t.work(10); });
  ASSERT_TRUE(three.isOk());
  EXPECT_EQ(three.value().waves, 3u);
}

TEST(DeviceTest, MoreWavesMeanProportionallyMoreCycles) {
  CostModel cost;
  Device dev(ArchSpec::testTiny(), cost);  // 2 SMs
  const Kernel kernel = [](ThreadCtx& t) { t.work(1000); };
  auto w1 = dev.launch({2, 32}, kernel);
  auto w4 = dev.launch({8, 32}, kernel);
  ASSERT_TRUE(w1.isOk());
  ASSERT_TRUE(w4.isOk());
  const uint64_t body1 = w1.value().cycles - cost.kernelLaunch;
  const uint64_t body4 = w4.value().cycles - cost.kernelLaunch;
  EXPECT_EQ(body4, 4 * body1);
}

TEST(DeviceTest, UnbalancedBlocksGoToLeastLoadedSm) {
  CostModel cost;
  Device dev(ArchSpec::testTiny(), cost);  // 2 SMs
  // Blocks: one heavy (block 0), three light. Greedy placement puts the
  // three light ones on the other SM.
  auto stats = dev.launch({4, 32}, [](ThreadCtx& t) {
    t.work(t.blockId() == 0 ? 9000 : 1000);
  });
  ASSERT_TRUE(stats.isOk());
  const uint64_t body = stats.value().cycles - cost.kernelLaunch;
  EXPECT_EQ(body, 9000u * cost.aluOp);
}

TEST(DeviceTest, StatsAggregateBusyAndCounters) {
  Device dev(ArchSpec::testTiny());
  auto stats = dev.launch({3, 32}, [](ThreadCtx& t) {
    t.chargeGlobalLoad();
    t.work(5);
  });
  ASSERT_TRUE(stats.isOk());
  EXPECT_EQ(stats.value().counters.get(Counter::kGlobalLoad), 3u * 32u);
  EXPECT_EQ(stats.value().busyCycles,
            3u * 32u * (dev.costModel().globalAccess + 5));
}

TEST(DeviceTest, BlockSetupHookRunsPerBlock) {
  Device dev(ArchSpec::testTiny());
  std::atomic<int> hooks{0};  // hooks run concurrently under hostWorkers>1
  auto stats = dev.launch(
      {4, 32}, [](ThreadCtx&) {}, [&](BlockEngine&) { ++hooks; });
  ASSERT_TRUE(stats.isOk());
  EXPECT_EQ(hooks.load(), 4);
}

TEST(DeviceTest, BlockErrorIsPropagatedWithBlockId) {
  Device dev(ArchSpec::testTiny());
  auto stats = dev.launch({3, 32}, [](ThreadCtx& t) {
    if (t.blockId() == 2 && t.threadId() == 0) {
      // Block on a list nobody releases: simulated deadlock.
      fiber::WaitList never_released;
      t.block().scheduler().block(never_released);
    }
  });
  ASSERT_FALSE(stats.isOk());
  EXPECT_NE(stats.status().message().find("block 2"), std::string::npos);
}

TEST(DeviceTest, ScaledCostModelScalesCycles) {
  const CostModel base;
  Device dev1(ArchSpec::testTiny(), base);
  Device dev2(ArchSpec::testTiny(), base.scaled(3));
  const Kernel kernel = [](ThreadCtx& t) {
    t.work(100);
    t.chargeGlobalLoad(10);
    t.syncBlock();
  };
  auto s1 = dev1.launch({1, 32}, kernel);
  auto s2 = dev2.launch({1, 32}, kernel);
  ASSERT_TRUE(s1.isOk());
  ASSERT_TRUE(s2.isOk());
  EXPECT_EQ(3 * s1.value().cycles, s2.value().cycles);
}

TEST(DeviceTest, PartialFinalWarpRunsAllThreads) {
  // threadsPerBlock need not be a warp multiple: 48 threads on a
  // 32-wide warp leaves a 16-lane partial final warp whose collectives
  // must still converge (LaunchConfig documents this as supported).
  Device dev(ArchSpec::testTiny());
  std::atomic<uint32_t> ran{0};
  LaunchConfig config;
  config.numBlocks = 2;
  config.threadsPerBlock = 48;
  auto stats = dev.launch(config, [&](ThreadCtx& t) {
    t.syncWarp(fullMask(32));
    t.syncBlock();
    ran++;
  });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_EQ(ran.load(), 2u * 48u);
  EXPECT_EQ(stats.value().threadsPerBlock, 48u);
}

TEST(KernelStatsTest, SummaryMentionsNonZeroCounters) {
  KernelStats stats;
  stats.cycles = 123;
  stats.counters.add(Counter::kWarpSync, 7);
  const std::string s = stats.summary();
  EXPECT_NE(s.find("cycles=123"), std::string::npos);
  EXPECT_NE(s.find("warp_sync=7"), std::string::npos);
  EXPECT_EQ(s.find("atomic_rmw"), std::string::npos);
}

TEST(CounterSetTest, MergeAdds) {
  CounterSet a;
  CounterSet b;
  a.add(Counter::kSimdLoop, 2);
  b.add(Counter::kSimdLoop, 3);
  b.add(Counter::kBlockSync);
  a.merge(b);
  EXPECT_EQ(a.get(Counter::kSimdLoop), 5u);
  EXPECT_EQ(a.get(Counter::kBlockSync), 1u);
}

TEST(CounterSetTest, MergeIsAssociativeAndCommutative) {
  // The host-parallel determinism guarantee leans on per-block counter
  // merges giving the same totals no matter how blocks are grouped —
  // i.e. merge must be associative and commutative.
  CounterSet a;
  a.add(Counter::kAluWork, 11);
  a.add(Counter::kAtomicRmw, 3);
  CounterSet b;
  b.add(Counter::kAluWork, 5);
  b.add(Counter::kGlobalLoad, 7);
  CounterSet c;
  c.add(Counter::kAtomicRmw, 2);
  c.add(Counter::kBlockSync, 1);

  CounterSet ab_c = a;  // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  CounterSet bc = b;  // a + (b + c)
  bc.merge(c);
  CounterSet a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c.values, a_bc.values);

  CounterSet ba = b;  // b + a == a + b
  ba.merge(a);
  CounterSet ab = a;
  ab.merge(b);
  EXPECT_EQ(ab.values, ba.values);
}

}  // namespace
}  // namespace simtomp::gpusim
