// simcheck regression corpus: seeded buggy kernels that the sanitizer
// must flag — a racy shared-memory histogram, a divergent block
// barrier, inconsistent warp-sync masks, a cross-block global race and
// the sharing-space protocol bugs — plus fixed twins of each that must
// come back clean, and the guard that checking never perturbs modeled
// cycles.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "gpusim/block.h"
#include "gpusim/device.h"
#include "hostrt/device_manager.h"
#include "omprt/sharing.h"
#include "omprt/target.h"
#include "simcheck/checker.h"
#include "simcheck/report.h"
#include "scoped_env.h"

namespace simtomp::simcheck {
namespace {

using gpusim::ArchSpec;
using gpusim::kCheckKnob;
using gpusim::resolveKnob;
using gpusim::Resolved;
using gpusim::BlockEngine;
using gpusim::Device;
using gpusim::LaunchConfig;
using gpusim::SharedSpan;
using gpusim::ThreadCtx;
using test::ScopedEnv;

// ---------------- report plumbing ----------------

TEST(CheckReportTest, CountsAndSummary) {
  CheckReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.summary(), "clean");

  Diagnostic d;
  d.kind = DiagKind::kDataRace;
  report.add(d);
  d.kind = DiagKind::kBarrierDivergence;
  report.add(d);
  report.add(d);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.total(), 3u);
  EXPECT_EQ(report.count(DiagKind::kDataRace), 1u);
  EXPECT_EQ(report.count(DiagKind::kBarrierDivergence), 2u);
  EXPECT_NE(report.summary().find("data-race=1"), std::string::npos);
}

TEST(CheckReportTest, MergeKeepsCountsAndTruncatesStorage) {
  CheckReport a;
  a.maxDiagnostics = 2;
  Diagnostic d;
  d.kind = DiagKind::kDataRace;
  CheckReport b;
  b.add(d);
  b.add(d);
  b.add(d);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);                 // exact count survives
  EXPECT_EQ(a.diagnostics.size(), 2u);      // storage capped
}

TEST(CheckResolveTest, EnvValuesParsed) {
  {
    ScopedEnv env("SIMTOMP_CHECK", nullptr);
    const Resolved<CheckMode> r = resolveKnob(kCheckKnob, CheckMode::kAuto);
    EXPECT_EQ(r.value, CheckMode::kOff);
    EXPECT_STREQ(r.source, "default");
  }
  {
    ScopedEnv env("SIMTOMP_CHECK", "1");
    const Resolved<CheckMode> r = resolveKnob(kCheckKnob, CheckMode::kAuto);
    EXPECT_EQ(r.value, CheckMode::kReport);
    EXPECT_STREQ(r.source, "SIMTOMP_CHECK");
    EXPECT_EQ(r.envValue, "1");
  }
  {
    ScopedEnv env("SIMTOMP_CHECK", "fatal");
    EXPECT_EQ(resolveKnob(kCheckKnob, CheckMode::kAuto).value,
              CheckMode::kFatal);
  }
  {
    ScopedEnv env("SIMTOMP_CHECK", "bogus");
    EXPECT_EQ(resolveKnob(kCheckKnob, CheckMode::kAuto).value, CheckMode::kOff);
  }
}

TEST(CheckResolveTest, ExplicitRequestBeatsEnvironment) {
  ScopedEnv env("SIMTOMP_CHECK", "fatal");
  const Resolved<CheckMode> r = resolveKnob(kCheckKnob, CheckMode::kReport);
  EXPECT_EQ(r.value, CheckMode::kReport);
  EXPECT_STREQ(r.source, "explicit");
}

// ---------------- seeded device-level bugs ----------------

LaunchConfig reportConfig(uint32_t blocks, uint32_t threads) {
  LaunchConfig config;
  config.numBlocks = blocks;
  config.threadsPerBlock = threads;
  config.hostWorkers = 1;
  config.check.mode = CheckMode::kReport;  // explicit: immune to CI env
  return config;
}

/// Setup hook that carves a double[n] histogram out of the block's
/// shared arena and hands it to the kernel via the user-state slot.
gpusim::BlockSetupHook sharedArraySetup(size_t n) {
  return [n](BlockEngine& engine) {
    std::byte* raw = engine.sharedMemory().allocate(n * sizeof(double));
    ASSERT_NE(raw, nullptr);
    engine.setUserState(raw);
  };
}

SharedSpan<double> sharedArray(ThreadCtx& t, size_t n) {
  return {static_cast<double*>(t.block().userState()), n};
}

TEST(SimcheckDeviceTest, RacySharedHistogramFlagged) {
  Device dev(ArchSpec::testTiny());
  // Two warps increment the same 8 shared bins with a plain
  // read-modify-write and no synchronization: the classic lost-update
  // histogram race.
  auto stats = dev.launch(
      reportConfig(1, 64),
      [](ThreadCtx& t) {
        SharedSpan<double> bins = sharedArray(t, 8);
        const size_t bin = t.threadId() % 8;
        bins.set(t, bin, bins.get(t, bin) + 1.0);
      },
      sharedArraySetup(8));
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  const CheckReport& report = dev.lastCheckReport();
  EXPECT_GE(report.count(DiagKind::kDataRace), 1u) << report.toString();
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_EQ(report.diagnostics[0].space, MemSpace::kShared);
}

TEST(SimcheckDeviceTest, AtomicHistogramIsClean) {
  Device dev(ArchSpec::testTiny());
  auto bins = dev.allocateArray<double>(8);
  ASSERT_TRUE(bins.isOk());
  auto stats = dev.launch(reportConfig(1, 64), [&](ThreadCtx& t) {
    bins.value().atomicAdd(t, t.threadId() % 8, 1.0);
  });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_TRUE(dev.lastCheckReport().clean())
      << dev.lastCheckReport().toString();
}

TEST(SimcheckDeviceTest, BarrierSeparatedPhasesAreClean) {
  Device dev(ArchSpec::testTiny());
  // Write phase, block barrier, read phase: every cross-thread pair is
  // ordered through the barrier join, so no findings.
  auto stats = dev.launch(
      reportConfig(1, 64),
      [](ThreadCtx& t) {
        SharedSpan<double> data = sharedArray(t, 64);
        data.set(t, t.threadId(), 1.0 * t.threadId());
        t.syncBlock();
        (void)data.get(t, (t.threadId() + 1) % t.numThreads());
      },
      sharedArraySetup(64));
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_TRUE(dev.lastCheckReport().clean())
      << dev.lastCheckReport().toString();
}

TEST(SimcheckDeviceTest, UninitSharedReadFlagged) {
  Device dev(ArchSpec::testTiny());
  auto stats = dev.launch(
      reportConfig(1, 32),
      [](ThreadCtx& t) {
        SharedSpan<double> data = sharedArray(t, 4);
        if (t.threadId() == 0) (void)data.get(t, 2);  // never written
      },
      sharedArraySetup(4));
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  // The 8-byte read covers two 4-byte shadow granules, one finding each.
  EXPECT_EQ(dev.lastCheckReport().count(DiagKind::kUninitSharedRead), 2u)
      << dev.lastCheckReport().toString();
}

TEST(SimcheckDeviceTest, BarrierDivergenceFlaggedOnDeadlock) {
  Device dev(ArchSpec::testTiny());
  // Thread 0 exits while the rest of the block waits at syncBlock: the
  // launch deadlocks and the checker must say why.
  auto stats = dev.launch(reportConfig(1, 32), [](ThreadCtx& t) {
    if (t.threadId() == 0) return;
    t.syncBlock();
  });
  EXPECT_FALSE(stats.isOk());  // the deadlock itself fails the launch
  const CheckReport& report = dev.lastCheckReport();
  EXPECT_GE(report.count(DiagKind::kBarrierDivergence), 1u)
      << report.toString();
}

TEST(SimcheckDeviceTest, InconsistentWarpMasksFlagged) {
  Device dev(ArchSpec::testTiny());
  // Lane 0 waits on mask 0x3 while lane 1 waits on the overlapping
  // mask 0x7: the pending rendezvous disagree about who participates,
  // and neither can complete.
  auto stats = dev.launch(reportConfig(1, 32), [](ThreadCtx& t) {
    if (t.laneId() == 0) {
      t.syncWarp(LaneMask{0x3});
    } else if (t.laneId() == 1) {
      t.syncWarp(LaneMask{0x7});
    }
  });
  EXPECT_FALSE(stats.isOk());
  const CheckReport& report = dev.lastCheckReport();
  EXPECT_GE(report.count(DiagKind::kInconsistentMask), 1u)
      << report.toString();
}

TEST(SimcheckDeviceTest, CrossBlockGlobalRaceFlagged) {
  Device dev(ArchSpec::testTiny());
  auto cell = dev.allocateArray<double>(1);
  ASSERT_TRUE(cell.isOk());
  auto stats = dev.launch(reportConfig(4, 32), [&](ThreadCtx& t) {
    if (t.threadId() == 0) cell.value().set(t, 0, 1.0 * t.blockId());
  });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_GE(dev.lastCheckReport().count(DiagKind::kCrossBlockRace), 1u)
      << dev.lastCheckReport().toString();
}

TEST(SimcheckDeviceTest, CrossBlockAtomicsAndReadsAreClean) {
  Device dev(ArchSpec::testTiny());
  auto sum = dev.allocateArray<double>(1);
  auto input = dev.allocateArray<double>(1);
  ASSERT_TRUE(sum.isOk());
  ASSERT_TRUE(input.isOk());
  input.value().raw(0) = 3.0;
  auto stats = dev.launch(reportConfig(4, 32), [&](ThreadCtx& t) {
    sum.value().atomicAdd(t, 0, input.value().get(t, 0));
  });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_TRUE(dev.lastCheckReport().clean())
      << dev.lastCheckReport().toString();
}

TEST(SimcheckDeviceTest, FatalModeFailsRacyLaunch) {
  Device dev(ArchSpec::testTiny());
  LaunchConfig config = reportConfig(1, 64);
  config.check.mode = CheckMode::kFatal;
  auto stats = dev.launch(
      config,
      [](ThreadCtx& t) {
        SharedSpan<double> bins = sharedArray(t, 8);
        const size_t bin = t.threadId() % 8;
        bins.set(t, bin, bins.get(t, bin) + 1.0);
      },
      sharedArraySetup(8));
  EXPECT_FALSE(stats.isOk());
  EXPECT_NE(stats.status().toString().find("simcheck"), std::string::npos)
      << stats.status().toString();
  EXPECT_FALSE(dev.lastCheckReport().clean());
}

TEST(SimcheckDeviceTest, DisabledModeCollectsNothing) {
  Device dev(ArchSpec::testTiny());
  LaunchConfig config = reportConfig(1, 64);
  config.check.mode = CheckMode::kOff;
  auto stats = dev.launch(
      config,
      [](ThreadCtx& t) {
        SharedSpan<double> bins = sharedArray(t, 8);
        const size_t bin = t.threadId() % 8;
        bins.set(t, bin, bins.get(t, bin) + 1.0);
      },
      sharedArraySetup(8));
  ASSERT_TRUE(stats.isOk());
  EXPECT_TRUE(dev.lastCheckReport().clean());
  EXPECT_EQ(dev.lastCheckMode(), CheckMode::kOff);
}

// ---------------- sharing-space protocol bugs ----------------

/// Launch one 32-thread block whose setup hook installs a SharingSpace
/// (2048 bytes, as the paper's default) in the user-state slot.
Result<gpusim::KernelStats> launchWithSharing(
    Device& dev, const std::function<void(ThreadCtx&, omprt::SharingSpace&)>&
                     body) {
  std::unique_ptr<omprt::SharingSpace> space;
  const gpusim::BlockSetupHook setup = [&](BlockEngine& engine) {
    space = std::make_unique<omprt::SharingSpace>(
        engine.sharedMemory(), engine.globalMemory(), 2048, 32);
    engine.setUserState(space.get());
  };
  return dev.launch(reportConfig(1, 32), [&body](ThreadCtx& t) {
    auto& sp = *static_cast<omprt::SharingSpace*>(t.block().userState());
    body(t, sp);
  }, setup);
}

TEST(SimcheckSharingTest, OutOfSliceStoreFlagged) {
  Device dev(ArchSpec::testTiny());
  auto stats = launchWithSharing(dev, [](ThreadCtx& t,
                                         omprt::SharingSpace& sp) {
    if (t.threadId() != 0) return;
    static int value = 7;
    void** area = sp.beginSharing(t, /*group=*/0, /*numGroups=*/8,
                                  /*numArgs=*/2);
    sp.storeArg(t, 0, area, /*index=*/5, &value);  // beyond the 2 declared
    sp.endSharing(t, 0);
  });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_EQ(dev.lastCheckReport().count(DiagKind::kSharingOutOfSlice), 1u)
      << dev.lastCheckReport().toString();
}

TEST(SimcheckSharingTest, UnpublishedFetchFlagged) {
  Device dev(ArchSpec::testTiny());
  auto stats = launchWithSharing(dev, [](ThreadCtx& t,
                                         omprt::SharingSpace& sp) {
    if (t.threadId() != 0) return;
    static int value = 7;
    void** area = sp.beginSharing(t, 0, 8, /*numArgs=*/3);
    sp.storeArg(t, 0, area, 0, &value);
    sp.storeArg(t, 0, area, 2, &value);  // index 1 never stored
    (void)sp.fetchArgs(t, 0);
    sp.endSharing(t, 0);
  });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_EQ(dev.lastCheckReport().count(DiagKind::kSharingUnpublishedRead),
            1u)
      << dev.lastCheckReport().toString();
}

TEST(SimcheckSharingTest, CompleteProtocolIsClean) {
  Device dev(ArchSpec::testTiny());
  auto stats = launchWithSharing(dev, [](ThreadCtx& t,
                                         omprt::SharingSpace& sp) {
    if (t.threadId() != 0) return;
    static int a = 1;
    static int b = 2;
    void** area = sp.beginSharing(t, 0, 8, 2);
    sp.storeArg(t, 0, area, 0, &a);
    sp.storeArg(t, 0, area, 1, &b);
    (void)sp.fetchArgs(t, 0);
    sp.endSharing(t, 0);
  });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_TRUE(dev.lastCheckReport().clean())
      << dev.lastCheckReport().toString();
}

TEST(SimcheckSharingTest, OverflowLeakFlagged) {
  Device dev(ArchSpec::testTiny());
  // 2048-byte space, 8 groups -> 30 pointer slots per group; 64 args
  // overflow to a global block that is never released by endSharing.
  auto stats = launchWithSharing(dev, [](ThreadCtx& t,
                                         omprt::SharingSpace& sp) {
    if (t.threadId() != 0) return;
    (void)sp.beginSharing(t, 0, 8, /*numArgs=*/64);
    // missing endSharing: the overflow block outlives the kernel
  });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_EQ(dev.lastCheckReport().count(DiagKind::kSharingOverflowLeak), 1u)
      << dev.lastCheckReport().toString();
}

// ---------------- zero-perturbation guard ----------------

gpusim::KernelStats runBarrierKernel(CheckMode mode, uint32_t workers) {
  Device dev(ArchSpec::testTiny());
  LaunchConfig config;
  config.numBlocks = 6;
  config.threadsPerBlock = 64;
  config.hostWorkers = workers;
  config.check.mode = mode;
  auto sum = dev.allocateArray<double>(1);
  EXPECT_TRUE(sum.isOk());
  auto stats = dev.launch(
      config,
      [&](ThreadCtx& t) {
        SharedSpan<double> data = sharedArray(t, 64);
        data.set(t, t.threadId(), 1.0);
        t.syncBlock();
        double acc = data.get(t, (t.threadId() + 7) % 64);
        t.fma(4);
        t.syncWarp(~LaneMask{0});
        sum.value().atomicAdd(t, 0, acc);
      },
      sharedArraySetup(64));
  EXPECT_TRUE(stats.isOk()) << stats.status().toString();
  return stats.isOk() ? stats.value() : gpusim::KernelStats{};
}

TEST(SimcheckOverheadTest, StatsBitIdenticalOffVsReport) {
  const gpusim::KernelStats off = runBarrierKernel(CheckMode::kOff, 1);
  const gpusim::KernelStats on = runBarrierKernel(CheckMode::kReport, 1);
  const gpusim::KernelStats on_mt = runBarrierKernel(CheckMode::kReport, 4);
  for (const gpusim::KernelStats* other : {&on, &on_mt}) {
    EXPECT_EQ(off.cycles, other->cycles);
    EXPECT_EQ(off.busyCycles, other->busyCycles);
    EXPECT_EQ(off.maxThreadCycles, other->maxThreadCycles);
    EXPECT_EQ(off.waves, other->waves);
    EXPECT_EQ(off.counters.values, other->counters.values);
  }
}

// ---------------- plumbing: omprt / hostrt ----------------

TEST(SimcheckPlumbingTest, TargetConfigCarriesModeToDevice) {
  Device dev(ArchSpec::testTiny());
  omprt::TargetConfig config;
  config.numTeams = 2;
  config.threadsPerTeam = 32;
  config.check.mode = CheckMode::kReport;
  auto stats = omprt::launchTarget(dev, config, [](omprt::OmpContext&) {});
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_EQ(dev.lastCheckMode(), CheckMode::kReport);
  EXPECT_TRUE(dev.lastCheckReport().clean())
      << dev.lastCheckReport().toString();
}

TEST(SimcheckPlumbingTest, DeviceManagerDefaultAppliesWhenAuto) {
  // The SIMTOMP_CHECK knob decides a managed launch that leaves the
  // mode auto.
  ScopedEnv env("SIMTOMP_CHECK", "report");
  hostrt::DeviceManager manager({ArchSpec::testTiny()});
  omprt::TargetConfig config;
  config.numTeams = 1;
  config.threadsPerTeam = 32;
  auto stats = manager.launchOn(0, config, [](omprt::OmpContext&) {});
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_EQ(manager.device(0).lastCheckMode(), CheckMode::kReport);

  // An explicit per-launch mode beats the environment.
  config.check.mode = CheckMode::kOff;
  stats = manager.launchOn(0, config, [](omprt::OmpContext&) {});
  ASSERT_TRUE(stats.isOk());
  EXPECT_EQ(manager.device(0).lastCheckMode(), CheckMode::kOff);
}

}  // namespace
}  // namespace simtomp::simcheck
