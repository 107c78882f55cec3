// simfault unit and device-level tests: plan parsing and canonical
// text, env resolution (SIMTOMP_FAULT / SIMTOMP_WATCHDOG), per-attempt
// arming semantics (count, after, when=simd), and every fault
// site observed through Device::launch — including the livelock that
// only the watchdog can kill, and the determinism contract that the
// same plan yields the same status text for any host worker count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "dsl/dsl.h"
#include "gpusim/device.h"
#include "omprt/target.h"
#include "simfault/fault.h"
#include "simprof/metrics.h"
#include "support/status.h"
#include "scoped_env.h"

namespace simtomp::simfault {
namespace {

using gpusim::ArchSpec;
using gpusim::kFaultKnob;
using gpusim::kWatchdogKnob;
using gpusim::resolveKnob;
using gpusim::Resolved;
using gpusim::Device;
using gpusim::LaunchConfig;
using gpusim::ThreadCtx;
using test::ScopedEnv;

// ---------------- plan parsing ----------------

TEST(FaultPlanTest, ParsesEveryKind) {
  const char* kinds[] = {"device_lost_pre", "device_lost_post", "trap",
                         "livelock",        "barrier_corrupt",  "sharing_exhausted"};
  for (const char* kind : kinds) {
    auto plan = FaultPlan::parse(kind);
    ASSERT_TRUE(plan.isOk()) << kind;
    ASSERT_EQ(plan.value().faults.size(), 1u) << kind;
    EXPECT_EQ(faultKindName(plan.value().faults[0].kind), kind);
  }
}

TEST(FaultPlanTest, ParsesOptionsAndCanonicalizes) {
  auto plan =
      FaultPlan::parse("trap:step=50:block=2:count=0:after=3:when=simd");
  ASSERT_TRUE(plan.isOk()) << plan.status().toString();
  const FaultSpec& spec = plan.value().faults[0];
  EXPECT_EQ(spec.kind, FaultKind::kTrap);
  EXPECT_EQ(spec.when, FaultWhen::kSimd);
  EXPECT_EQ(spec.block, 2u);
  EXPECT_EQ(spec.step, 50u);
  EXPECT_EQ(spec.count, 0u);
  EXPECT_EQ(spec.after, 3u);
  // Canonical text uses a stable key order, regardless of input order.
  EXPECT_EQ(spec.canonical(),
            "trap:block=2:step=50:when=simd:count=0:after=3");
}

TEST(FaultPlanTest, CanonicalOmitsDefaults) {
  auto plan = FaultPlan::parse("livelock");
  ASSERT_TRUE(plan.isOk());
  EXPECT_EQ(plan.value().faults[0].canonical(), "livelock");
}

TEST(FaultPlanTest, ParsesMultiEntryPlans) {
  auto plan = FaultPlan::parse("device_lost_pre:count=1;trap:block=1");
  ASSERT_TRUE(plan.isOk()) << plan.status().toString();
  EXPECT_EQ(plan.value().faults.size(), 2u);
}

TEST(FaultPlanTest, OffSentinelAndEmpty) {
  for (const char* text : {"off", "none", "0"}) {
    auto plan = FaultPlan::parse(text);
    ASSERT_TRUE(plan.isOk()) << text;
    EXPECT_TRUE(plan.value().empty());
    EXPECT_TRUE(plan.value().explicitOff);
  }
  auto empty = FaultPlan::parse("");
  ASSERT_TRUE(empty.isOk());
  EXPECT_TRUE(empty.value().empty());
  EXPECT_FALSE(empty.value().explicitOff);
}

TEST(FaultPlanTest, RejectsGarbage) {
  EXPECT_FALSE(FaultPlan::parse("explode").isOk());
  EXPECT_FALSE(FaultPlan::parse("trap:step=abc").isOk());
  EXPECT_FALSE(FaultPlan::parse("trap:when=never").isOk());
  EXPECT_FALSE(FaultPlan::parse("trap:bogus=1").isOk());
}

// Plan numbers are range-checked against their fields: block=2^32 + 1
// must be rejected, not truncated to block 1.
TEST(FaultPlanTest, RejectsOutOfRangeNumbers) {
  const auto wide = FaultPlan::parse("livelock:block=4294967297");
  ASSERT_FALSE(wide.isOk());
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(FaultPlan::parse("trap:step=18446744073709551616").isOk());
  const auto max = FaultPlan::parse("livelock:block=4294967295");
  ASSERT_TRUE(max.isOk()) << max.status().toString();
  EXPECT_EQ(max.value().faults[0].block, UINT32_MAX);
}

// ---------------- env resolution ----------------

TEST(FaultResolveTest, ExplicitWinsOverEnvironment) {
  ScopedEnv env("SIMTOMP_FAULT", "trap");
  const Resolved<std::string> r = resolveKnob(kFaultKnob, "livelock");
  EXPECT_EQ(r.value, "livelock");
  EXPECT_STREQ(r.source, "explicit");
}

TEST(FaultResolveTest, ExplicitOffSuppressesEnvironment) {
  ScopedEnv env("SIMTOMP_FAULT", "trap");
  const Resolved<std::string> r = resolveKnob(kFaultKnob, "off");
  EXPECT_EQ(r.value, "off");
  EXPECT_STREQ(r.source, "explicit");
}

TEST(FaultResolveTest, EmptyRequestReadsEnvironment) {
  {
    ScopedEnv env("SIMTOMP_FAULT", "trap:block=1");
    const Resolved<std::string> r = resolveKnob(kFaultKnob, "");
    EXPECT_EQ(r.value, "trap:block=1");
    EXPECT_STREQ(r.source, "SIMTOMP_FAULT");
  }
  {
    ScopedEnv env("SIMTOMP_FAULT", nullptr);
    const Resolved<std::string> r = resolveKnob(kFaultKnob, "");
    EXPECT_EQ(r.value, "off");
    EXPECT_STREQ(r.source, "default");
  }
}

TEST(WatchdogResolveTest, EnvAndExplicitPrecedence) {
  {
    ScopedEnv env("SIMTOMP_WATCHDOG", nullptr);
    const Resolved<uint64_t> r = resolveKnob(kWatchdogKnob, 0);
    EXPECT_EQ(r.value, kDefaultWatchdogSteps);
    EXPECT_STREQ(r.source, "default");
  }
  {
    ScopedEnv env("SIMTOMP_WATCHDOG", "12345");
    const Resolved<uint64_t> r = resolveKnob(kWatchdogKnob, 0);
    EXPECT_EQ(r.value, 12345u);
    EXPECT_STREQ(r.source, "SIMTOMP_WATCHDOG");
  }
  {
    ScopedEnv env("SIMTOMP_WATCHDOG", "off");
    EXPECT_EQ(resolveKnob(kWatchdogKnob, 0).value, kWatchdogOff);
  }
  {
    ScopedEnv env("SIMTOMP_WATCHDOG", "off");
    // Explicit budget beats the env.
    const Resolved<uint64_t> r = resolveKnob(kWatchdogKnob, 777);
    EXPECT_EQ(r.value, 777u);
    EXPECT_STREQ(r.source, "explicit");
  }
  EXPECT_EQ(resolveKnob(kWatchdogKnob, kWatchdogOff).value, kWatchdogOff);
}

// An env budget past 2^64 - 1 is unrecognized and takes the documented
// fallback; it must not wrap to 0, which disables the watchdog.
TEST(WatchdogResolveTest, OverflowingEnvTakesTheDefault) {
  ScopedEnv env("SIMTOMP_WATCHDOG", "18446744073709551616");
  const Resolved<uint64_t> r = resolveKnob(kWatchdogKnob, 0);
  EXPECT_EQ(r.value, kDefaultWatchdogSteps);
  EXPECT_STREQ(r.source, "SIMTOMP_WATCHDOG");
}

// ---------------- injector arming ----------------

// Arm `spec` for attempt `attempt` of a `blocks`-block launch.
Result<LaunchArm> armAttempt(const char* spec, uint32_t attempt,
                             uint32_t blocks = 4, bool simd = false) {
  FaultConfig config;
  config.spec = spec;
  config.attempt = attempt;
  config.simdActive = simd;
  return armLaunch(config, blocks);
}

TEST(InjectorTest, CountBoundsAttemptsAndAdvances) {
  // count=1 arms the first attempt only; the retry (attempt 1) arms
  // nothing, which is what makes the fault transient.
  auto first = armAttempt("device_lost_pre:count=1", 0);
  ASSERT_TRUE(first.isOk());
  EXPECT_TRUE(first.value().lostPre);
  auto second = armAttempt("device_lost_pre:count=1", 1);
  ASSERT_TRUE(second.isOk());
  EXPECT_FALSE(second.value().lostPre);
  // Arming is a pure function of the attempt: a later launch's first
  // attempt arms again, whatever earlier launches consumed.
  auto again = armAttempt("device_lost_pre:count=1", 0);
  ASSERT_TRUE(again.isOk());
  EXPECT_TRUE(again.value().lostPre);
  // count=2 covers attempts 0 and 1.
  EXPECT_TRUE(armAttempt("device_lost_pre:count=2", 1).value().lostPre);
  EXPECT_FALSE(armAttempt("device_lost_pre:count=2", 2).value().lostPre);
}

TEST(InjectorTest, CountZeroFiresEveryAttempt) {
  for (uint32_t attempt : {0u, 1u, 2u, 1000u}) {
    auto arm = armAttempt("trap:block=0:count=0", attempt, 1);
    ASSERT_TRUE(arm.isOk());
    const BlockFaultArm* block = arm.value().forBlock(0);
    ASSERT_NE(block, nullptr);
    EXPECT_TRUE(block->trap);
  }
}

TEST(InjectorTest, AfterLaunchSkipsEarlyAttempts) {
  // after=2 arms attempts [2, 2 + count): with the default count=1 only
  // the second retry faults.
  for (uint32_t attempt : {0u, 1u, 2u, 3u}) {
    auto arm = armAttempt("device_lost_post:after=2", attempt, 1);
    ASSERT_TRUE(arm.isOk());
    EXPECT_EQ(arm.value().lostPost, attempt == 2) << "attempt " << attempt;
  }
  EXPECT_TRUE(
      armAttempt("device_lost_post:after=2:count=0", 9, 1).value().lostPost);
}

TEST(InjectorTest, WhenSimdRequiresSimdActive) {
  auto off = armAttempt("trap:block=0:when=simd", 0, 1, /*simd=*/false);
  ASSERT_TRUE(off.isOk());
  EXPECT_EQ(off.value().forBlock(0), nullptr);
  auto on = armAttempt("trap:block=0:when=simd", 0, 1, /*simd=*/true);
  ASSERT_TRUE(on.isOk());
  ASSERT_NE(on.value().forBlock(0), nullptr);
  EXPECT_TRUE(on.value().forBlock(0)->trap);
}

TEST(InjectorTest, OutOfRangeBlockArmsNothing) {
  auto arm = armAttempt("trap:block=9", 0, 2);
  ASSERT_TRUE(arm.isOk());
  EXPECT_FALSE(arm.value().anything());
}

TEST(InjectorTest, OnlySpecsThatArmCountAsInjections) {
  auto& metrics = simprof::MetricsRegistry::global();
  const auto injections = [&metrics] {
    return metrics.value(simprof::metric::kFaultInjectionsTotal);
  };
  const uint64_t before = injections();
  ASSERT_TRUE(armAttempt("trap:block=999", 0, 4).isOk());
  EXPECT_EQ(injections(), before);
  // One spec in range, one out of range: only the first is counted.
  ASSERT_TRUE(armAttempt("trap:block=3;livelock:block=4", 0, 4).isOk());
  EXPECT_EQ(injections(), before + 1);
  ASSERT_TRUE(armAttempt("device_lost_pre", 0, 4).isOk());
  EXPECT_EQ(injections(), before + 2);
}

TEST(InjectorTest, BadPlanIsInvalidArgument) {
  EXPECT_EQ(armAttempt("explode", 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------- fault sites through Device::launch ----------------

LaunchConfig faultedConfig(uint32_t blocks, uint32_t threads,
                           const char* spec) {
  LaunchConfig config;
  config.numBlocks = blocks;
  config.threadsPerBlock = threads;
  config.fault.spec = spec;
  return config;
}

TEST(DeviceFaultTest, TrapFailsLaunchWithFiberDump) {
  Device dev(ArchSpec::testTiny());
  auto stats = dev.launch(faultedConfig(2, 32, "trap:block=0:step=5"),
                          [](ThreadCtx& t) { t.work(100); });
  ASSERT_FALSE(stats.isOk());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  EXPECT_NE(stats.status().message().find("[simfault] injected kernel trap"),
            std::string::npos)
      << stats.status().toString();
  EXPECT_NE(stats.status().message().find("block 0"), std::string::npos);
}

TEST(DeviceFaultTest, WatchdogKillsLivelockWithDeadlineExceeded) {
  Device dev(ArchSpec::testTiny());
  LaunchConfig config = faultedConfig(2, 32, "livelock:block=0");
  config.watchdogSteps = 5000;
  auto stats = dev.launch(config, [](ThreadCtx& t) { t.syncBlock(); });
  ASSERT_FALSE(stats.isOk());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
  const std::string& msg = stats.status().message();
  EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
  EXPECT_NE(msg.find("step budget of 5000"), std::string::npos) << msg;
  // The blocked-fiber dump: the livelocked fiber stays runnable (that
  // is what makes it invisible to the deadlock detector).
  EXPECT_NE(msg.find("runnable"), std::string::npos) << msg;
}

TEST(DeviceFaultTest, LivelockUndetectableWithoutWatchdog) {
  // Same livelock, watchdog explicitly off, tiny *trap* as a backstop
  // so the test itself terminates: the deadlock detector never fires
  // because the spinning fiber is always runnable.
  Device dev(ArchSpec::testTiny());
  LaunchConfig config =
      faultedConfig(1, 32, "livelock:block=0;trap:block=0:step=20000");
  config.watchdogSteps = kWatchdogOff;
  auto stats = dev.launch(config, [](ThreadCtx& t) { t.syncBlock(); });
  ASSERT_FALSE(stats.isOk());
  // The trap backstop fired — NOT a deadlock, NOT a deadline.
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  EXPECT_NE(stats.status().message().find("injected kernel trap"),
            std::string::npos);
}

TEST(DeviceFaultTest, BarrierCorruptBecomesDetectedDeadlock) {
  Device dev(ArchSpec::testTiny());
  auto stats = dev.launch(faultedConfig(2, 32, "barrier_corrupt:block=0"),
                          [](ThreadCtx& t) { t.syncBlock(); });
  ASSERT_FALSE(stats.isOk());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stats.status().message().find("deadlock"), std::string::npos)
      << stats.status().toString();
}

TEST(DeviceFaultTest, DeviceLostPreAndPostAreUnavailable) {
  Device dev(ArchSpec::testTiny());
  int runs = 0;
  auto pre = dev.launch(faultedConfig(1, 32, "device_lost_pre"),
                        [&](ThreadCtx&) { ++runs; });
  ASSERT_FALSE(pre.isOk());
  EXPECT_EQ(pre.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(runs, 0) << "lost-pre must fire before any block runs";

  auto post = dev.launch(faultedConfig(1, 32, "device_lost_post"),
                         [&](ThreadCtx&) { ++runs; });
  ASSERT_FALSE(post.isOk());
  EXPECT_EQ(post.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(runs, 32) << "lost-post fires after the kernel executed";
}

TEST(DeviceFaultTest, SharingExhaustionThroughTargetLaunch) {
  Device dev(ArchSpec::testTiny());
  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kGeneric;
  config.numTeams = 1;
  config.threadsPerTeam = 32;
  config.parallelMode = omprt::ExecMode::kGeneric;
  config.simdlen = 4;
  config.hostWorkers = 1;
  config.fault.spec = "sharing_exhausted:block=0";
  omprt::ParallelConfig pc;
  pc.modeAuto = true;
  pc.simdGroupSize = 0;
  double sink = 0.0;
  auto stats = omprt::launchTarget(dev, config, [&](omprt::OmpContext& ctx) {
    dsl::parallelFor(
        ctx, 8,
        [&sink](omprt::OmpContext& c, uint64_t) {
          dsl::simd(c, 8, [&sink](omprt::OmpContext& cc, uint64_t lane) {
            cc.gpu().work(1);
            sink += 1.0 * lane;  // shared through the sharing space
          });
        },
        pc);
  });
  ASSERT_FALSE(stats.isOk());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(
      stats.status().message().find("injected sharing-space exhaustion"),
      std::string::npos)
      << stats.status().toString();
}

TEST(DeviceFaultTest, LastCheckReportSurvivesLostPre) {
  Device dev(ArchSpec::testTiny());
  auto cell = dev.allocateArray<double>(1);
  ASSERT_TRUE(cell.isOk());
  // Launch 1: checking on, deliberate cross-block race -> dirty report.
  // One host worker: the race must exist in the simulated schedule for
  // simcheck to flag (it does so for any worker count), but the host
  // threads must not actually race — this suite runs under TSan in CI.
  LaunchConfig racy;
  racy.numBlocks = 4;
  racy.threadsPerBlock = 32;
  racy.hostWorkers = 1;
  racy.check.mode = simcheck::CheckMode::kReport;
  auto stats = dev.launch(racy, [&](ThreadCtx& t) {
    if (t.threadId() == 0) cell.value().set(t, 0, 1.0 * t.blockId());
  });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  const uint64_t findings = dev.lastCheckReport().total();
  ASSERT_GE(findings, 1u);

  // Launch 2 dies before anything runs; the old report must survive.
  auto lost = dev.launch(faultedConfig(1, 32, "device_lost_pre"),
                         [](ThreadCtx&) {});
  ASSERT_FALSE(lost.isOk());
  EXPECT_EQ(dev.lastCheckReport().total(), findings);

  // A device reset keeps it too (diagnostics survive recovery).
  dev.reset();
  EXPECT_EQ(dev.lastCheckReport().total(), findings);
  EXPECT_EQ(dev.resetCount(), 1u);
}

TEST(DeviceFaultTest, StatusTextIdenticalForAnyWorkerCount) {
  const auto run = [](uint32_t workers, const char* spec) {
    Device dev(ArchSpec::testTiny());
    LaunchConfig config = faultedConfig(8, 32, spec);
    config.hostWorkers = workers;
    config.watchdogSteps = 5000;
    auto stats = dev.launch(config, [](ThreadCtx& t) {
      t.work(10);
      t.syncBlock();
      t.work(10);
    });
    EXPECT_FALSE(stats.isOk());
    return stats.status().toString();
  };
  for (const char* spec :
       {"trap:block=3:step=7", "livelock:block=5", "barrier_corrupt:block=2",
        "trap:block=1:step=3;trap:block=6:step=3"}) {
    EXPECT_EQ(run(1, spec), run(8, spec)) << spec;
  }
}

}  // namespace
}  // namespace simtomp::simfault
