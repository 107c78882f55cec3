// Resilience-chain tests: the DeviceManager's graceful-degradation
// ladder (retry with modeled backoff, SIMD -> generic mode fallback,
// host-serial reference), the device-health state machine, report
// publication and survival across resets and failed launches, report
// byte-identity across reruns and worker counts, and the hardened
// TargetTaskQueue that converts throwing target regions into failed
// futures instead of wedging drain().
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsl/dsl.h"
#include "hostrt/device_manager.h"
#include "omprt/target.h"
#include "simfault/fault.h"
#include "simfault/resilience.h"
#include "support/status.h"

namespace simtomp::hostrt {
namespace {

using gpusim::ArchSpec;

/// The matrix kernel of `simtomp fault matrix`: three-level structure so
/// generic-mode launches exercise barriers and the sharing space.
struct MatrixKernel {
  static constexpr uint64_t kTile = 8;
  static constexpr uint64_t kTrip = 64;

  std::vector<uint64_t> out = std::vector<uint64_t>(kTrip, 0);

  omprt::TargetRegionFn region() {
    return [this](omprt::OmpContext& ctx) {
      omprt::ParallelConfig pc;
      pc.modeAuto = true;
      pc.simdGroupSize = 0;
      const omprt::rt::Range r =
          omprt::rt::distributeStatic(ctx, kTrip / kTile);
      auto tile_body = [this, base = r.begin](omprt::OmpContext& c,
                                              uint64_t logical) {
        const uint64_t tile = base + logical;
        c.gpu().work(2);
        dsl::simd(c, kTile,
                  [this, tile](omprt::OmpContext& cc, uint64_t lane) {
                    const uint64_t i = tile * kTile + lane;
                    cc.gpu().work(2);
                    out[i] = 3 * i + 7;
                  });
      };
      dsl::parallelFor(ctx, r.size(), tile_body, pc);
    };
  }

  [[nodiscard]] bool verified() const {
    for (uint64_t i = 0; i < kTrip; ++i) {
      if (out[i] != 3 * i + 7) return false;
    }
    return true;
  }
};

omprt::TargetConfig simdConfig(const char* faultSpec,
                               uint32_t workers = 1) {
  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kGeneric;
  config.numTeams = 2;
  config.threadsPerTeam = 64;
  config.parallelMode = omprt::ExecMode::kGeneric;
  config.simdlen = 4;
  config.hostWorkers = workers;
  config.check.mode = simcheck::CheckMode::kOff;
  config.fault.spec = faultSpec;
  config.watchdogSteps = 200000;
  return config;
}

TEST(ResilienceTest, TransientFaultRecoversViaRetry) {
  DeviceManager mgr({ArchSpec::testTiny()});
  mgr.setDefaultResilience({}, simfault::ResilienceMode::kOn);
  MatrixKernel kernel;
  auto stats =
      mgr.launchOn(0, simdConfig("device_lost_pre:count=1"), kernel.region());
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_TRUE(kernel.verified());

  const simfault::ResilienceReport& report = mgr.lastResilienceReport(0);
  EXPECT_TRUE(report.succeeded());
  EXPECT_TRUE(report.recovered);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_EQ(report.attempts[0].stage, simfault::RecoveryStage::kInitial);
  EXPECT_EQ(report.attempts[0].code, StatusCode::kUnavailable);
  EXPECT_EQ(report.attempts[1].stage, simfault::RecoveryStage::kRetry);
  EXPECT_EQ(report.attempts[1].code, StatusCode::kOk);
  EXPECT_EQ(report.attempts[1].backoffMs, 1u);  // modeled, never slept
  EXPECT_EQ(report.resets, 1u);
  EXPECT_EQ(report.healthTrail, "healthy>faulted>reset>healthy");
  EXPECT_EQ(mgr.deviceHealth(0), simfault::DeviceHealth::kHealthy);
  EXPECT_EQ(mgr.device(0).resetCount(), 1u);
}

TEST(ResilienceTest, RetryBackoffGrowsAndCaps) {
  DeviceManager mgr({ArchSpec::testTiny()});
  simfault::ResiliencePolicy policy;
  policy.maxRetries = 9;  // enough retries to reach the 64 ms cap
  policy.modeFallback = false;
  policy.hostSerial = false;
  mgr.setDefaultResilience(policy, simfault::ResilienceMode::kOn);
  MatrixKernel kernel;
  // Fires on every attempt: the chain exhausts its retries.
  auto stats =
      mgr.launchOn(0, simdConfig("device_lost_pre:count=0"), kernel.region());
  ASSERT_FALSE(stats.isOk());
  const simfault::ResilienceReport& report = mgr.lastResilienceReport(0);
  ASSERT_EQ(report.attempts.size(), 10u);  // initial + 9 retries
  // kResilienceBackoffMs: 1 ms, doubling per retry, capped at 64 ms.
  const uint32_t expected[] = {0, 1, 2, 4, 8, 16, 32, 64, 64, 64};
  for (size_t i = 0; i < report.attempts.size(); ++i) {
    EXPECT_EQ(report.attempts[i].backoffMs, expected[i]) << i;
  }
  EXPECT_FALSE(report.recovered);
  EXPECT_EQ(report.finalCode, StatusCode::kUnavailable);
  EXPECT_EQ(mgr.deviceHealth(0), simfault::DeviceHealth::kFaulted);
}

TEST(ResilienceTest, RetryRuleRetriesOnlyTransientFaultsWithinBudget) {
  const simfault::BackoffSchedule schedule{64, 4096};
  // Only UNAVAILABLE is transient; the rest reproduce deterministically.
  for (const StatusCode code :
       {StatusCode::kInternal, StatusCode::kDeadlineExceeded,
        StatusCode::kResourceExhausted, StatusCode::kFailedPrecondition}) {
    EXPECT_EQ(simfault::decideRetry(code, 1, 3, schedule).verdict,
              simfault::RetryVerdict::kPermanent);
  }
  const auto retry = [&](uint32_t n, uint32_t budget) {
    return simfault::decideRetry(StatusCode::kUnavailable, n, budget,
                                 schedule);
  };
  EXPECT_EQ(retry(1, 0).verdict, simfault::RetryVerdict::kExhausted);
  EXPECT_EQ(retry(3, 3).verdict, simfault::RetryVerdict::kRetry);
  EXPECT_EQ(retry(4, 3).verdict, simfault::RetryVerdict::kExhausted);
  EXPECT_EQ(retry(1, 3).backoff, 64u);
  EXPECT_EQ(retry(2, 3).backoff, 128u);
  EXPECT_EQ(retry(7, 7).backoff, 4096u);
  // The doubling saturates instead of overflowing.
  const uint32_t huge = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(retry(64, huge).backoff, 4096u);
  EXPECT_EQ(retry(huge, huge).backoff, 4096u);
}

TEST(ResilienceTest, SimdFaultRecoversViaModeFallback) {
  DeviceManager mgr({ArchSpec::testTiny()});
  mgr.setDefaultResilience({}, simfault::ResilienceMode::kOn);
  MatrixKernel kernel;
  auto stats = mgr.launchOn(
      0, simdConfig("sharing_exhausted:block=0:count=0:when=simd"),
      kernel.region());
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_TRUE(kernel.verified()) << "fallback must produce correct results";

  const simfault::ResilienceReport& report = mgr.lastResilienceReport(0);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_EQ(report.attempts[0].code, StatusCode::kResourceExhausted);
  EXPECT_EQ(report.attempts[1].stage, simfault::RecoveryStage::kModeFallback);
  EXPECT_EQ(report.attempts[1].code, StatusCode::kOk);
  EXPECT_NE(report.attempts[1].shape.find("simdlen=1"), std::string::npos)
      << report.attempts[1].shape;
  EXPECT_TRUE(report.recovered);
}

TEST(ResilienceTest, PersistentFaultRecoversViaHostSerial) {
  DeviceManager mgr({ArchSpec::testTiny()});
  mgr.setDefaultResilience({}, simfault::ResilienceMode::kOn);
  MatrixKernel kernel;
  auto stats = mgr.launchOn(0, simdConfig("livelock:block=0:count=0"),
                            kernel.region());
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_TRUE(kernel.verified());

  const simfault::ResilienceReport& report = mgr.lastResilienceReport(0);
  ASSERT_EQ(report.attempts.size(), 3u);
  EXPECT_EQ(report.attempts[0].code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.attempts[1].stage, simfault::RecoveryStage::kModeFallback);
  EXPECT_EQ(report.attempts[1].code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.attempts[2].stage, simfault::RecoveryStage::kHostSerial);
  EXPECT_EQ(report.attempts[2].code, StatusCode::kOk);
  EXPECT_EQ(report.resets, 2u);
  EXPECT_EQ(mgr.deviceHealth(0), simfault::DeviceHealth::kHealthy);
}

TEST(ResilienceTest, UnrecoveredFaultLeavesDeviceFaulted) {
  DeviceManager mgr({ArchSpec::testTiny()});
  simfault::ResiliencePolicy policy;
  policy.hostSerial = false;
  mgr.setDefaultResilience(policy, simfault::ResilienceMode::kOn);
  MatrixKernel kernel;
  auto stats = mgr.launchOn(0, simdConfig("barrier_corrupt:block=0:count=0"),
                            kernel.region());
  ASSERT_FALSE(stats.isOk());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  const simfault::ResilienceReport& report = mgr.lastResilienceReport(0);
  EXPECT_FALSE(report.succeeded());
  EXPECT_EQ(report.finalCode, StatusCode::kFailedPrecondition);
  EXPECT_FALSE(report.finalMessage.empty());
  EXPECT_EQ(mgr.deviceHealth(0), simfault::DeviceHealth::kFaulted);
}

TEST(ResilienceTest, ModeOffSurfacesFailuresDirectly) {
  DeviceManager mgr({ArchSpec::testTiny()});
  mgr.setDefaultResilience({}, simfault::ResilienceMode::kOff);
  MatrixKernel kernel;
  auto stats =
      mgr.launchOn(0, simdConfig("device_lost_pre:count=1"), kernel.region());
  ASSERT_FALSE(stats.isOk());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  // No chain ran: the report is the empty default.
  EXPECT_TRUE(mgr.lastResilienceReport(0).attempts.empty());
}

TEST(ResilienceTest, ReportByteIdenticalAcrossRerunsAndWorkers) {
  const auto run = [](uint32_t workers) {
    DeviceManager mgr({ArchSpec::testTiny()});
    mgr.setDefaultResilience({}, simfault::ResilienceMode::kOn);
    MatrixKernel kernel;
    (void)mgr.launchOn(0, simdConfig("livelock:block=0:count=0", workers),
                       kernel.region());
    return mgr.lastResilienceReport(0).toString();
  };
  const std::string first = run(1);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run(1)) << "rerun must be byte-identical";
  EXPECT_EQ(first, run(8)) << "worker count must not change the report";
}

TEST(ResilienceTest, ReportsSurviveResetAndFailedLaunch) {
  DeviceManager mgr({ArchSpec::testTiny()});
  mgr.setDefaultResilience({}, simfault::ResilienceMode::kOn);
  MatrixKernel kernel;
  ASSERT_TRUE(
      mgr.launchOn(0, simdConfig("device_lost_pre:count=1"), kernel.region())
          .isOk());
  const std::string recovered = mgr.lastResilienceReport(0).toString();

  // A manual device reset keeps the published report.
  mgr.resetDevice(0);
  EXPECT_EQ(mgr.deviceHealth(0), simfault::DeviceHealth::kReset);
  EXPECT_EQ(mgr.lastResilienceReport(0).toString(), recovered);

  // A subsequent *failed* launch replaces it with the failure report —
  // publication happens also (especially) when the chain loses.
  simfault::ResiliencePolicy strict;
  strict.maxRetries = 0;
  strict.modeFallback = false;
  strict.hostSerial = false;
  mgr.setDefaultResilience(strict, simfault::ResilienceMode::kOn);
  ASSERT_FALSE(
      mgr.launchOn(0, simdConfig("trap:block=0:step=5:count=0"),
                   kernel.region())
          .isOk());
  EXPECT_FALSE(mgr.lastResilienceReport(0).succeeded());
  EXPECT_EQ(mgr.lastResilienceReport(0).finalCode, StatusCode::kInternal);

  // Device-level check report survives alongside (see
  // DeviceFaultTest.LastCheckReportSurvivesLostPre for the device half).
  EXPECT_EQ(mgr.device(0).resetCount(), 2u);  // chain reset + manual reset
}

// ---------------- hardened TargetTaskQueue ----------------

TEST(AsyncHardeningTest, ThrowingRegionFailsFutureNotQueue) {
  DeviceManager mgr({ArchSpec::testTiny()});
  omprt::TargetConfig config;
  config.numTeams = 1;
  config.threadsPerTeam = 32;
  config.hostWorkers = 1;

  auto bad = mgr.launchOnAsync(0, config, [](omprt::OmpContext& ctx) {
    if (ctx.gpu().threadId() == 0) {
      throw std::runtime_error("kernel bug: exploding target region");
    }
  });
  auto status_carrier = mgr.launchOnAsync(0, config, [](omprt::OmpContext& ctx) {
    if (ctx.gpu().threadId() == 0) {
      throw StatusException(Status::resourceExhausted("carried across"));
    }
  });
  // A healthy task behind the throwing ones still runs to completion.
  auto good =
      mgr.launchOnAsync(0, config, [](omprt::OmpContext& ctx) {
        ctx.gpu().work(1);
      });

  // drain() must return: the helper thread survived both throws.
  mgr.drainAll();
  EXPECT_EQ(mgr.taskQueue(0).pendingTasks(), 0u);

  auto bad_result = bad.get();
  ASSERT_FALSE(bad_result.isOk());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kInternal);
  EXPECT_NE(bad_result.status().message().find("exploding target region"),
            std::string::npos)
      << bad_result.status().toString();

  auto carried = status_carrier.get();
  ASSERT_FALSE(carried.isOk());
  EXPECT_EQ(carried.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(carried.status().message().find("carried across"),
            std::string::npos);

  EXPECT_TRUE(good.get().isOk());
  EXPECT_EQ(mgr.taskQueue(0).completedTasks(), 3u);
}

}  // namespace
}  // namespace simtomp::hostrt
