// SLO, retry-budget, breaker and brownout tests for LaunchService.
//
// Like the base service tests, every expectation here is about logical
// state (modeled cycles, shed decisions, breaker states), so the
// assertions are exact. The quota-boundary cases (maxInFlight==1,
// maxQueued==1, a zero deadline) pin down the off-by-one edges of
// admission control; the breaker cases walk the full
// closed -> open -> half-open -> closed protocol on the logical epoch
// clock, including a revival racing the serving loop.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "hostrt/device_manager.h"
#include "simprof/metrics.h"
#include "simserve/mix.h"
#include "simserve/service.h"

namespace simtomp::simserve {
namespace {

using gpusim::ArchSpec;

omprt::TargetConfig tinyConfig() {
  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kSPMD;
  config.numTeams = 1;
  config.threadsPerTeam = 64;
  config.parallelMode = omprt::ExecMode::kSPMD;
  config.check.mode = simcheck::CheckMode::kOff;
  config.fault.spec = "off";  // never consult SIMTOMP_FAULT in tests
  return config;
}

omprt::TargetRegionFn nop() {
  return [](omprt::OmpContext&) {};
}

TenantSpec tenant(std::string name, uint32_t priority = 1,
                  uint32_t in_flight = 64, uint32_t queued = 256) {
  TenantSpec spec;
  spec.name = std::move(name);
  spec.priority = priority;
  spec.maxInFlight = in_flight;
  spec.maxQueued = queued;
  return spec;
}

std::string fp(uint64_t i) { return "fp" + std::to_string(i); }

/// A fingerprint whose shard the service currently maps to `device`.
std::string fpOn(const LaunchService& service, size_t device) {
  for (uint64_t i = 0;; ++i) {
    const size_t shard = fingerprintHash(fp(i)) % service.shardCount();
    if (service.shardDevice(shard) == device) return fp(i);
  }
}

TEST(ServiceSloTest, ZeroDeadlineRequestIsShedAtAdmission) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  // A zero budget can never be met: dispatch alone costs
  // kDispatchCycles, so admission sheds even into an empty queue.
  const auto shed = service.submit("a", tinyConfig(), nop(), "k",
                                   /*deadlineCycles=*/0);
  ASSERT_FALSE(shed.isOk());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  const TenantStats stats = service.tenantStats("a");
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.deadlineShed, 1u);
  // Deadline sheds are their own conservation term, not part of shed.
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(service.queuedRequests(), 0u);
}

TEST(ServiceSloTest, DeadlineAdmissionChargesQueueAheadExactly) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  TenantSpec spec = tenant("a");
  // Budget exactly one dispatch: admission passes only while nothing
  // is queued ahead (ahead_cost = queued * kQueueSlotCycles +
  // kDispatchCycles).
  spec.deadlineCycles = kDispatchCycles;
  ASSERT_TRUE(service.registerTenant(spec).isOk());
  EXPECT_TRUE(service.submit("a", tinyConfig(), nop(), fp(0)).isOk());
  const auto second = service.submit("a", tinyConfig(), nop(), fp(1));
  ASSERT_FALSE(second.isOk());
  EXPECT_EQ(second.status().code(), StatusCode::kDeadlineExceeded);
  // A per-request kNoDeadline override opts out of the tenant default
  // and sails through the same queue depth.
  EXPECT_TRUE(
      service.submit("a", tinyConfig(), nop(), fp(2), kNoDeadline).isOk());
  EXPECT_EQ(service.tenantStats("a").deadlineShed, 1u);
  ASSERT_TRUE(service.runToCompletion().isOk());
  // Only the admitted deadline-carrying request is SLO-scored.
  const TenantStats stats = service.tenantStats("a");
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.deadlineHit + stats.deadlineMiss, 1u);
}

TEST(ServiceSloTest, RetirementScoresHitAndMiss) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  // Generous budget: a hit. Budget of exactly the admission threshold:
  // admission passes (256 <= 257 never shed at depth 0) but the final
  // modeled latency adds the kernel's own cycles, so it must miss.
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(0),
                             /*deadlineCycles=*/1u << 30)
                  .isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(1),
                             /*deadlineCycles=*/kDispatchCycles + 1)
                  .isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  const TenantStats stats = service.tenantStats("a");
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.deadlineHit, 1u);
  EXPECT_EQ(stats.deadlineMiss, 1u);
  const RequestOutcome hit = service.outcome(0);
  EXPECT_LE(hit.modeledLatencyCycles, hit.deadlineCycles);
  const RequestOutcome miss = service.outcome(1);
  EXPECT_GT(miss.modeledLatencyCycles, miss.deadlineCycles);
}

TEST(ServiceSloTest, RetryBudgetZeroFailsOnFirstLoss) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  LaunchService service(mgr);
  TenantSpec spec = tenant("a");
  spec.maxRetries = 0;  // fail on the first loss, never migrate
  ASSERT_TRUE(service.registerTenant(spec).isOk());
  omprt::TargetConfig faulted = tinyConfig();
  faulted.fault.spec = "device_lost_post:count=1";
  ASSERT_TRUE(service.submit("a", faulted, nop(), "k").isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  const RequestOutcome out = service.outcome(0);
  EXPECT_EQ(out.state, RequestState::kFailed);
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(out.migrated);
  EXPECT_EQ(out.retries, 0u);  // hops taken, not retries asked for
  const TenantStats stats = service.tenantStats("a");
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.retriesExhausted, 1u);
  EXPECT_EQ(stats.migrated, 0u);
  EXPECT_EQ(stats.retryBackoffCycles, 0u);
}

TEST(ServiceSloTest, RetryHopChargesModeledBackoff) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  omprt::TargetConfig faulted = tinyConfig();
  faulted.fault.spec = "device_lost_post:count=1";
  ASSERT_TRUE(service.submit("a", faulted, nop(), "k").isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  const RequestOutcome out = service.outcome(0);
  EXPECT_EQ(out.state, RequestState::kDone);
  EXPECT_TRUE(out.migrated);
  EXPECT_EQ(out.retries, 1u);
  // Hop 1 is charged exactly the schedule's base backoff plus a
  // dispatch — modeled, so the total is machine-independent.
  const uint64_t expected = kRetryBackoffCycles.base;
  EXPECT_EQ(service.tenantStats("a").retryBackoffCycles, expected);
  EXPECT_GE(out.modeledLatencyCycles,
            2 * kDispatchCycles + expected);  // two dispatches + backoff
}

TEST(ServiceSloTest, BreakerWalksOpenHalfOpenClosed) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  ServiceConfig config;
  config.breaker.tripThreshold = 1;
  config.breaker.cooldownEpochs = 2;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  omprt::TargetConfig faulted = tinyConfig();
  faulted.fault.spec = "device_lost_post:count=1";
  ASSERT_TRUE(service.submit("a", faulted, nop(), "k").isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());

  size_t tripped = mgr.numDevices();
  for (size_t d = 0; d < mgr.numDevices(); ++d) {
    if (!service.deviceServing(d)) tripped = d;
  }
  ASSERT_NE(tripped, mgr.numDevices());
  EXPECT_EQ(service.breakerState(tripped), simfault::BreakerState::kOpen);
  EXPECT_EQ(service.breakerTrips(tripped), 1u);
  EXPECT_EQ(service.breakerOpens(tripped), 1u);
  for (size_t s = 0; s < service.shardCount(); ++s) {
    EXPECT_NE(service.shardDevice(s), tripped) << s;
  }

  // Empty drains tick the logical epoch clock; after the cool-down the
  // breaker goes half-open and the device rejoins as a probe.
  while (service.breakerState(tripped) == simfault::BreakerState::kOpen) {
    ASSERT_TRUE(service.drain().isOk());
    ASSERT_LE(service.epoch(), 8u) << "cool-down never elapsed";
  }
  EXPECT_EQ(service.breakerState(tripped), simfault::BreakerState::kHalfOpen);
  EXPECT_TRUE(service.deviceServing(tripped));
  bool probe_has_shard = false;
  for (size_t s = 0; s < service.shardCount(); ++s) {
    probe_has_shard |= service.shardDevice(s) == tripped;
  }
  EXPECT_TRUE(probe_has_shard);

  // Probe traffic: the first clean retirement from the device closes
  // the breaker. Fan requests over both devices (distinct fingerprints
  // hash to distinct shards) so one lands on the probe.
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(i)).isOk());
  }
  ASSERT_TRUE(service.runToCompletion().isOk());
  EXPECT_EQ(service.breakerState(tripped), simfault::BreakerState::kClosed);
  // 8 probes plus the faulted request, which migrated and completed.
  EXPECT_EQ(service.tenantStats("a").completed, 9u);
}

TEST(ServiceSloTest, ReviveDuringHalfOpenProbeIsSafe) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  ServiceConfig config;
  config.breaker.tripThreshold = 1;
  config.breaker.cooldownEpochs = 1;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  omprt::TargetConfig faulted = tinyConfig();
  faulted.fault.spec = "device_lost_post:count=1";
  ASSERT_TRUE(service.submit("a", faulted, nop(), "k").isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  // cooldownEpochs=1: the drain that observed the trip already ticks
  // the clock past the cool-down, so the breaker is half-open now.
  size_t tripped = 0;
  for (size_t d = 0; d < mgr.numDevices(); ++d) {
    if (service.breakerState(d) != simfault::BreakerState::kClosed) {
      tripped = d;
    }
  }
  ASSERT_EQ(service.breakerState(tripped),
            simfault::BreakerState::kHalfOpen);

  // Race a manual revival against the serving loop while probe traffic
  // is in flight. reviveDevice force-closes under the service lock, so
  // whichever of (probe success, revival) lands first, the breaker
  // must end closed with every request definite.
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(i)).isOk());
  }
  service.pump();
  std::thread reviver([&service, tripped] {
    service.reviveDevice(tripped);
  });
  ASSERT_TRUE(service.drain().isOk());
  reviver.join();
  ASSERT_TRUE(service.runToCompletion().isOk());
  EXPECT_EQ(service.breakerState(tripped), simfault::BreakerState::kClosed);
  EXPECT_TRUE(service.deviceServing(tripped));
  const TenantStats stats = service.tenantStats("a");
  EXPECT_EQ(stats.completed + stats.failed, stats.accepted);
  EXPECT_EQ(stats.completed, 9u);
  EXPECT_EQ(service.dispatchedOutstanding(), 0u);
}

TEST(ServiceSloTest, PanicRevivalProbesTheBreakerNearestItsReopenEpoch) {
  hostrt::DeviceManager mgr(
      {ArchSpec::testTiny(), ArchSpec::testTiny(), ArchSpec::testTiny()});
  ServiceConfig config;
  config.breaker.tripThreshold = 1;
  config.breaker.cooldownEpochs = 10;  // no breaker half-opens on its own
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  TenantSpec once = tenant("once");
  once.maxRetries = 0;  // the last loss strands nothing on the probe
  ASSERT_TRUE(service.registerTenant(once).isOk());
  omprt::TargetConfig faulted = tinyConfig();
  faulted.fault.spec = "device_lost_post:count=1";
  // Lose device 2 at epoch 0, device 0 at epoch 1, device 1 at epoch 2:
  // the reopen epochs are 10, 11 and 12, so the nearest is not device 0.
  const size_t order[] = {2, 0, 1};
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(service.epoch(), i);
    const char* who = i < 2 ? "a" : "once";
    ASSERT_TRUE(
        service.submit(who, faulted, nop(), fpOn(service, order[i])).isOk());
    ASSERT_TRUE(service.runToCompletion().isOk());
  }
  EXPECT_EQ(service.tenantStats("a").completed, 2u);  // both migrated
  EXPECT_EQ(service.tenantStats("once").retriesExhausted, 1u);
  // Every breaker opened; panic revival forced device 2 half-open.
  for (size_t d = 0; d < 3; ++d) EXPECT_EQ(service.breakerOpens(d), 1u) << d;
  EXPECT_EQ(service.breakerState(0), simfault::BreakerState::kOpen);
  EXPECT_EQ(service.breakerState(1), simfault::BreakerState::kOpen);
  EXPECT_EQ(service.breakerState(2), simfault::BreakerState::kHalfOpen);
  EXPECT_FALSE(service.deviceServing(0));
  EXPECT_FALSE(service.deviceServing(1));
  EXPECT_TRUE(service.deviceServing(2));
  for (size_t s = 0; s < service.shardCount(); ++s) {
    EXPECT_EQ(service.shardDevice(s), 2u) << s;
  }
  // The probe's first successful retirement closes its breaker.
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(0)).isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  EXPECT_EQ(service.outcome(3).device, 2u);
  EXPECT_EQ(service.breakerState(2), simfault::BreakerState::kClosed);
  EXPECT_EQ(service.breakerState(0), simfault::BreakerState::kOpen);
}

TEST(ServiceSloTest, PanicRevivalBreaksReopenTiesToTheLowestDevice) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  ServiceConfig config;
  config.breaker.tripThreshold = 1;
  config.breaker.cooldownEpochs = 10;
  LaunchService service(mgr, config);
  TenantSpec once = tenant("once");
  once.maxRetries = 0;
  ASSERT_TRUE(service.registerTenant(once).isOk());
  omprt::TargetConfig faulted = tinyConfig();
  faulted.fault.spec = "device_lost_post:count=1";
  // Both devices die in one wave: equal reopen epochs.
  ASSERT_TRUE(service.submit("once", faulted, nop(), fpOn(service, 1)).isOk());
  ASSERT_TRUE(service.submit("once", faulted, nop(), fpOn(service, 0)).isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  EXPECT_EQ(service.tenantStats("once").retriesExhausted, 2u);
  EXPECT_EQ(service.breakerState(0), simfault::BreakerState::kHalfOpen);
  EXPECT_EQ(service.breakerState(1), simfault::BreakerState::kOpen);
  EXPECT_TRUE(service.deviceServing(0));
  EXPECT_FALSE(service.deviceServing(1));
}

TEST(ServiceSloTest, ServeMetricsEqualTheServiceTallies) {
  // Device loss, a deadline tenant, a retry-limited tenant and a queue
  // bound low enough for brownout, so every serve series moves.
  MixProfile profile;
  profile.seed = 7;
  profile.tenants = 5;
  profile.requests = 160;
  profile.pumpEvery = 48;
  profile.faultPermille = 150;
  profile.maxInFlight = 8;
  profile.maxQueued = 64;
  Mix mix = generateMix(profile);
  for (MixOp& op : mix.ops) {
    if (op.kind != MixOp::Kind::kTenant) continue;
    if (op.tenant.name == "t0") op.tenant.deadlineCycles = 1400;
    if (op.tenant.name == "t3") op.tenant.maxRetries = 0;
  }
  auto& metrics = simprof::MetricsRegistry::global();
  metrics.reset();
  std::vector<ArchSpec> specs(4, ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  ServiceConfig config;
  config.maxQueued = 32;
  LaunchService service(mgr, config);
  ASSERT_TRUE(replayMix(service, mix).isOk());

  TenantStats sum;
  for (uint32_t i = 0; i < profile.tenants; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    const TenantStats s = service.tenantStats(name);
    sum.submitted += s.submitted;
    sum.accepted += s.accepted;
    sum.shed += s.shed;
    sum.brownoutShed += s.brownoutShed;
    sum.deadlineShed += s.deadlineShed;
    sum.completed += s.completed;
    sum.migrated += s.migrated;
    sum.deadlineHit += s.deadlineHit;
    sum.deadlineMiss += s.deadlineMiss;
    sum.retriesExhausted += s.retriesExhausted;
    sum.retryBackoffCycles += s.retryBackoffCycles;
    sum.breakerTrips += s.breakerTrips;
  }
  // The mix must reach every recovery and SLO path it is here to check.
  EXPECT_GT(sum.migrated, 0u);
  EXPECT_GT(sum.retriesExhausted, 0u);
  EXPECT_GT(sum.brownoutShed, 0u);
  EXPECT_GT(sum.deadlineShed + sum.deadlineMiss, 0u);
  EXPECT_GT(sum.deadlineHit, 0u);

  using namespace simprof::metric;
  EXPECT_EQ(metrics.value(kServeRequestsTotal), sum.submitted);
  EXPECT_EQ(metrics.value(kServeAcceptedTotal), sum.accepted);
  EXPECT_EQ(metrics.value(kServeShedTotal), sum.shed);
  EXPECT_EQ(metrics.value(kServeBrownoutShedTotal), sum.brownoutShed);
  EXPECT_EQ(metrics.value(kServeDeadlineShedTotal), sum.deadlineShed);
  EXPECT_EQ(metrics.value(kServeMigrationsTotal), sum.migrated);
  EXPECT_EQ(metrics.value(kServeDeadlineHitTotal), sum.deadlineHit);
  EXPECT_EQ(metrics.value(kServeDeadlineMissTotal), sum.deadlineMiss);
  EXPECT_EQ(metrics.value(kServeRetriesExhaustedTotal), sum.retriesExhausted);
  EXPECT_EQ(metrics.value(kServeBreakerTripsTotal), sum.breakerTrips);
  EXPECT_EQ(metrics.value(kServeBatchesTotal), service.batchesDispatched());
  EXPECT_EQ(metrics.value(kServeInFlightPeak), service.peakInFlight());
  EXPECT_EQ(metrics.value(kServeRetryBackoffCycles), sum.migrated);
  EXPECT_EQ(metrics.histogramSum(kServeRetryBackoffCycles),
            sum.retryBackoffCycles);
  EXPECT_EQ(metrics.value(kServeLatencyCycles), sum.completed);
  metrics.reset();
}

TEST(ServiceSloTest, BrownoutShedsLowestPriorityAndDisablesBatching) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  ServiceConfig config;
  config.maxQueued = 64;
  config.brownoutHighWater = 4;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant(tenant("lo", /*priority=*/1)).isOk());
  ASSERT_TRUE(service.registerTenant(tenant("hi", /*priority=*/2)).isOk());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.submit("hi", tinyConfig(), nop(), "k").isOk());
  }
  EXPECT_TRUE(service.brownoutActive());
  // At the high-water mark the lowest registered priority is shed;
  // higher classes are still admitted (the hard bound is far away).
  const auto lo = service.submit("lo", tinyConfig(), nop(), "k");
  ASSERT_FALSE(lo.isOk());
  EXPECT_EQ(lo.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.tenantStats("lo").brownoutShed, 1u);
  EXPECT_EQ(service.tenantStats("lo").shed, 1u);
  ASSERT_TRUE(service.submit("hi", tinyConfig(), nop(), "k").isOk());
  // Brownout also suppresses same-kernel batching while the queue sits
  // at/past the mark, re-checked per batch leader — so of five
  // same-fingerprint requests, the first dispatches as a singleton
  // (queue still at the mark afterwards) and batching resumes once the
  // pump works the queue below it.
  EXPECT_EQ(service.pump(), 5u);
  ASSERT_TRUE(service.drain().isOk());
  EXPECT_FALSE(service.outcome(0).batchFollower);
  EXPECT_EQ(service.batchesDispatched(), 2u);
  EXPECT_EQ(service.tenantStats("hi").batchFollowers, 3u);
  EXPECT_EQ(service.amortizedResolutions(), 3u);
  EXPECT_FALSE(service.brownoutActive());
  // Below the mark from the start, the same burst is one full batch.
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.submit("hi", tinyConfig(), nop(), "k").isOk());
  }
  EXPECT_EQ(service.pump(), 3u);
  ASSERT_TRUE(service.drain().isOk());
  EXPECT_EQ(service.batchesDispatched(), 3u);
  EXPECT_EQ(service.tenantStats("hi").batchFollowers, 5u);
}

TEST(ServiceSloTest, MaxInFlightOneDispatchesOnePerWave) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(
      service.registerTenant(tenant("a", 1, /*in_flight=*/1)).isOk());
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(i)).isOk());
  }
  // The dispatch budget resets only at drain, so each wave moves
  // exactly one request and a second pump in the same wave moves none.
  for (uint64_t wave = 0; wave < 3; ++wave) {
    EXPECT_EQ(service.pump(), 1u) << wave;
    EXPECT_EQ(service.pump(), 0u) << wave;
    ASSERT_TRUE(service.drain().isOk());
  }
  EXPECT_EQ(service.queuedRequests(), 0u);
  const std::vector<uint64_t> expected = {0, 1, 2};
  EXPECT_EQ(service.dispatchOrder(), expected);
  EXPECT_EQ(service.tenantStats("a").completed, 3u);
}

TEST(ServiceSloTest, MaxQueuedOneShedsSecondArrival) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(service.registerTenant(tenant("a", 1, 64, /*queued=*/1)).isOk());
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(0)).isOk());
  const auto second = service.submit("a", tinyConfig(), nop(), fp(1));
  ASSERT_FALSE(second.isOk());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  // The slot frees at dispatch (queued -> dispatched), not at drain.
  EXPECT_EQ(service.pump(), 1u);
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(2)).isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  const TenantStats stats = service.tenantStats("a");
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

}  // namespace
}  // namespace simtomp::simserve
