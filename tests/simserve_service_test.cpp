// LaunchService admission, scheduling, batching and migration tests.
//
// Every expectation here is about *logical* state — dispatch order,
// shed decisions, modeled latency — which the service derives from
// (arrival seq, tenant, priority, queue contents) only, so these tests
// are exact, not statistical.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hostrt/device_manager.h"
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

/// Unique fingerprint per call site — disables batching so dispatch
/// order is one request at a time.
std::string fp(uint64_t i) { return "fp" + std::to_string(i); }

TEST(LaunchServiceTest, RegistrationValidation) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  EXPECT_TRUE(service.registerTenant(tenant("a")).isOk());
  EXPECT_EQ(service.registerTenant(tenant("a")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.registerTenant(tenant("")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.registerTenant(tenant("b", /*priority=*/0)).code(),
            StatusCode::kInvalidArgument);
  const auto unknown = service.submit("nobody", tinyConfig(), nop(), "k");
  ASSERT_FALSE(unknown.isOk());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

TEST(LaunchServiceTest, ZeroQuotaTenantIsSuspended) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(
      service.registerTenant(tenant("noflight", 1, /*in_flight=*/0)).isOk());
  ASSERT_TRUE(
      service
          .registerTenant(tenant("noqueue", 1, /*in_flight=*/8, /*queued=*/0))
          .isOk());
  for (const char* name : {"noflight", "noqueue"}) {
    const auto shed = service.submit(name, tinyConfig(), nop(), "k");
    ASSERT_FALSE(shed.isOk()) << name;
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted) << name;
    const TenantStats stats = service.tenantStats(name);
    EXPECT_EQ(stats.submitted, 1u) << name;
    EXPECT_EQ(stats.accepted, 0u) << name;
    EXPECT_EQ(stats.shed, 1u) << name;
  }
  EXPECT_EQ(service.queuedRequests(), 0u);
  EXPECT_TRUE(service.runToCompletion().isOk());
}

TEST(LaunchServiceTest, EqualPrioritiesDegradeToArrivalOrder) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  LaunchService service(mgr);
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(service.registerTenant(tenant(name, /*priority=*/1)).isOk());
  }
  const char* tenants[] = {"a", "c", "b", "b", "a", "c", "a", "b", "c"};
  for (uint64_t i = 0; i < std::size(tenants); ++i) {
    const auto id = service.submit(tenants[i], tinyConfig(), nop(), fp(i));
    ASSERT_TRUE(id.isOk());
    EXPECT_EQ(id.value(), i);
  }
  EXPECT_EQ(service.pump(), std::size(tenants));
  const std::vector<uint64_t> order = service.dispatchOrder();
  ASSERT_EQ(order.size(), std::size(tenants));
  for (uint64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i) << "equal priorities must preserve arrival order";
  }
  EXPECT_TRUE(service.drain().isOk());
}

TEST(LaunchServiceTest, WeightedRoundRobinServesClassesByPriority) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(service.registerTenant(tenant("hi", /*priority=*/3)).isOk());
  ASSERT_TRUE(service.registerTenant(tenant("lo", /*priority=*/1)).isOk());
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(service.submit("hi", tinyConfig(), nop(), fp(i)).isOk());
  }
  for (uint64_t i = 6; i < 12; ++i) {
    ASSERT_TRUE(service.submit("lo", tinyConfig(), nop(), fp(i)).isOk());
  }
  EXPECT_EQ(service.pump(), 12u);
  // Rounds of (3 hi, 1 lo) until hi runs dry, then lo alone.
  const std::vector<uint64_t> expected = {0, 1, 2, 6, 3, 4, 5, 7, 8, 9, 10,
                                          11};
  EXPECT_EQ(service.dispatchOrder(), expected);
  EXPECT_TRUE(service.drain().isOk());
}

TEST(LaunchServiceTest, SameKernelBatchingAmortizesResolution) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), "same").isOk());
  }
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), "other").isOk());
  EXPECT_EQ(service.pump(), 5u);
  EXPECT_EQ(service.batchesDispatched(), 2u);
  EXPECT_EQ(service.amortizedResolutions(), 3u);
  EXPECT_FALSE(service.outcome(0).batchFollower);
  for (uint64_t id : {1u, 2u, 3u}) {
    EXPECT_TRUE(service.outcome(id).batchFollower) << id;
  }
  EXPECT_FALSE(service.outcome(4).batchFollower);
  // Modeled pre-execution latency: ahead * 16 + 256 (leader) / 32
  // (follower).
  EXPECT_EQ(service.outcome(0).modeledLatencyCycles, 256u);
  EXPECT_EQ(service.outcome(1).modeledLatencyCycles, 1 * 16u + 32u);
  EXPECT_EQ(service.outcome(2).modeledLatencyCycles, 2 * 16u + 32u);
  EXPECT_EQ(service.outcome(3).modeledLatencyCycles, 3 * 16u + 32u);
  EXPECT_TRUE(service.drain().isOk());
}

TEST(LaunchServiceTest, InFlightBudgetHoldsBackDispatchUntilDrain) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(
      service.registerTenant(tenant("a", 1, /*in_flight=*/2)).isOk());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(i)).isOk());
  }
  EXPECT_EQ(service.pump(), 2u);
  EXPECT_EQ(service.queuedRequests(), 3u);
  EXPECT_EQ(service.pump(), 0u);  // budget exhausted until drain
  ASSERT_TRUE(service.drain().isOk());
  EXPECT_EQ(service.pump(), 2u);
  ASSERT_TRUE(service.runToCompletion().isOk());
  EXPECT_EQ(service.queuedRequests(), 0u);
  EXPECT_EQ(service.peakInFlight(), 2u);
  EXPECT_EQ(service.tenantStats("a").completed, 5u);
}

TEST(LaunchServiceTest, GlobalBoundShedsLowestPriorityNewest) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  ServiceConfig config;
  config.maxQueued = 4;
  // This test exercises the hard bound's evict-or-refuse rule; keep
  // brownout (which would shed "lo" arrivals earlier) out of the way.
  config.brownoutHighWater = config.maxQueued + 1;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant(tenant("lo", /*priority=*/1)).isOk());
  ASSERT_TRUE(service.registerTenant(tenant("hi", /*priority=*/2)).isOk());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.submit("lo", tinyConfig(), nop(), fp(i)).isOk());
  }
  // Equal-priority incoming is itself the lowest-priority newest: shed.
  const auto refused = service.submit("lo", tinyConfig(), nop(), fp(4));
  ASSERT_FALSE(refused.isOk());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // Higher-priority incoming evicts the newest queued low request.
  const auto admitted = service.submit("hi", tinyConfig(), nop(), fp(5));
  ASSERT_TRUE(admitted.isOk());
  EXPECT_EQ(service.outcome(3).state, RequestState::kShed);
  const TenantStats lo = service.tenantStats("lo");
  EXPECT_EQ(lo.shed, 2u);     // one refused + one evicted
  EXPECT_EQ(lo.evicted, 1u);
  EXPECT_EQ(service.queuedRequests(), 4u);
  ASSERT_TRUE(service.runToCompletion().isOk());
  EXPECT_EQ(service.tenantStats("hi").completed, 1u);
  EXPECT_EQ(service.tenantStats("lo").completed, 3u);
}

TEST(LaunchServiceTest, PerTenantQueueQuotaShedsIncoming) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(
      service.registerTenant(tenant("a", 1, 64, /*queued=*/2)).isOk());
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(0)).isOk());
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), fp(1)).isOk());
  const auto shed = service.submit("a", tinyConfig(), nop(), fp(2));
  ASSERT_FALSE(shed.isOk());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(service.runToCompletion().isOk());
}

TEST(LaunchServiceTest, SameFingerprintRequestsShareAShard) {
  hostrt::DeviceManager mgr(
      {ArchSpec::testTiny(), ArchSpec::testTiny(), ArchSpec::testTiny(),
       ArchSpec::testTiny()});
  ServiceConfig config;
  config.shardCount = 8;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), "colocate").isOk());
  }
  EXPECT_EQ(service.shardCount(), 8u);
  const uint32_t shard = service.outcome(0).shard;
  for (uint64_t id = 1; id < 6; ++id) {
    EXPECT_EQ(service.outcome(id).shard, shard);
  }
  ASSERT_TRUE(service.runToCompletion().isOk());
  const uint32_t device = service.outcome(0).device;
  for (uint64_t id = 1; id < 6; ++id) {
    EXPECT_EQ(service.outcome(id).device, device);
  }
}

TEST(LaunchServiceTest, DeviceLossMigratesWithoutLosingRequests) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  // One trip opens the breaker and the cool-down never elapses in this
  // test, so the faulted device stays out of service until reviveDevice —
  // the strictest breaker setting (default policy tolerates one
  // transient loss and re-admits the device after its reset).
  ServiceConfig config;
  config.breaker.tripThreshold = 1;
  config.breaker.cooldownEpochs = 1000;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  omprt::TargetConfig faulted = tinyConfig();
  faulted.fault.spec = "device_lost_post:count=1";
  // Three same-fingerprint requests (one batch, one device); the middle
  // one kills its device after executing.
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), "k").isOk());
  ASSERT_TRUE(service.submit("a", faulted, nop(), "k").isOk());
  ASSERT_TRUE(service.submit("a", tinyConfig(), nop(), "k").isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());

  for (uint64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(service.outcome(id).state, RequestState::kDone) << id;
  }
  EXPECT_TRUE(service.outcome(1).migrated);
  EXPECT_EQ(service.tenantStats("a").migrated, 1u);
  EXPECT_EQ(service.tenantStats("a").completed, 3u);
  // Dispatch order: the accepted order, then the re-dispatch appended.
  const std::vector<uint64_t> expected = {0, 1, 2, 1};
  EXPECT_EQ(service.dispatchOrder(), expected);

  // The faulted device was drained, quiesced and reset; its shards now
  // map to the surviving device.
  size_t serving = 0, quiesced_device = 0;
  for (size_t d = 0; d < mgr.numDevices(); ++d) {
    if (service.deviceServing(d)) {
      ++serving;
    } else {
      quiesced_device = d;
    }
  }
  ASSERT_EQ(serving, 1u);
  // The breaker opened on the trip and takes the device out of
  // service; the manager's health machine shows the completed reset.
  EXPECT_EQ(mgr.deviceHealth(quiesced_device), simfault::DeviceHealth::kReset);
  EXPECT_EQ(service.breakerState(quiesced_device),
            simfault::BreakerState::kOpen);
  for (size_t s = 0; s < service.shardCount(); ++s) {
    EXPECT_NE(service.shardDevice(s), quiesced_device);
  }

  // Revival force-closes the breaker and restores the canonical
  // mapping; the health machine still reads kReset.
  service.reviveDevice(quiesced_device);
  EXPECT_TRUE(service.deviceServing(quiesced_device));
  EXPECT_EQ(service.breakerState(quiesced_device),
            simfault::BreakerState::kClosed);
  EXPECT_EQ(mgr.deviceHealth(quiesced_device), simfault::DeviceHealth::kReset);
  bool any_on_revived = false;
  for (size_t s = 0; s < service.shardCount(); ++s) {
    any_on_revived |= service.shardDevice(s) == quiesced_device;
  }
  EXPECT_TRUE(any_on_revived);
}

TEST(LaunchServiceTest, LosingEveryDeviceFailsPendingWork) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  // Total-loss path: the strictest breaker plus no panic revival, so
  // losing the only device really empties the serving set (the default
  // config would instead keep the device in traffic).
  ServiceConfig config;
  config.breaker.tripThreshold = 1;
  config.panicRevival = false;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant(tenant("a")).isOk());
  omprt::TargetConfig faulted = tinyConfig();
  faulted.fault.spec = "device_lost_post:count=1";
  ASSERT_TRUE(service.submit("a", faulted, nop(), "k").isOk());
  service.pump();
  const Status drained = service.drain();
  ASSERT_FALSE(drained.isOk());
  EXPECT_EQ(drained.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.outcome(0).state, RequestState::kFailed);
  EXPECT_EQ(service.tenantStats("a").failed, 1u);
}

TEST(LaunchServiceTest, FingerprintHashIsStableFnv1a) {
  // FNV-1a offset basis for the empty string; platform-independent by
  // construction (std::hash would not be).
  EXPECT_EQ(fingerprintHash(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fingerprintHash("axpy"), fingerprintHash("axpy"));
  EXPECT_NE(fingerprintHash("axpy"), fingerprintHash("stencil"));
}

TEST(LatencyHistogramTest, QuantileUpperBounds) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.quantileUpperBound(0.5), 0u);
  for (uint64_t v = 1; v <= 100; ++v) hist.observe(v);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.sum(), 5050u);
  // Buckets are powers of 4: <=4 holds 4 values, <=16 holds 16, <=64
  // holds 64, <=256 holds all 100.
  EXPECT_EQ(hist.quantileUpperBound(0.5), 64u);
  EXPECT_EQ(hist.quantileUpperBound(0.99), 256u);
  EXPECT_EQ(hist.toString(), "count=100 sum=5050 p50<=64 p99<=256");
}

}  // namespace
}  // namespace simtomp::simserve
