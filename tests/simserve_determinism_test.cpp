// The launch service's determinism contract, exercised the way CI
// byte-compares the driver: one mix, fresh manager+service per run,
// dumpStats() captured as a string. Runs vary host workers (physical
// interleaving) and shard count (placement); the dumps must be equal
// to the byte. This suite runs under ThreadSanitizer in tools/ci.sh
// stage 2 (simserve_ matches the TSan regex), so the 8-worker replays
// here double as the race detector for the service's multi-producer
// submit path.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hostrt/device_manager.h"
#include "simserve/mix.h"
#include "simserve/service.h"

namespace simtomp::simserve {
namespace {

using gpusim::ArchSpec;

/// A mix that forces real shedding pressure: tight per-tenant queues
/// and enough requests between drains to overflow the global bound.
Mix pressuredMix() {
  MixProfile profile;
  profile.seed = 11;
  profile.tenants = 4;
  profile.requests = 96;
  profile.pumpEvery = 32;
  profile.faultPermille = 20;
  profile.maxInFlight = 8;
  profile.maxQueued = 6;
  return generateMix(profile);
}

std::string runMix(const Mix& mix, uint32_t workers, uint32_t shards,
                   ReplayReport* report_out = nullptr) {
  std::vector<gpusim::ArchSpec> specs(4, ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  ServiceConfig config;
  config.shardCount = shards;
  config.maxQueued = 24;  // global bound small enough to shed
  LaunchService service(mgr, config);
  const Result<ReplayReport> report = replayMix(service, mix, workers);
  EXPECT_TRUE(report.isOk()) << report.status().toString();
  if (report.isOk() && report_out != nullptr) *report_out = report.value();
  std::ostringstream out;
  service.dumpStats(out);
  return out.str();
}

TEST(ServeDeterminismTest, ShedUnderFullQueueIsIdentical1v8Workers) {
  const Mix mix = pressuredMix();
  ReplayReport report;
  const std::string workers1 = runMix(mix, 1, 4, &report);
  const std::string workers8 = runMix(mix, 8, 4);
  // The pressure must be real — a mix that sheds nothing would pass
  // this test vacuously.
  EXPECT_GT(report.shedAtSubmit, 0u);
  EXPECT_GT(report.admitted, 0u);
  EXPECT_EQ(workers1, workers8);
}

TEST(ServeDeterminismTest, StatsIdenticalAcrossShardCountsAndReruns) {
  const Mix mix = pressuredMix();
  const std::string base = runMix(mix, 1, 4);
  EXPECT_EQ(base, runMix(mix, 1, 4));   // rerun
  EXPECT_EQ(base, runMix(mix, 1, 1));   // one shard
  EXPECT_EQ(base, runMix(mix, 1, 13));  // prime shard count
  EXPECT_EQ(base, runMix(mix, 8, 13));  // both axes at once
}

TEST(ServeDeterminismTest, FrequentDeviceLossIsShardInvariant) {
  // The CLI's frequent-loss mix (serve gen --seed 7 --tenants 5
  // --requests 160 --pump-every 48 --fault-permille 150), replayed the
  // way `simtomp serve replay` does: 4 tiny devices, default config.
  MixProfile profile;
  profile.seed = 7;
  profile.tenants = 5;
  profile.requests = 160;
  profile.pumpEvery = 48;
  profile.faultPermille = 150;
  const Mix mix = generateMix(profile);
  uint64_t faulted = 0;
  for (const MixOp& op : mix.ops) {
    if (op.kind == MixOp::Kind::kRequest && !op.fault.empty()) ++faulted;
  }
  ASSERT_EQ(faulted, 23u);

  const auto replay = [&mix](uint32_t shards, uint64_t* migrated) {
    hostrt::DeviceManager mgr(
        std::vector<gpusim::ArchSpec>(4, ArchSpec::testTiny()));
    ServiceConfig config;
    config.shardCount = shards;
    LaunchService service(mgr, config);
    const Result<ReplayReport> report = replayMix(service, mix);
    EXPECT_TRUE(report.isOk()) << report.status().toString();
    *migrated = 0;
    for (uint32_t t = 0; t < 5; ++t) {
      std::string name = "t";
      name += std::to_string(t);
      *migrated += service.tenantStats(name).migrated;
    }
    std::ostringstream out;
    service.dumpStats(out);
    return out.str();
  };
  // Each faulted request loses its device on its own launch, whichever
  // device its shard maps to, so all of them migrate at any shard count.
  uint64_t migrated = 0;
  const std::string base = replay(0, &migrated);
  EXPECT_EQ(migrated, faulted);
  uint64_t migrated_13 = 0;
  EXPECT_EQ(base, replay(13, &migrated_13));
  EXPECT_EQ(migrated_13, faulted);
}

TEST(ServeDeterminismTest, ConcurrentSubmittersDoNotRace) {
  // submit() is the service's only multi-producer entry; hammer it from
  // four threads while the service thread pumps/drains. Counts are
  // checked for conservation (every submission accepted or shed) —
  // dispatch *order* is only defined relative to arrival order, which
  // concurrent submitters deliberately leave unordered.
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  LaunchService service(mgr);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  for (int t = 0; t < kThreads; ++t) {
    TenantSpec spec;
    spec.name = "t";
    spec.name += std::to_string(t);
    spec.priority = 1 + static_cast<uint32_t>(t % 2);
    ASSERT_TRUE(service.registerTenant(spec).isOk());
  }
  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kSPMD;
  config.numTeams = 1;
  config.threadsPerTeam = 64;
  config.check.mode = simcheck::CheckMode::kOff;
  config.fault.spec = "off";
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &config, t] {
      std::string name = "t";
      name += std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        std::string fingerprint = "k";
        fingerprint += std::to_string(i % 3);
        const auto id = service.submit(name, config,
                                       [](omprt::OmpContext&) {},
                                       fingerprint);
        EXPECT_TRUE(id.isOk() ||
                    id.status().code() == StatusCode::kResourceExhausted);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  ASSERT_TRUE(service.runToCompletion().isOk());
  uint64_t completed = 0, shed = 0;
  for (int t = 0; t < kThreads; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    const TenantStats stats = service.tenantStats(name);
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kPerThread));
    EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
    completed += stats.completed;
    shed += stats.shed;
  }
  EXPECT_EQ(completed + shed,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace simtomp::simserve
