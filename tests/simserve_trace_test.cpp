// Request-scoped tracing and the flight recorder (src/simserve/
// trace.h): zero perturbation of the service's byte-identity surfaces,
// byte-identical trace dumps across reruns / worker counts / shard
// counts, timeline and flight-recorder content, ring bounding, the
// failure-triggered auto-dump and the Perfetto export. The renderers
// are LaunchService members over its request table, so they also give
// the same bytes with the flight rings off.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "gpusim/trace.h"
#include "hostrt/device_manager.h"
#include "simserve/mix.h"
#include "simserve/service.h"

namespace simtomp::simserve {
namespace {

using gpusim::ArchSpec;

/// The same pressured mix the determinism suite replays: shedding,
/// batching and device-lost migrations all occur.
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

/// The pressured mix with a fifth tenant and half as many drains, so
/// the tenant quotas (5 x 6) can fill the 24-request global bound and
/// higher-priority arrivals evict, plus a tight deadline on t0, so
/// admission also sheds on deadline.
Mix evictingMix() {
  MixProfile profile;
  profile.seed = 11;
  profile.tenants = 5;
  profile.requests = 96;
  profile.pumpEvery = 64;
  profile.faultPermille = 20;
  profile.maxInFlight = 8;
  profile.maxQueued = 6;
  Mix mix = generateMix(profile);
  for (MixOp& op : mix.ops) {
    if (op.kind == MixOp::Kind::kTenant && op.tenant.name == "t0") {
      op.tenant.deadlineCycles = 300;
    }
  }
  return mix;
}

omprt::TargetConfig plainConfig(const std::string& fault = "") {
  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kSPMD;
  config.numTeams = 1;
  config.threadsPerTeam = 64;
  config.check.mode = simcheck::CheckMode::kOff;
  config.fault.spec = fault.empty() ? "off" : fault;
  return config;
}

/// Replay `mix` (flight rings per `trace`) and return what `dump`
/// writes from the finished service; `report` receives the replay
/// report's text.
std::string replayDump(
    const Mix& mix, bool trace, uint32_t workers, uint32_t shards,
    const std::function<void(const LaunchService&, std::ostream&)>& dump,
    std::string* report_text = nullptr) {
  std::vector<ArchSpec> specs(4, ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  ServiceConfig config;
  config.shardCount = shards;
  config.maxQueued = 24;
  config.trace.enabled = trace;
  LaunchService service(mgr, config);
  const Result<ReplayReport> report = replayMix(service, mix, workers);
  EXPECT_TRUE(report.isOk()) << report.status().toString();
  if (report_text != nullptr && report.isOk()) {
    *report_text = report.value().toString();
  }
  EXPECT_EQ(service.tracer() != nullptr, trace);
  std::ostringstream out;
  dump(service, out);
  return out.str();
}

/// The five request renderers concatenated: all timelines (canonical
/// and physical), one request's timeline, SLO burn, histograms and
/// the Perfetto JSON.
void dumpRenderers(const LaunchService& service, std::ostream& out) {
  service.dumpTimelines(out, /*physical=*/false);
  service.dumpTimelines(out, /*physical=*/true);
  EXPECT_TRUE(service.dumpTimeline(out, 5, /*physical=*/true).isOk());
  service.dumpTenantSummary(out);
  service.dumpHistograms(out);
  gpusim::TraceRecorder recorder;
  service.exportPerfetto(recorder);
  recorder.writeChromeJson(out);
}

/// Every canonical dump surface concatenated: timelines, SLO burn,
/// histograms, flight recorder.
std::string traceSurfaces(const Mix& mix, uint32_t workers,
                          uint32_t shards) {
  return replayDump(mix, /*trace=*/true, workers, shards,
                    [](const LaunchService& service, std::ostream& out) {
                      service.dumpTimelines(out, /*physical=*/false);
                      service.dumpTenantSummary(out);
                      service.dumpHistograms(out);
                      service.tracer()->dumpFlight(out, /*physical=*/false);
                    });
}

/// The on-demand flight file `simtomp serve trace --flight` writes
/// without --physical, read back.
std::string onDemandFlightFile(const Mix& mix, uint32_t shards) {
  const std::string path = testing::TempDir() + "simserve_trace_flight.txt";
  return replayDump(
      mix, /*trace=*/true, 1, shards,
      [&](const LaunchService& service, std::ostream& out) {
        EXPECT_TRUE(service.tracer()
                        ->dumpFlightToFile(path, /*physical=*/false,
                                           "on_demand")
                        .isOk());
        std::ifstream in(path);
        out << in.rdbuf();
        std::remove(path.c_str());
      });
}

TEST(ServeTraceTest, TracingDoesNotPerturbTheStatsDump) {
  const Mix mix = pressuredMix();
  const auto stats = [](const LaunchService& service, std::ostream& out) {
    service.dumpStats(out);
  };
  std::string report_off, report_on;
  const std::string off =
      replayDump(mix, /*trace=*/false, 1, 4, stats, &report_off);
  const std::string on =
      replayDump(mix, /*trace=*/true, 1, 4, stats, &report_on);
  EXPECT_EQ(off, on) << "tracing must be purely observational";
  EXPECT_NE(report_off.find("completed="), std::string::npos) << report_off;
  EXPECT_EQ(report_off, report_on) << "tracing must not move the replay";
}

TEST(ServeTraceTest, DumpsAreByteIdenticalAcrossRerunsWorkersShards) {
  const Mix mix = pressuredMix();
  const std::string base = traceSurfaces(mix, 1, 4);
  // The surfaces must have real content to make the comparison mean
  // anything.
  EXPECT_NE(base.find("# simserve trace v1"), std::string::npos);
  EXPECT_NE(base.find("# simserve slo burn v1"), std::string::npos);
  EXPECT_NE(base.find("# simserve flight recorder v1"), std::string::npos);
  EXPECT_NE(base.find("migrated hop="), std::string::npos)
      << "the pressured mix must actually migrate requests";
  EXPECT_EQ(base, traceSurfaces(mix, 1, 4));   // rerun
  EXPECT_EQ(base, traceSurfaces(mix, 8, 4));   // worker count
  EXPECT_EQ(base, traceSurfaces(mix, 1, 13));  // prime shard count
  EXPECT_EQ(base, traceSurfaces(mix, 8, 13));  // both axes
}

TEST(ServeTraceTest, CanonicalSurfacesCarryNoPhysicalIdentity) {
  const std::string base = traceSurfaces(pressuredMix(), 1, 4);
  // Device/shard identities are physical detail: they must never leak
  // into the canonical (byte-compare) dump mode.
  EXPECT_EQ(base.find("device="), std::string::npos);
  EXPECT_EQ(base.find("shard="), std::string::npos);
}

TEST(ServeTraceTest, OnDemandFlightFileIsByteIdenticalAcrossShards) {
  const Mix mix = pressuredMix();
  const std::string base = onDemandFlightFile(mix, 4);
  EXPECT_NE(base.find("# simserve flight recorder v1 trigger=on_demand"),
            std::string::npos);
  EXPECT_EQ(base.find("device="), std::string::npos);
  EXPECT_EQ(base, onDemandFlightFile(mix, 13));
}

TEST(ServeTraceTest, TimelineRecordsBatchRolesAndDeadlineVerdicts) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  ServiceConfig config;
  config.trace.enabled = true;
  LaunchService service(mgr, config);
  TenantSpec spec;
  spec.name = "a";
  spec.deadlineCycles = uint64_t{1} << 20;
  ASSERT_TRUE(service.registerTenant(spec).isOk());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service
                    .submit("a", plainConfig(), [](omprt::OmpContext&) {},
                            "k")
                    .isOk());
  }
  service.pump();
  ASSERT_TRUE(service.drain().isOk());

  ServiceTracer* tracer = service.tracer();
  ASSERT_NE(tracer, nullptr);
  std::ostringstream all;
  service.dumpTimelines(all, /*physical=*/false);
  EXPECT_EQ(all.str().rfind("# simserve trace v1 requests=3\n", 0), 0u);

  std::ostringstream leader;
  ASSERT_TRUE(service.dumpTimeline(leader, 0, /*physical=*/false).isOk());
  EXPECT_NE(leader.str().find("dispatched role=leader"), std::string::npos);
  EXPECT_NE(leader.str().find("verdict=hit"), std::string::npos);
  EXPECT_NE(leader.str().find("outcome=done status=OK"), std::string::npos);

  std::ostringstream follower;
  ASSERT_TRUE(service.dumpTimeline(follower, 2, /*physical=*/false).isOk());
  EXPECT_NE(follower.str().find("dispatched role=follower"),
            std::string::npos);

  std::ostringstream flight;
  tracer->dumpFlight(flight, /*physical=*/false);
  EXPECT_NE(flight.str().find("batch fp=k size=3"), std::string::npos);

  std::ostringstream none;
  EXPECT_FALSE(service.dumpTimeline(none, 99, /*physical=*/false).isOk());
}

TEST(ServeTraceTest, MigrationShowsUpInTimelineAndFlightRing) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  ServiceConfig config;
  config.trace.enabled = true;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant({"a"}).isOk());
  ASSERT_TRUE(service
                  .submit("a", plainConfig("device_lost_post:count=1"),
                          [](omprt::OmpContext&) {}, "k")
                  .isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());

  ServiceTracer* tracer = service.tracer();
  ASSERT_NE(tracer, nullptr);
  std::ostringstream timeline;
  ASSERT_TRUE(service.dumpTimeline(timeline, 0, /*physical=*/false).isOk());
  EXPECT_NE(timeline.str().find("migrated hop=1 backoff=64"),
            std::string::npos);
  EXPECT_NE(timeline.str().find("outcome=done"), std::string::npos);
  EXPECT_EQ(timeline.str().find("from_device="), std::string::npos);

  // The physical timeline names the device the hop left and the one it
  // went to.
  std::ostringstream physicalTimeline;
  ASSERT_TRUE(
      service.dumpTimeline(physicalTimeline, 0, /*physical=*/true).isOk());
  EXPECT_NE(physicalTimeline.str().find("migrated hop=1 backoff=64 "
                                        "from_device="),
            std::string::npos);
  EXPECT_NE(physicalTimeline.str().find(" to_device="), std::string::npos);

  std::ostringstream canonical;
  tracer->dumpFlight(canonical, /*physical=*/false);
  EXPECT_NE(canonical.str().find("breaker_trip tenant=a"),
            std::string::npos);
  EXPECT_NE(canonical.str().find("migrate req=0 hop=1"), std::string::npos);
  EXPECT_EQ(canonical.str().find("from_device="), std::string::npos);

  // Physical mode prints the device detail the canonical mode withheld.
  std::ostringstream physical;
  tracer->dumpFlight(physical, /*physical=*/true);
  EXPECT_NE(physical.str().find("from_device="), std::string::npos);
  EXPECT_NE(physical.str().find("# physical ring"), std::string::npos);
}

/// The `tick=` field of the first line of `dump` that contains `event`.
std::string tickOf(const std::string& dump, const std::string& event) {
  const size_t at = dump.find(event);
  if (at == std::string::npos) return "missing: " + event;
  const size_t line = dump.rfind('\n', at) + 1;  // npos + 1 == 0
  const size_t tick = dump.find("tick=", line);
  if (tick == std::string::npos || tick > at) return "no tick: " + event;
  return dump.substr(tick, dump.find(' ', tick) - tick);
}

TEST(ServeTraceTest, RetryExhaustedTicksAtTheModeledLatencyWithoutHops) {
  // A retries=0 tenant's first device loss exhausts its budget before
  // any migration: the event ticks where the retirement does, not at
  // the queue delay.
  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  ServiceConfig config;
  config.trace.enabled = true;
  LaunchService service(mgr, config);
  TenantSpec tenant;
  tenant.name = "a";
  tenant.maxRetries = 0;
  ASSERT_TRUE(service.registerTenant(tenant).isOk());
  ASSERT_TRUE(service
                  .submit("a", plainConfig(), [](omprt::OmpContext&) {}, "k0")
                  .isOk());
  ASSERT_TRUE(service
                  .submit("a", plainConfig("device_lost_post:count=1"),
                          [](omprt::OmpContext&) {}, "k1")
                  .isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());

  std::ostringstream flight;
  service.tracer()->dumpFlight(flight, /*physical=*/false);
  const std::string retire = tickOf(flight.str(), " retire req=1 ");
  EXPECT_EQ(retire.rfind("tick=", 0), 0u) << retire;
  EXPECT_NE(retire, "tick=0");
  EXPECT_EQ(tickOf(flight.str(), " retry_exhausted req=1 hops=0"), retire);
}

TEST(ServeTraceTest, RingCapacityBoundsTheRecorderAndCountsDrops) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  ServiceConfig config;
  config.trace.enabled = true;
  config.trace.ringCapacity = 4;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant({"a"}).isOk());
  for (int i = 0; i < 8; ++i) {
    std::string kernel = "k";
    kernel += std::to_string(i);
    ASSERT_TRUE(service
                    .submit("a", plainConfig(), [](omprt::OmpContext&) {},
                            kernel)
                    .isOk());
  }
  ASSERT_TRUE(service.runToCompletion().isOk());
  const simprof::FlightRecorder& ring = service.tracer()->canonicalRing();
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_LE(ring.size(), 4u);
  EXPECT_GT(ring.dropped(), 0u);
  EXPECT_EQ(ring.recorded(), ring.size() + ring.dropped());
  std::ostringstream out;
  service.tracer()->dumpFlight(out, /*physical=*/false);
  EXPECT_NE(out.str().find("dropped="), std::string::npos);
}

TEST(ServeTraceTest, FailedLaunchTriggersTheAutoDump) {
  const std::string path = testing::TempDir() + "simserve_trace_auto.txt";
  std::remove(path.c_str());
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  ServiceConfig config;
  config.trace.enabled = true;
  config.trace.autoDumpPath = path;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant({"a"}).isOk());
  // A trap fault fails only its own launch (INTERNAL): the retirement
  // is a failure trigger.
  ASSERT_TRUE(service
                  .submit("a", plainConfig("trap:step=1:count=1"),
                          [](omprt::OmpContext&) {}, "k")
                  .isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "auto-dump file was not written";
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find(
                "# simserve flight recorder v1 trigger=failed_launch"),
            std::string::npos);
  EXPECT_NE(content.str().find("retire req=0 outcome=failed"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ServeTraceTest, PerfettoExportNamesTenantTracks) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  ServiceConfig config;
  config.trace.enabled = true;
  LaunchService service(mgr, config);
  ASSERT_TRUE(service.registerTenant({"alpha"}).isOk());
  ASSERT_TRUE(service.registerTenant({"beta"}).isOk());
  for (const char* tenant : {"alpha", "beta", "alpha"}) {
    ASSERT_TRUE(service
                    .submit(tenant, plainConfig(),
                            [](omprt::OmpContext&) {}, "k")
                    .isOk());
  }
  ASSERT_TRUE(service.runToCompletion().isOk());
  gpusim::TraceRecorder recorder;
  service.exportPerfetto(recorder);
  std::ostringstream out;
  recorder.writeChromeJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"beta\""), std::string::npos);
  EXPECT_NE(json.find("req 0 k"), std::string::npos);
  // The export is itself deterministic: a second export matches.
  gpusim::TraceRecorder again;
  service.exportPerfetto(again);
  std::ostringstream out2;
  again.writeChromeJson(out2);
  EXPECT_EQ(json, out2.str());
}

TEST(ServeTraceTest, TracerAbsentWhenDisabled) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  EXPECT_EQ(service.tracer(), nullptr);
}

TEST(ServeTraceTest, RenderersGiveTheSameBytesWithTracingOff) {
  const Mix mix = pressuredMix();
  const std::string on = replayDump(mix, /*trace=*/true, 1, 4, dumpRenderers);
  EXPECT_NE(on.find("migrated hop="), std::string::npos);
  EXPECT_EQ(on, replayDump(mix, /*trace=*/false, 1, 4, dumpRenderers));

  const Mix evicting = evictingMix();
  const std::string evictingOn =
      replayDump(evicting, /*trace=*/true, 1, 4, dumpRenderers);
  EXPECT_NE(evictingOn.find("evicted status="), std::string::npos);
  EXPECT_EQ(evictingOn,
            replayDump(evicting, /*trace=*/false, 1, 4, dumpRenderers));
}

TEST(ServeTraceTest, SloBurnOmitsTenantsThatNeverSubmitted) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  ASSERT_TRUE(service.registerTenant({"busy"}).isOk());
  ASSERT_TRUE(service.registerTenant({"silent"}).isOk());
  ASSERT_TRUE(service
                  .submit("busy", plainConfig(), [](omprt::OmpContext&) {},
                          "k")
                  .isOk());
  ASSERT_TRUE(service.runToCompletion().isOk());
  std::ostringstream out;
  service.dumpTenantSummary(out);
  EXPECT_NE(out.str().find("tenant busy: admitted=1 "), std::string::npos);
  EXPECT_EQ(out.str().find("silent"), std::string::npos);
}

TEST(ServeTraceTest, SloBurnShedAtSubmitMatchesTenantStats) {
  std::vector<ArchSpec> specs(4, ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  ServiceConfig config;
  config.maxQueued = 24;
  LaunchService service(mgr, config);
  ASSERT_TRUE(replayMix(service, evictingMix()).isOk());
  std::ostringstream out;
  service.dumpTenantSummary(out);
  std::istringstream lines(out.str());
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "# simserve slo burn v1");
  size_t tenants = 0;
  uint64_t evicted = 0;
  uint64_t deadlineShed = 0;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string tenantWord, name, field;
    words >> tenantWord >> name;
    ASSERT_EQ(tenantWord, "tenant");
    name.pop_back();  // trailing ':'
    uint64_t shedAtSubmit = UINT64_MAX;
    while (words >> field) {
      if (field.rfind("shed_at_submit=", 0) == 0) {
        shedAtSubmit = std::stoull(field.substr(field.find('=') + 1));
      }
    }
    const TenantStats s = service.tenantStats(name);
    EXPECT_EQ(shedAtSubmit, s.shed - s.evicted + s.deadlineShed) << line;
    evicted += s.evicted;
    deadlineShed += s.deadlineShed;
    ++tenants;
  }
  EXPECT_EQ(tenants, 5u);
  EXPECT_GT(evicted, 0u) << "the mix must evict for the subtraction to count";
  EXPECT_GT(deadlineShed, 0u);
}

}  // namespace
}  // namespace simtomp::simserve
