// Serve throughput: the launch service's scale gate.
//
// One seeded request mix (1200 requests, 4 tenants, no mid-mix drains,
// quotas wide open) replayed through a LaunchService over 4 tiny
// devices. Because the mix never drains until the end, one pump
// dispatches everything — so the service must sustain >= 1000
// concurrent in-flight launches across the 4 device queues (gated on
// peakInFlight()). The same mix then replays at 8 host workers and at
// a prime shard count; every per-tenant stats dump must be
// byte-identical to the first (aborts otherwise — the determinism
// contract of src/simserve/service.h). Host wall time is reported as
// requests per host-second, with the worst per-tenant p99 modeled
// latency, in BENCH_serving.json. tools/ci.sh stage 9 runs this after
// the replay byte-compare.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hostrt/device_manager.h"
#include "simserve/mix.h"
#include "simserve/service.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::Row;

constexpr size_t kDevices = 4;
constexpr uint32_t kRequests = 1200;
constexpr uint64_t kInFlightGate = 1000;

struct RunOut {
  std::string stats;       ///< dumpStats bytes (the identity surface)
  double hostMs = 0.0;
  uint64_t peakInFlight = 0;
  uint64_t admitted = 0;
  uint64_t p99 = 0;  ///< worst per-tenant p99 modeled latency (cycles)
};

simserve::Mix theMix() {
  simserve::MixProfile profile;
  profile.seed = 42;
  profile.tenants = 4;
  profile.requests = kRequests;
  profile.pumpEvery = 0;  // queue everything; one pump dispatches it all
  profile.maxInFlight = kRequests;
  profile.maxQueued = kRequests;
  return simserve::generateMix(profile);
}

RunOut runOnce(uint32_t workers, uint32_t shards) {
  std::vector<gpusim::ArchSpec> specs(kDevices, gpusim::ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  simserve::ServiceConfig config;
  config.shardCount = shards;
  simserve::LaunchService service(mgr, config);

  const simserve::Mix mix = theMix();

  const bench::WallTimer timer;
  const simserve::ReplayReport report =
      checkOk(simserve::replayMix(service, mix, workers), "serve replay");
  RunOut out;
  out.hostMs = timer.elapsedMs();
  out.peakInFlight = service.peakInFlight();
  out.admitted = report.admitted;
  for (uint32_t t = 0; t < 4; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    const simserve::TenantStats stats = service.tenantStats(name);
    out.p99 = std::max(out.p99, stats.latency.quantileUpperBound(0.99));
  }
  std::ostringstream stats;
  service.dumpStats(stats);
  out.stats = stats.str();
  return out;
}

void requireIdentical(const RunOut& a, const RunOut& b, const char* what) {
  if (a.stats != b.stats) {
    std::fprintf(stderr,
                 "FATAL: per-tenant stats differ (%s)\n--- a ---\n%s--- b "
                 "---\n%s",
                 what, a.stats.c_str(), b.stats.c_str());
    std::abort();
  }
}

void requireScale(const RunOut& run, const char* what) {
  if (run.peakInFlight < kInFlightGate) {
    std::fprintf(stderr,
                 "FATAL: %s: peak in-flight %llu below the %llu gate\n", what,
                 static_cast<unsigned long long>(run.peakInFlight),
                 static_cast<unsigned long long>(kInFlightGate));
    std::abort();
  }
}

Status writeServingJson(const RunOut& w1, const RunOut& w8) {
  std::FILE* f = std::fopen("BENCH_serving.json", "w");
  if (f == nullptr) {
    return Status::internal("cannot open BENCH_serving.json for writing");
  }
  const auto reqPerS = [](const RunOut& run) {
    return run.hostMs > 0.0
               ? static_cast<double>(run.admitted) / (run.hostMs / 1000.0)
               : 0.0;
  };
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"serving\",\n"
      "  \"devices\": %zu,\n"
      "  \"requests\": %u,\n"
      "  \"peak_inflight\": %llu,\n"
      "  \"peak_inflight_gate\": %llu,\n"
      "  \"p99_modeled_latency_cycles\": %llu,\n"
      "  \"runs\": [\n"
      "    {\"workers\": 1, \"host_ms\": %.3f, "
      "\"requests_per_host_s\": %.1f},\n"
      "    {\"workers\": 8, \"host_ms\": %.3f, "
      "\"requests_per_host_s\": %.1f}\n"
      "  ]\n"
      "}\n",
      kDevices, kRequests, static_cast<unsigned long long>(w1.peakInFlight),
      static_cast<unsigned long long>(kInFlightGate),
      static_cast<unsigned long long>(w1.p99), w1.hostMs, reqPerS(w1),
      w8.hostMs, reqPerS(w8));
  std::fclose(f);
  std::printf("wrote BENCH_serving.json\n");
  return Status::ok();
}

}  // namespace

int main() {
  const RunOut workers1 = runOnce(/*workers=*/1, /*shards=*/4);
  const RunOut workers8 = runOnce(/*workers=*/8, /*shards=*/4);
  const RunOut shards13 = runOnce(/*workers=*/1, /*shards=*/13);

  requireScale(workers1, "workers=1 shards=4");
  requireScale(workers8, "workers=8 shards=4");
  requireScale(shards13, "workers=1 shards=13");
  requireIdentical(workers1, workers8, "1 vs 8 host workers");
  requireIdentical(workers1, shards13, "4 vs 13 shards");

  // Modeled latency totals are identical by contract; the interesting
  // column is host wall time (requests drain faster with more workers).
  const uint64_t modeled = workers1.p99;
  std::vector<Row> rows;
  rows.push_back({"workers=1 shards=4", modeled, 1.0, workers1.hostMs});
  rows.push_back({"workers=8 shards=4", modeled,
                  workers1.hostMs / workers8.hostMs, workers8.hostMs});
  rows.push_back({"workers=1 shards=13", modeled,
                  workers1.hostMs / shards13.hostMs, shards13.hostMs});
  bench::printTable("Serve throughput: 1200 requests over 4 devices",
                    "p99 modeled latency (cycles)", modeled, rows);
  std::printf("peak in-flight: %llu (gate %llu), admitted %llu\n",
              static_cast<unsigned long long>(workers1.peakInFlight),
              static_cast<unsigned long long>(kInFlightGate),
              static_cast<unsigned long long>(workers1.admitted));

  const Status json = writeServingJson(workers1, workers8);
  if (!json.isOk()) {
    std::fprintf(stderr, "FATAL: %s\n", json.toString().c_str());
    return 1;
  }
  return 0;
}
