// Serve resilience: goodput under a deterministic fault storm.
//
// The same deadline-carrying workload (400 requests, 2 tenants, waves
// of 20 over 2 tiny devices) runs twice through identical launch
// services: once clean, once with a storm that arms a transient
// device-lost fault on every 10th request. Goodput is *modeled*:
// completions that met their deadline budget (TenantStats.deadlineHit)
// — so the number is deterministic, not a wall-clock artifact. The
// gate: storm goodput must stay >= 70% of clean goodput, i.e. retry
// budgets, breakers and migration must actually absorb the storm
// instead of letting it cascade. Results land in
// BENCH_serve_resilience.json; tools/ci.sh stage 11 runs this after
// the chaos-campaign byte-compare.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hostrt/device_manager.h"
#include "simserve/mix.h"
#include "simserve/service.h"

namespace {

using namespace simtomp;
using bench::Row;

constexpr size_t kDevices = 2;
constexpr uint32_t kRequests = 400;
constexpr uint32_t kWave = 20;
constexpr uint32_t kFaultEvery = 10;  ///< storm: every 10th request
constexpr uint64_t kDeadline = 16384;
constexpr double kGoodputGate = 0.70;

struct RunOut {
  uint64_t goodput = 0;  ///< deadline hits across tenants
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t migrated = 0;
  uint64_t breakerTrips = 0;
  double hostMs = 0.0;
};

RunOut runOnce(bool storm) {
  std::vector<gpusim::ArchSpec> specs(kDevices, gpusim::ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  simserve::LaunchService service(mgr, simserve::ServiceConfig{});

  const char* const tenants[2] = {"alpha", "beta"};
  for (uint32_t t = 0; t < 2; ++t) {
    simserve::TenantSpec spec;
    spec.name = tenants[t];
    spec.priority = 1 + t;
    spec.maxInFlight = kWave;
    spec.maxQueued = kWave;
    spec.deadlineCycles = kDeadline;
    const Status st = service.registerTenant(spec);
    if (!st.isOk()) {
      std::fprintf(stderr, "FATAL: %s\n", st.toString().c_str());
      std::abort();
    }
  }

  const bench::WallTimer timer;
  for (uint32_t r = 0; r < kRequests; ++r) {
    const size_t kernel = r % 3;
    const uint64_t trip = 64 + 64 * (r % 3);
    auto out = std::make_shared<std::vector<uint64_t>>(trip, 0);
    omprt::TargetConfig config;
    config.teamsMode = omprt::ExecMode::kSPMD;
    config.numTeams = 2;
    config.threadsPerTeam = 64;
    config.parallelMode = omprt::ExecMode::kSPMD;
    config.simdlen = 4;
    config.check.mode = simcheck::CheckMode::kOff;
    config.tripCount = trip;
    config.watchdogSteps = simserve::kRequestWatchdogSteps;
    config.fault.spec = "off";
    if (storm && r % kFaultEvery == kFaultEvery - 1) {
      config.fault.spec = "device_lost_pre";
    }
    const std::string fingerprint = simserve::mixKernelNames()[kernel] +
                                    "/t" + std::to_string(trip);
    const Result<uint64_t> admitted = service.submit(
        tenants[r % 2], std::move(config),
        simserve::makeMixRegion(kernel, trip, out), fingerprint);
    if (!admitted.isOk()) {
      std::fprintf(stderr, "FATAL: submit %u: %s\n", r,
                   admitted.status().toString().c_str());
      std::abort();
    }
    if ((r + 1) % kWave == 0) {
      service.pump();
      const Status st = service.drain();
      if (!st.isOk()) {
        std::fprintf(stderr, "FATAL: drain: %s\n", st.toString().c_str());
        std::abort();
      }
    }
  }
  const Status done = service.runToCompletion();
  if (!done.isOk()) {
    std::fprintf(stderr, "FATAL: %s\n", done.toString().c_str());
    std::abort();
  }

  RunOut run;
  run.hostMs = timer.elapsedMs();
  for (const char* name : tenants) {
    const simserve::TenantStats s = service.tenantStats(name);
    run.goodput += s.deadlineHit;
    run.completed += s.completed;
    run.failed += s.failed;
    run.migrated += s.migrated;
    run.breakerTrips += s.breakerTrips;
  }
  return run;
}

}  // namespace

int main() {
  const RunOut clean = runOnce(/*storm=*/false);
  const RunOut storm = runOnce(/*storm=*/true);

  const double ratio =
      clean.goodput > 0
          ? static_cast<double>(storm.goodput) /
                static_cast<double>(clean.goodput)
          : 0.0;

  std::vector<Row> rows;
  rows.push_back({"clean", clean.goodput, 1.0, clean.hostMs});
  rows.push_back({"storm (1-in-10 device-lost)", storm.goodput, ratio,
                  storm.hostMs});
  bench::printTable("Serve resilience: goodput (deadline hits) under storm",
                    "clean goodput (requests)", clean.goodput, rows);
  std::printf(
      "storm: completed %llu, failed %llu, migrated %llu, breaker trips "
      "%llu; goodput ratio %.3f (gate %.2f)\n",
      static_cast<unsigned long long>(storm.completed),
      static_cast<unsigned long long>(storm.failed),
      static_cast<unsigned long long>(storm.migrated),
      static_cast<unsigned long long>(storm.breakerTrips), ratio,
      kGoodputGate);

  std::FILE* f = std::fopen("BENCH_serve_resilience.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write BENCH_serve_resilience.json\n");
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"serve_resilience\",\n"
      "  \"requests\": %u,\n"
      "  \"fault_every\": %u,\n"
      "  \"deadline_cycles\": %llu,\n"
      "  \"clean_goodput\": %llu,\n"
      "  \"storm_goodput\": %llu,\n"
      "  \"storm_completed\": %llu,\n"
      "  \"storm_failed\": %llu,\n"
      "  \"storm_migrated\": %llu,\n"
      "  \"storm_breaker_trips\": %llu,\n"
      "  \"goodput_ratio\": %.4f,\n"
      "  \"goodput_gate\": %.2f\n"
      "}\n",
      kRequests, kFaultEvery, static_cast<unsigned long long>(kDeadline),
      static_cast<unsigned long long>(clean.goodput),
      static_cast<unsigned long long>(storm.goodput),
      static_cast<unsigned long long>(storm.completed),
      static_cast<unsigned long long>(storm.failed),
      static_cast<unsigned long long>(storm.migrated),
      static_cast<unsigned long long>(storm.breakerTrips), ratio,
      kGoodputGate);
  std::fclose(f);
  std::printf("wrote BENCH_serve_resilience.json\n");

  if (ratio < kGoodputGate) {
    std::fprintf(stderr,
                 "FATAL: storm goodput ratio %.3f below the %.2f gate\n",
                 ratio, kGoodputGate);
    return 1;
  }
  return 0;
}
