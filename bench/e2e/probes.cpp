// Per-layer calibration probes of the traced run. Each times one
// layer's public calls on a fixed input, so the numbers mean the same
// thing whichever workload's traced run produced them.
#include <cstdlib>
#include <memory>

#include "e2e.h"
#include "fiber/fiber.h"
#include "gpusim/device.h"
#include "gpusim/executor.h"
#include "omprt/target.h"
#include "simfuzz/generator.h"
#include "simfuzz/harness.h"

namespace simtomp::e2e {

namespace {

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double usSince(Clock::time_point start) {
  return msBetween(start, Clock::now()) * 1e3;
}

void tallyRun(const std::vector<OpSample>& samples, size_t from,
              ProbeTally& tally) {
  for (size_t i = from; i < samples.size(); ++i) {
    ++tally.attempted;
    tally.failed += samples[i].ok ? 0 : 1;
  }
}

void fiberProbes(std::vector<Metric>& out, ProbeTally& tally) {
  // fiber.switch_ns is one scheduler step: a yield() round trip.
  constexpr int kFibers = 32;
  constexpr int kYields = 20000;
  {
    fiber::FiberScheduler scheduler;
    for (int f = 0; f < kFibers; ++f) {
      scheduler.spawn([&scheduler] {
        for (int i = 0; i < kYields; ++i) scheduler.yield();
      });
    }
    const Clock::time_point start = Clock::now();
    const Status ran = scheduler.run();
    const double ns = msBetween(start, Clock::now()) * 1e6;
    ++tally.attempted;
    tally.failed += ran.isOk() ? 0 : 1;
    out.push_back({"fiber.switch_ns", ns / (kFibers * kYields), "ns"});
  }
  constexpr int kSpawned = 256;
  std::vector<double> perFiberUs;
  for (int rep = 0; rep < 20; ++rep) {
    fiber::FiberScheduler scheduler;
    const Clock::time_point start = Clock::now();
    for (int f = 0; f < kSpawned; ++f) scheduler.spawn([] {});
    const Status ran = scheduler.run();
    perFiberUs.push_back(usSince(start) / kSpawned);
    ++tally.attempted;
    tally.failed += ran.isOk() ? 0 : 1;
  }
  out.push_back({"fiber.spawn_us", median(perFiberUs), "us"});
}

/// Device constructor wall time and minor faults, median of 5.
double deviceInitMs(const gpusim::ArchSpec& arch, double* faults) {
  std::vector<double> ms;
  std::vector<double> minflt;
  for (int rep = 0; rep < 5; ++rep) {
    const Usage u0 = Usage::now();
    const Clock::time_point start = Clock::now();
    auto device = std::make_unique<gpusim::Device>(arch);
    ms.push_back(msBetween(start, Clock::now()));
    minflt.push_back(static_cast<double>(Usage::now().minorFaults - u0.minorFaults));
  }
  if (faults != nullptr) *faults = median(minflt);
  return median(ms);
}

void gpusimProbes(uint32_t workers, double& tinyInitMs,
                  std::vector<Metric>& out) {
  double faults = 0.0;
  tinyInitMs = deviceInitMs(gpusim::ArchSpec::testTiny(), &faults);
  out.push_back({"gpusim.device_init_ms", tinyInitMs, "ms"});
  out.push_back({"gpusim.device_init_faults", faults, "count"});
  out.push_back({"gpusim.device_init_ms_a100",
                 deviceInitMs(gpusim::ArchSpec::nvidiaA100(), nullptr), "ms"});

  // Both calls take well under a microsecond to a few microseconds, so
  // the mean over many calls reads finer than the clock.
  gpusim::Device device(gpusim::ArchSpec::testTiny());
  constexpr int kAllocs = 10000;
  Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kAllocs; ++rep) {
    auto span = device.allocateArray<std::byte>(size_t{1} << 20);
    if (span.isOk()) (void)device.freeArray(span.value().data());
  }
  out.push_back({"gpusim.alloc_free_us", usSince(start) / kAllocs, "us"});

  constexpr int kParallelFors = 2000;
  start = Clock::now();
  for (int rep = 0; rep < kParallelFors; ++rep) {
    gpusim::BlockExecutor::global().parallelFor(64, workers, [](uint32_t) {});
  }
  out.push_back({"gpusim.executor_noop_us", usSince(start) / kParallelFors,
                 "us"});
}

/// The paper-apps op list once per configuration: host workers 1,
/// simcheck report and profiling on, each against the pinned baseline.
void paperAppsProbes(uint64_t seed, std::vector<Metric>& out,
                     ProbeTally& tally) {
  const std::unique_ptr<Workload> apps = makeWorkload("paper-apps", seed, 0);
  out.push_back({"paper_speedup_err", paperSpeedupError(*apps), "fraction"});

  struct Config {
    const char* env;
    const char* value;
    double ms = 0.0;
  };
  Config configs[] = {{nullptr, nullptr},
                      {"SIMTOMP_HOST_WORKERS", "1"},
                      {"SIMTOMP_CHECK", "report"},
                      {"SIMTOMP_PROF", "on"}};
  Tracer off;
  std::vector<OpSample> samples;
  for (Config& config : configs) {
    std::string saved;
    if (config.env != nullptr) {
      const char* current = std::getenv(config.env);
      saved = current != nullptr ? current : "";
      setenv(config.env, config.value, 1);
    }
    const size_t from = samples.size();
    const Clock::time_point start = Clock::now();
    apps->runRound(0, off, samples);
    config.ms = msBetween(start, Clock::now());
    tallyRun(samples, from, tally);
    if (config.env != nullptr) setenv(config.env, saved.c_str(), 1);
  }
  // A round repeats the warm-up ops, so it has their sync events.
  const double base = configs[0].ms;
  out.push_back({"fiber.host_ns_per_sync_event",
                 base * 1e6 / static_cast<double>(apps->warmup().syncEvents()),
                 "ns"});
  out.push_back({"gpusim.executor_scaling", configs[1].ms / base, "ratio"});
  out.push_back({"simcheck.overhead_ratio", configs[2].ms / base, "ratio"});
  out.push_back({"simprof.overhead_ratio", configs[3].ms / base, "ratio"});
}

void fastPathProbe(uint64_t seed, uint32_t workers, std::vector<Metric>& out,
                   ProbeTally& tally) {
  const std::unique_ptr<Workload> off =
      makeSpmdConvergent(seed, workers, omprt::FastPathMode::kOff);
  const std::unique_ptr<Workload> on =
      makeSpmdConvergent(seed, workers, omprt::FastPathMode::kOn);
  Tracer none;
  std::vector<OpSample> samples;
  double offMs = 0.0;
  double onMs = 0.0;
  for (uint64_t round = 0; round < 5; ++round) {
    Clock::time_point start = Clock::now();
    off->runRound(round, none, samples);
    offMs += msBetween(start, Clock::now());
    start = Clock::now();
    on->runRound(round, none, samples);
    onMs += msBetween(start, Clock::now());
  }
  tallyRun(samples, 0, tally);
  out.push_back({"omprt.fastpath_speedup", offMs / onMs, "ratio"});
}

/// DeviceManager construction, the async launch path, and the
/// serve-waves client loop for a fixed 32 waves.
void hostrtAndServeProbes(uint64_t seed, std::vector<Metric>& out,
                          ProbeTally& tally) {
  const Clock::time_point start = Clock::now();
  hostrt::DeviceManager manager(
      std::vector<gpusim::ArchSpec>(4, gpusim::ArchSpec::testTiny()));
  out.push_back({"hostrt.manager_init_ms", msBetween(start, Clock::now()), "ms"});

  omprt::TargetConfig config;
  config.numTeams = 1;
  config.threadsPerTeam = 32;
  config.hostWorkers = 1;
  config.check.mode = simcheck::CheckMode::kOff;
  config.fault.spec = "off";
  const omprt::TargetRegionFn region = [](omprt::OmpContext& ctx) {
    ctx.gpu().work(1);
  };
  std::vector<double> directUs;
  std::vector<double> asyncUs;
  for (int rep = 0; rep < 200; ++rep) {
    Clock::time_point t = Clock::now();
    const bool direct =
        omprt::launchTarget(manager.device(0), config, region).isOk();
    directUs.push_back(usSince(t));
    t = Clock::now();
    const bool async = manager.launchOnAsync(0, config, region).get().isOk();
    asyncUs.push_back(usSince(t));
    tally.attempted += 2;
    tally.failed += (direct ? 0 : 1) + (async ? 0 : 1);
  }
  out.push_back({"hostrt.async_overhead_us",
                 median(asyncUs) - median(directUs), "us"});

  omprt::Dispatcher::global().clear();  // as a Workload set-up does
  ServeLoop loop(manager, seed);
  Tracer off;
  std::vector<OpSample> samples;
  for (uint64_t wave = 0; wave < 32; ++wave) loop.runWave(wave, off, samples);
  tallyRun(samples, 0, tally);
  out.push_back({"simserve.submit_us_p50", quantile(loop.submitUs, 0.5), "us"});
  out.push_back({"simserve.pump_ms_p50", quantile(loop.pumpMs, 0.5), "ms"});
  out.push_back({"simserve.drain_ms_p50", quantile(loop.drainMs, 0.5), "ms"});
  out.push_back({"simserve.drain_ms_p90", quantile(loop.drainMs, 0.9), "ms"});
  out.push_back({"simserve.queue_wait_ms_p50",
                 quantile(loop.queueWaitMs, 0.5), "ms"});
  out.push_back({"simserve.batch_amortization",
                 static_cast<double>(loop.amortized()) /
                     static_cast<double>(loop.admitted()),
                 "fraction"});
  out.push_back({"simserve.peak_inflight",
                 static_cast<double>(loop.peakInFlight()), "count"});
  out.push_back({"simserve.modeled_latency_p99_cycles",
                 static_cast<double>(loop.latencyP99Cycles()), "cycles"});
}

/// referenceRun on the fuzz-matrix program shapes, and one program
/// through the six-cell matrix to compare device construction with a
/// whole op.
void simfuzzProbes(uint64_t seed, uint32_t workers, double tinyInitMs,
                   std::vector<Metric>& out, ProbeTally& tally) {
  const simfuzz::Generator generator(0);
  std::vector<double> referenceMs;
  for (uint64_t i = 0; i < kFuzzPrograms; ++i) {
    const simfuzz::FuzzProgram program = generator.generate(i);
    const Clock::time_point start = Clock::now();
    const std::vector<double> want = simfuzz::referenceRun(program);
    referenceMs.push_back(msBetween(start, Clock::now()));
    if (want.size() != program.dataSize()) ++tally.failed;
    ++tally.attempted;
  }
  out.push_back({"simfuzz.reference_ms_p50", median(referenceMs), "ms"});

  const std::unique_ptr<Workload> fuzz =
      makeWorkload("fuzz-matrix", seed, workers);
  Tracer off;
  std::vector<OpSample> samples;
  fuzz->runRound(0, off, samples);
  tallyRun(samples, 0, tally);
  std::vector<double> opMs;
  for (const OpSample& s : samples) opMs.push_back(s.ms);
  out.push_back({"simfuzz.device_init_share", tinyInitMs / median(opMs),
                 "fraction"});
}

}  // namespace

void runProbes(uint64_t seed, uint32_t workers, std::vector<Metric>& out,
               ProbeTally& tally) {
  fiberProbes(out, tally);
  double tinyInitMs = 0.0;
  gpusimProbes(workers, tinyInitMs, out);
  paperAppsProbes(seed, out, tally);
  fastPathProbe(seed, workers, out, tally);
  hostrtAndServeProbes(seed, out, tally);
  simfuzzProbes(seed, workers, tinyInitMs, out, tally);
}

}  // namespace simtomp::e2e
