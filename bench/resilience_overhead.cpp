// Resilience overhead guard: the watchdog and fault-injection hooks
// ride every launch (gpusim::LaunchConfig carries them even when no
// plan is armed), so this bench pins their cost when *nothing* is
// injected. Modeled cycles must be byte-identical with the watchdog on
// or off — step accounting is host-side bookkeeping, never charged to
// the simulated device — and the host wall-clock delta is the real
// price, recorded so the trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_common.h"
#include "dsl/dsl.h"
#include "simfault/fault.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::Row;

struct RunResult {
  uint64_t cycles = 0;
  double hostMs = 0.0;
};

/// The fig9-style three-level kernel, large enough that per-step
/// watchdog accounting would show up if it cost anything meaningful.
RunResult runKernel(uint64_t watchdogSteps) {
  gpusim::Device dev;
  dsl::LaunchSpec spec;
  spec.numTeams = 64;
  spec.threadsPerTeam = 128;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = omprt::ExecMode::kSPMD;
  spec.simdlen = 32;
  spec.fault.spec = "off";  // pin injection off regardless of env
  spec.watchdogSteps = watchdogSteps;
  bench::WallTimer timer;
  auto stats = dsl::targetTeamsDistributeParallelFor(
      dev, spec, 8192, [](dsl::OmpContext& ctx, uint64_t) {
        dsl::simd(ctx, 64, dsl::convergent([](dsl::OmpContext& c, uint64_t) {
                    c.gpu().work(4);
                  }));
      });
  RunResult out;
  out.cycles = checkOk(stats, "resilience overhead kernel").cycles;
  out.hostMs = timer.elapsedMs();
  return out;
}

void BM_Resilience(benchmark::State& state) {
  const uint64_t steps = state.range(0) != 0 ? 0 : simfault::kWatchdogOff;
  uint64_t cycles = 0;
  for (auto _ : state) cycles = runKernel(steps).cycles;
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_Resilience)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ::unsetenv("SIMTOMP_FAULT");
  ::unsetenv("SIMTOMP_WATCHDOG");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const RunResult off = runKernel(simfault::kWatchdogOff);
  const RunResult on = runKernel(0);  // auto -> default step budget
  if (off.cycles != on.cycles) {
    std::fprintf(stderr,
                 "FATAL: watchdog perturbed modeled cycles: off=%llu on=%llu\n",
                 static_cast<unsigned long long>(off.cycles),
                 static_cast<unsigned long long>(on.cycles));
    std::abort();
  }
  bench::printTable(
      "Resilience overhead (no fault plan armed)", "watchdog off", off.cycles,
      {{"watchdog on (default budget)", on.cycles,
        static_cast<double>(off.cycles) / static_cast<double>(on.cycles),
        on.hostMs},
       {"watchdog off", off.cycles, 1.0, off.hostMs}});
  (void)bench::writeBenchJson("resilience");
  return 0;
}
