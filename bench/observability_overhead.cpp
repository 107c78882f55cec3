// Observability overhead guard: the simprof hooks ride every launch
// (ThreadCtx carries the profile pointer even when profiling is off),
// so this bench pins their cost. The contract is absolute: profiling
// observes the thread clocks and never charges, so the *entire*
// KernelStats — cycles, busy cycles, every counter — must be
// bit-identical with profiling off, on, and on with deep tracing
// attached. The host wall-clock delta is the real price, recorded so
// the trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_common.h"
#include "dsl/dsl.h"
#include "gpusim/trace.h"
#include "simprof/profile.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::Row;

struct RunResult {
  gpusim::KernelStats stats;
  double hostMs = 0.0;
};

/// The fig9-style three-level kernel: wide enough that the per-construct
/// enter/exit hooks fire millions of times, so any charging or clock
/// perturbation (or meaningful host cost) would show up.
RunResult runKernel(simprof::ProfileMode mode, bool trace) {
  gpusim::Device dev;
  gpusim::TraceRecorder recorder;
  if (trace) dev.setTraceRecorder(&recorder);
  dsl::LaunchSpec spec;
  spec.numTeams = 64;
  spec.threadsPerTeam = 128;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = omprt::ExecMode::kSPMD;
  spec.simdlen = 32;
  spec.fault.spec = "off";  // pin injection off regardless of env
  spec.profile.mode = mode;
  bench::WallTimer timer;
  auto stats = dsl::targetTeamsDistributeParallelFor(
      dev, spec, 8192, [](dsl::OmpContext& ctx, uint64_t) {
        dsl::simd(ctx, 64, dsl::convergent([](dsl::OmpContext& c, uint64_t) {
                    c.gpu().work(4);
                  }));
      });
  RunResult out;
  out.stats = checkOk(stats, "observability overhead kernel");
  out.hostMs = timer.elapsedMs();
  return out;
}

void BM_Observability(benchmark::State& state) {
  const simprof::ProfileMode mode = state.range(0) != 0
                                        ? simprof::ProfileMode::kOn
                                        : simprof::ProfileMode::kOff;
  uint64_t cycles = 0;
  for (auto _ : state) cycles = runKernel(mode, false).stats.cycles;
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_Observability)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ::unsetenv("SIMTOMP_PROF");
  ::unsetenv("SIMTOMP_FAULT");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const RunResult off = runKernel(simprof::ProfileMode::kOff, false);
  const RunResult on = runKernel(simprof::ProfileMode::kOn, false);
  const RunResult traced = runKernel(simprof::ProfileMode::kOn, true);
  // toJson covers every scalar and every counter, so a string compare
  // is a full-stats bit-identity check.
  const std::string want = off.stats.toJson();
  if (on.stats.toJson() != want || traced.stats.toJson() != want) {
    std::fprintf(stderr,
                 "FATAL: profiling perturbed KernelStats\n  off: %s\n  on:  "
                 "%s\n  trace: %s\n",
                 want.c_str(), on.stats.toJson().c_str(),
                 traced.stats.toJson().c_str());
    std::abort();
  }
  bench::printTable(
      "Observability overhead (profiling must not perturb cycles)",
      "profiling off", off.stats.cycles,
      {{"profiling on", on.stats.cycles, 1.0, on.hostMs},
       {"profiling on + deep trace", traced.stats.cycles, 1.0, traced.hostMs},
       {"profiling off", off.stats.cycles, 1.0, off.hostMs}});
  (void)bench::writeBenchJson("observability");
  return 0;
}
