// Ablation (paper section 5.5): dispatching outlined regions through
// the compile-time if-cascade of known functions versus the indirect
// function-pointer fallback used for regions from other translation
// units. The dispatch happens per loop iteration, so indirect calls
// tax tight simd loops hardest.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "dsl/dsl.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::Row;

uint64_t runDispatch(bool registered) {
  omprt::Dispatcher::global().clear();
  gpusim::Device dev;
  dsl::LaunchSpec spec;
  spec.numTeams = 64;
  spec.threadsPerTeam = 128;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = omprt::ExecMode::kSPMD;
  spec.simdlen = 32;
  spec.registerInCascade = registered;
  auto stats = dsl::targetTeamsDistributeParallelFor(
      dev, spec, 4096, [&](dsl::OmpContext& ctx, uint64_t) {
        dsl::simd(ctx, 64, dsl::convergent([](dsl::OmpContext& c, uint64_t) {
                    c.gpu().work(4);
                  }),
                  registered);
      });
  return checkOk(stats, "dispatch kernel").cycles;
}

void BM_Dispatch(benchmark::State& state) {
  const bool registered = state.range(0) != 0;
  uint64_t cycles = 0;
  for (auto _ : state) cycles = runDispatch(registered);
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_Dispatch)
    ->Arg(1)
    ->Arg(0)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const uint64_t cascade = runDispatch(true);
  const uint64_t indirect = runDispatch(false);
  bench::printTable(
      "Ablation: outlined-function dispatch (paper 5.5)",
      "if-cascade (known regions)", cascade,
      {{"indirect call (foreign TU)", indirect,
        static_cast<double>(cascade) / static_cast<double>(indirect)}});
  (void)bench::writeBenchJson("abl_dispatch");
  return 0;
}
