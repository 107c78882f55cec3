// tuned_vs_default: what does autotuning buy over the paper's
// hand-picked per-benchmark configurations?
//
// For every tunable app the series baseline is the stock hand-picked
// launch shape (TunableApp::handPicked — the paper's choice), and the
// rows are the winners of an exhaustive and a budgeted hill-climb
// search over the app's launch space. Because the hand-picked
// configuration is itself a member of the search space, the exhaustive
// winner can never be worse than the baseline — the bench aborts if it
// is, making this a standing regression guard on the tuner.
//
// Results mirror into BENCH_tuning.json for machine tracking.
#include <cstring>

#include "apps/tunable.h"
#include "bench_common.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "gpusim/device.h"
#include "simtune/tuner.h"

using namespace simtomp;

namespace {

uint64_t runCandidate(const apps::TunableApp& app,
                      const gpusim::ArchSpec& arch,
                      const gpusim::CostModel& cost,
                      const simtune::TuneCandidate& candidate) {
  gpusim::Device device(arch, cost);
  const auto stats =
      bench::checkOk(app.trial(device, candidate), app.name.c_str());
  return stats.cycles;
}

simtune::TunedShape tuneApp(const apps::TunableApp& app,
                            const gpusim::ArchSpec& arch,
                            const gpusim::CostModel& cost,
                            simtune::TuneStrategy strategy,
                            uint32_t maxTrials) {
  // Fresh in-memory cache per search so both strategies really run.
  simtune::Tuner tuner(std::make_shared<simtune::TuneCache>());
  simtune::TuneRequest request;
  request.strategy = strategy;
  request.maxTrials = maxTrials;
  request.tripCount = app.tripCount;
  const auto outcome = bench::checkOk(
      tuner.tune(app.name, arch, cost, app.axes, app.trial, request),
      app.name.c_str());
  return outcome.shape;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }

  const gpusim::ArchSpec arch = gpusim::ArchSpec::nvidiaA100();
  const gpusim::CostModel cost{};

  for (const apps::TunableApp& app : apps::tunableCorpus(arch, small)) {
    const uint64_t default_cycles =
        runCandidate(app, arch, cost, app.handPicked);

    const simtune::TunedShape exhaustive =
        tuneApp(app, arch, cost, simtune::TuneStrategy::kExhaustive, 0);
    const simtune::TunedShape hill = tuneApp(
        app, arch, cost, simtune::TuneStrategy::kHillClimb, /*maxTrials=*/64);

    if (exhaustive.cycles > default_cycles) {
      std::fprintf(stderr,
                   "FATAL: %s exhaustive winner (%llu cycles) is worse than "
                   "the hand-picked default (%llu)\n",
                   app.name.c_str(),
                   static_cast<unsigned long long>(exhaustive.cycles),
                   static_cast<unsigned long long>(default_cycles));
      std::abort();
    }

    const auto speedup = [default_cycles](uint64_t cycles) {
      return static_cast<double>(default_cycles) /
             static_cast<double>(cycles);
    };
    bench::printTable(
        (app.name + ": tuned vs hand-picked").c_str(), "hand-picked default",
        default_cycles,
        {{"tuned (exhaustive): " + exhaustive.toString(), exhaustive.cycles,
          speedup(exhaustive.cycles)},
         {"tuned (hill-climb): " + hill.toString(), hill.cycles,
          speedup(hill.cycles)}});
  }

  const Status written = bench::writeBenchJson("tuning");
  if (!written.isOk()) {
    std::fprintf(stderr, "FATAL: %s\n", written.toString().c_str());
    return 1;
  }
  return 0;
}
