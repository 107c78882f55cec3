// Tunable apps: the one table of the corpus kernels, for the simtune
// autotuner and for `simtomp run` and `simtomp tune`.
//
// Each TunableApp packages a stable kernel key (the tuning-cache key
// and the `simtomp run` name), a trip-count hint for the cache bucket,
// per-app axes (constrained to the modes the app actually implements),
// the app's stock hand-picked configuration (the paper's per-benchmark
// choices — the bar a tuned config must meet) and `run`, which maps a
// TuneCandidate and the launch's host knobs onto the app's options.
// Its `trial` fails unless the output verifies against the host
// reference, so a configuration that computes wrong answers can never
// win a search.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "apps/common.h"
#include "gpusim/arch.h"
#include "gpusim/knobs.h"
#include "simtune/tuner.h"

namespace simtomp::apps {

/// Launch an app under a candidate shape and host knobs; called
/// concurrently, each call on its own device.
using AppRunFn = std::function<Result<AppRunResult>(
    gpusim::Device& device, const simtune::TuneCandidate& candidate,
    const gpusim::LaunchOptions& knobs)>;

struct TunableApp {
  std::string name;       ///< kernel key in the tuning cache
  uint64_t tripCount = 0; ///< outer (distribute) trip count
  simtune::TuneAxes axes;
  /// The app's stock configuration, expressed as a candidate. Always a
  /// member of `axes`, so an exhaustive search can only do better or
  /// equal (modeled cycles) than the hand-picked default.
  simtune::TuneCandidate handPicked;
  AppRunFn run;
  simtune::TrialFn trial;  ///< verifiedStats of `run` with default knobs
};

/// A run's stats when its output verified, else the error.
Result<gpusim::KernelStats> verifiedStats(Result<AppRunResult> run,
                                          const std::string& app);

/// Every tunable app (the cg solver is excluded: its iteration count
/// makes trial sweeps impractical). `small` shrinks both the workloads
/// and the axes so a full exhaustive sweep stays cheap (CI smoke, unit
/// tests).
std::vector<TunableApp> tunableCorpus(const gpusim::ArchSpec& arch,
                                      bool small);

/// Corpus entry by name; an unknown name is an error that lists the
/// corpus names.
Result<TunableApp> tunableByName(const std::string& name,
                                 const gpusim::ArchSpec& arch, bool small);

}  // namespace simtomp::apps
