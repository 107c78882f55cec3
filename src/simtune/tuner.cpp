#include "simtune/tuner.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "gpusim/executor.h"
#include "simprof/metrics.h"

namespace simtomp::simtune {
namespace {

bool isPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Would the runtime accept this candidate verbatim (no clamping, no
/// silent degradation)? Anything else is a duplicate of some valid
/// candidate and only wastes trials.
bool candidateValid(const gpusim::ArchSpec& arch, const TuneCandidate& c) {
  if (c.numTeams == 0) return false;
  if (c.threadsPerTeam == 0 || c.threadsPerTeam % arch.warpSize != 0) {
    return false;
  }
  const uint32_t block_threads =
      c.threadsPerTeam +
      (c.teamsMode == omprt::ExecMode::kGeneric ? arch.warpSize : 0);
  if (block_threads > arch.maxThreadsPerBlock) return false;
  if (!isPowerOfTwo(c.simdlen) || c.simdlen > arch.warpSize ||
      c.simdlen > c.threadsPerTeam) {
    return false;
  }
  // Generic-SIMD needs warp-level barriers; without them the runtime
  // degrades the group to 1 (paper section 5.4.1), so simdlen > 1
  // candidates there duplicate the simdlen == 1 one.
  if (!arch.hasWarpLevelBarrier &&
      c.parallelMode == omprt::ExecMode::kGeneric && c.simdlen > 1) {
    return false;
  }
  return true;
}

constexpr uint64_t kFailedTrial = UINT64_MAX;

}  // namespace

std::string_view tuneStrategyName(TuneStrategy strategy) {
  return strategy == TuneStrategy::kExhaustive ? "exhaustive" : "hillclimb";
}

TuneAxes TuneAxes::defaults(const gpusim::ArchSpec& arch) {
  TuneAxes axes;
  axes.teamsModes = {omprt::ExecMode::kSPMD, omprt::ExecMode::kGeneric};
  axes.parallelModes = {omprt::ExecMode::kSPMD, omprt::ExecMode::kGeneric};
  axes.numTeams = {std::max(arch.numSMs / 2, 1u), arch.numSMs,
                   arch.numSMs * 2};
  std::sort(axes.numTeams.begin(), axes.numTeams.end());
  axes.numTeams.erase(
      std::unique(axes.numTeams.begin(), axes.numTeams.end()),
      axes.numTeams.end());
  for (uint32_t threads = arch.warpSize;
       threads <= std::min(256u, arch.maxThreadsPerBlock);
       threads *= 2) {
    axes.threadsPerTeam.push_back(threads);
  }
  for (uint32_t len = 1; len <= arch.warpSize; len *= 2) {
    axes.simdlens.push_back(len);
  }
  axes.scheduleChunks = {0};
  return axes;
}

std::vector<TuneCandidate> TuneAxes::enumerate(
    const gpusim::ArchSpec& arch) const {
  std::vector<TuneCandidate> out;
  for (const omprt::ExecMode teams : teamsModes) {
    for (const omprt::ExecMode par : parallelModes) {
      for (const uint32_t nt : numTeams) {
        for (const uint32_t tpt : threadsPerTeam) {
          for (const uint32_t len : simdlens) {
            for (const uint64_t chunk : scheduleChunks) {
              const TuneCandidate c{teams, par, nt, tpt, len, chunk};
              if (candidateValid(arch, c)) out.push_back(c);
            }
          }
        }
      }
    }
  }
  return out;
}

void applyShape(const TuneCandidate& shape, omprt::TargetConfig& config) {
  if (config.teamsModeAuto) {
    config.teamsMode = shape.teamsMode;
    config.teamsModeAuto = false;
  }
  if (config.parallelModeAuto) {
    config.parallelMode = shape.parallelMode;
    config.parallelModeAuto = false;
  }
  if (config.numTeams == 0) config.numTeams = shape.numTeams;
  if (config.threadsPerTeam == 0) config.threadsPerTeam = shape.threadsPerTeam;
  if (config.simdlen == 0) config.simdlen = shape.simdlen;
  if (config.scheduleChunk == 0) config.scheduleChunk = shape.scheduleChunk;
}

TuneCandidate shapeOf(const omprt::TargetConfig& config) {
  return {config.teamsMode,      config.parallelMode, config.numTeams,
          config.threadsPerTeam, config.simdlen,      config.scheduleChunk};
}

Tuner::Tuner(std::shared_ptr<TuneCache> cache) : cache_(std::move(cache)) {
  SIMTOMP_CHECK(cache_ != nullptr, "Tuner requires a cache");
}

Tuner::Tuner() : cache_(std::make_shared<TuneCache>(resolveCachePath(""))) {
  // A malformed cache file behaves like a cold cache (tuning rewrites
  // it); only genuinely unreadable content is silently dropped here.
  (void)cache_->load();
}

Result<TuneOutcome> Tuner::tune(const std::string& kernel,
                                const gpusim::ArchSpec& arch,
                                const gpusim::CostModel& cost,
                                const TuneAxes& axes, const TrialFn& trial,
                                const TuneRequest& request) {
  const TuneKey key = makeTuneKey(kernel, arch, cost, request.tripCount);
  if (!request.skipCache) {
    if (const auto hit = cache_->lookup(key)) {
      ++cache_hits_;
      simprof::MetricsRegistry::global().add(
          simprof::metric::kTuneCacheHitsTotal);
      TuneOutcome outcome;
      outcome.key = key;
      outcome.shape = *hit;
      outcome.fromCache = true;
      return outcome;
    }
  }
  ++cache_misses_;
  simprof::MetricsRegistry::global().add(
      simprof::metric::kTuneCacheMissesTotal);
  Result<TuneOutcome> result = search(key, arch, cost, axes, trial, request);
  if (!result.isOk()) return result;
  cache_->insert(key, result.value().shape);
  const Status saved = cache_->save();
  if (!saved.isOk()) return saved;
  return result;
}

Result<TuneOutcome> Tuner::search(const TuneKey& key,
                                  const gpusim::ArchSpec& arch,
                                  const gpusim::CostModel& cost,
                                  const TuneAxes& axes, const TrialFn& trial,
                                  const TuneRequest& request) {
  const std::vector<TuneCandidate> all = axes.enumerate(arch);
  if (all.empty()) {
    return Status::invalidArgument(
        "tuning axes enumerate to an empty launch space");
  }
  const uint32_t workers =
      gpusim::resolveKnob(gpusim::kHostWorkersKnob, request.hostWorkers).value;
  uint32_t budget =
      request.maxTrials == 0 ? UINT32_MAX : request.maxTrials;

  // Memo of evaluated candidates (keyed by their canonical string):
  // hill-climb revisits coordinates, and repeats must be free both for
  // the budget and for determinism.
  std::map<std::string, uint64_t> memo;
  std::string first_error;
  TuneOutcome outcome;
  outcome.key = key;

  // Evaluate a batch of candidates concurrently (indexed slots keep
  // results deterministic for any worker count) and memoize.
  const auto evaluateBatch = [&](const std::vector<TuneCandidate>& batch) {
    std::vector<uint64_t> cycles(batch.size(), kFailedTrial);
    std::vector<std::string> errors(batch.size());
    gpusim::BlockExecutor::global().parallelFor(
        static_cast<uint32_t>(batch.size()), workers, [&](uint32_t i) {
          gpusim::Device scratch(arch, cost);
          const Result<gpusim::KernelStats> r = trial(scratch, batch[i]);
          if (r.isOk()) {
            cycles[i] = r.value().cycles;
          } else {
            errors[i] = r.status().toString();
          }
        });
    trial_launches_ += batch.size();
    simprof::MetricsRegistry::global().add(
        simprof::metric::kTuneTrialsTotal, batch.size());
    outcome.trialsRun += static_cast<uint32_t>(batch.size());
    budget -= static_cast<uint32_t>(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      memo[batch[i].toString()] = cycles[i];
      if (cycles[i] != kFailedTrial) {
        outcome.evaluated.emplace_back(batch[i], cycles[i]);
      } else if (first_error.empty()) {
        first_error = errors[i];
      }
    }
  };

  const auto cyclesOf = [&](const TuneCandidate& c) {
    const auto it = memo.find(c.toString());
    return it == memo.end() ? kFailedTrial : it->second;
  };

  if (request.strategy == TuneStrategy::kExhaustive) {
    std::vector<TuneCandidate> batch = all;
    if (batch.size() > budget) batch.resize(budget);
    evaluateBatch(batch);
    TuneCandidate best = batch.front();
    uint64_t best_cycles = kFailedTrial;
    for (const TuneCandidate& c : batch) {
      const uint64_t cy = cyclesOf(c);
      if (cy < best_cycles) {  // strict: ties keep enumeration order
        best_cycles = cy;
        best = c;
      }
    }
    if (best_cycles == kFailedTrial) {
      return Status::internal("every tuning trial failed: " + first_error);
    }
    outcome.shape = TunedShape{best, best_cycles, outcome.trialsRun};
    return outcome;
  }

  // Hill-climb: multi-start coordinate descent with memoization. The
  // two mode axes change the *structure* of the kernel (which spmv
  // variant runs, whether SIMD workers exist at all), so a numeric axis
  // can be dead in one mode and decisive in another — e.g. simdlen has
  // no effect on a 2-level generic-teams launch, and a descent started
  // there would flat-line at simdlen 1 and never revisit SPMD. One
  // descent therefore runs per (teamsMode, parallelMode) pair, starting
  // at the numeric point nearest the static heuristics (one team per
  // SM, 128 threads, simdlen 1), sweeping one numeric axis at a time
  // until a full pass makes no move or the shared trial budget runs
  // out. Deterministic: fixed start and sweep order, ties keep the
  // current coordinate or the lower axis index.
  const auto nearest = [](const std::vector<uint32_t>& axis, uint32_t want) {
    uint32_t best = axis.front();
    for (const uint32_t v : axis) {
      const uint64_t d = v > want ? v - want : want - v;
      const uint64_t bd = best > want ? best - want : want - best;
      if (d < bd) best = v;
    }
    return best;
  };
  std::vector<TuneCandidate> starts;
  for (const omprt::ExecMode teams : axes.teamsModes) {
    for (const omprt::ExecMode par : axes.parallelModes) {
      TuneCandidate start;
      start.teamsMode = teams;
      start.parallelMode = par;
      start.numTeams = nearest(axes.numTeams, arch.numSMs);
      start.threadsPerTeam = nearest(axes.threadsPerTeam, 128);
      start.simdlen = nearest(axes.simdlens, 1);
      start.scheduleChunk = axes.scheduleChunks.front();
      if (!candidateValid(arch, start)) {
        // Fall back to the first enumerated candidate of this mode
        // pair; a pair with no valid candidate contributes no start.
        const auto it = std::find_if(
            all.begin(), all.end(), [&](const TuneCandidate& c) {
              return c.teamsMode == teams && c.parallelMode == par;
            });
        if (it == all.end()) continue;
        start = *it;
      }
      starts.push_back(start);
    }
  }

  // One mutator per numeric axis, in the sweep order (modes are fixed
  // within a descent — mode coverage comes from the multi-start).
  using Mutator = std::function<std::vector<TuneCandidate>(
      const TuneCandidate&)>;
  const std::vector<Mutator> sweeps = {
      [&](const TuneCandidate& c) {
        std::vector<TuneCandidate> v;
        for (const uint32_t nt : axes.numTeams) {
          TuneCandidate n = c;
          n.numTeams = nt;
          v.push_back(n);
        }
        return v;
      },
      [&](const TuneCandidate& c) {
        std::vector<TuneCandidate> v;
        for (const uint32_t tpt : axes.threadsPerTeam) {
          TuneCandidate n = c;
          n.threadsPerTeam = tpt;
          v.push_back(n);
        }
        return v;
      },
      [&](const TuneCandidate& c) {
        std::vector<TuneCandidate> v;
        for (const uint32_t len : axes.simdlens) {
          TuneCandidate n = c;
          n.simdlen = len;
          v.push_back(n);
        }
        return v;
      },
      [&](const TuneCandidate& c) {
        std::vector<TuneCandidate> v;
        for (const uint64_t chunk : axes.scheduleChunks) {
          TuneCandidate n = c;
          n.scheduleChunk = chunk;
          v.push_back(n);
        }
        return v;
      },
  };

  for (TuneCandidate current : starts) {
    if (budget == 0) break;
    bool moved = true;
    while (moved && budget > 0) {
      moved = false;
      for (const Mutator& sweep : sweeps) {
        if (budget == 0) break;
        std::vector<TuneCandidate> variants;
        for (TuneCandidate& v : sweep(current)) {
          if (candidateValid(arch, v)) variants.push_back(v);
        }
        std::vector<TuneCandidate> fresh;
        for (const TuneCandidate& v : variants) {
          if (memo.find(v.toString()) == memo.end() &&
              fresh.size() < budget) {
            fresh.push_back(v);
          }
        }
        if (!fresh.empty()) evaluateBatch(fresh);
        uint64_t best_cycles = cyclesOf(current);
        TuneCandidate best = current;
        for (const TuneCandidate& v : variants) {
          const uint64_t cy = cyclesOf(v);
          if (cy < best_cycles) {  // strict: ties keep the current point
            best_cycles = cy;
            best = v;
          }
        }
        if (!(best == current)) {
          current = best;
          moved = true;
        }
      }
    }
  }

  // Winner: best memoized candidate in enumeration order (descent can
  // step past better points when the budget cuts a sweep short).
  uint64_t best_cycles = kFailedTrial;
  TuneCandidate best = all.front();
  for (const TuneCandidate& c : all) {
    const uint64_t cy = cyclesOf(c);
    if (cy < best_cycles) {
      best_cycles = cy;
      best = c;
    }
  }
  if (best_cycles == kFailedTrial) {
    return Status::internal("every tuning trial failed: " + first_error);
  }
  outcome.shape = TunedShape{best, best_cycles, outcome.trialsRun};
  return outcome;
}

Result<TuneOutcome> Tuner::tuneTarget(const gpusim::ArchSpec& arch,
                                      const gpusim::CostModel& cost,
                                      const TuneAxes& base,
                                      omprt::TargetConfig& config,
                                      const TargetTrialFn& trial,
                                      const TuneRequest& request) {
  if (config.tuneKey.empty()) {
    return Status::invalidArgument("tuneTarget requires a tune key");
  }
  // Pin every explicit axis so the search space is exactly the auto
  // subspace of this launch.
  TuneAxes axes = base;
  if (!config.teamsModeAuto) axes.teamsModes = {config.teamsMode};
  if (!config.parallelModeAuto) axes.parallelModes = {config.parallelMode};
  if (config.numTeams != 0) axes.numTeams = {config.numTeams};
  if (config.threadsPerTeam != 0) axes.threadsPerTeam = {config.threadsPerTeam};
  if (config.simdlen != 0) axes.simdlens = {config.simdlen};
  axes.scheduleChunks = {config.scheduleChunk};

  // A trial measures a shape, so it runs fault-free: the launch's fault
  // plan belongs to the launch that follows the search.
  omprt::TargetConfig fault_free = config;
  fault_free.fault.spec = "off";
  const TrialFn shaped = [&fault_free, &trial](
                             gpusim::Device& scratch,
                             const TuneCandidate& candidate) {
    omprt::TargetConfig tc = fault_free;
    applyShape(candidate, tc);
    return trial(scratch, tc);
  };

  TuneRequest keyed = request;
  if (keyed.tripCount == 0) keyed.tripCount = config.tripCount;
  Result<TuneOutcome> result =
      tune(config.tuneKey, arch, cost, axes, shaped, keyed);
  if (!result.isOk()) return result;
  applyShape(result.value().shape.candidate, config);
  return result;
}

bool Tuner::resolveConfig(const gpusim::ArchSpec& arch,
                          const gpusim::CostModel& cost,
                          omprt::TargetConfig& config) {
  if (config.tuneKey.empty() || !omprt::hasAutoLaunchFields(config)) {
    return false;
  }
  const TuneKey key =
      makeTuneKey(config.tuneKey, arch, cost, config.tripCount);
  const auto hit = cache_->lookup(key);
  if (!hit) {
    ++cache_misses_;
    simprof::MetricsRegistry::global().add(
        simprof::metric::kTuneCacheMissesTotal);
    return false;
  }
  ++cache_hits_;
  simprof::MetricsRegistry::global().add(
      simprof::metric::kTuneCacheHitsTotal);
  applyShape(hit->candidate, config);
  return true;
}

}  // namespace simtomp::simtune
