// simtune: cost-model-driven autotuner for the launch space.
//
// The paper leaves simdlen (and the rest of the launch shape) to the
// programmer; its evaluation hand-picks per-benchmark configurations.
// simtune automates that choice for the simulator: given a kernel it
// can re-run, it searches the launch space — SIMD group size, teams
// mode, parallel mode, team count and width, dynamic-schedule chunk —
// by running trial launches and ranking candidates on *modeled cycles*
// (gpusim::KernelStats), the same metric the paper's figures report.
//
// Determinism contract (DESIGN.md §3.3): trial launches land in
// per-candidate slots and the winner is the minimum-cycle candidate
// with ties broken by enumeration order, so the chosen configuration —
// and the serialized cache — is bit-identical for any host worker
// count. Trials fan out over gpusim::BlockExecutor::global(), each in
// its own scratch Device, so independent candidates evaluate on
// separate host workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gpusim/device.h"
#include "omprt/target.h"
#include "simtune/cache.h"
#include "support/status.h"

namespace simtomp::simtune {

/// How a launch wants tuning; resolved through gpusim::kTuneKnob.
using TuneMode = gpusim::TuneMode;

/// The search space, one vector per axis. enumerate() takes the cross
/// product and drops combinations the runtime would reject or silently
/// degrade (threadsPerTeam not a warp multiple or over the block limit,
/// simdlen not a power of two / over warpSize / over threadsPerTeam,
/// generic-SIMD on an architecture without warp-level barriers).
struct TuneAxes {
  std::vector<omprt::ExecMode> teamsModes;
  std::vector<omprt::ExecMode> parallelModes;
  std::vector<uint32_t> numTeams;
  std::vector<uint32_t> threadsPerTeam;
  std::vector<uint32_t> simdlens;
  std::vector<uint64_t> scheduleChunks;

  /// The default launch space for an architecture: both teams and
  /// parallel modes, team counts around the SM count, warp-multiple
  /// team widths, every power-of-two simdlen in [1, warpSize], and
  /// chunk 0 (runtime default).
  static TuneAxes defaults(const gpusim::ArchSpec& arch);

  /// Cross product in deterministic axis order (teamsMode outermost,
  /// scheduleChunk innermost), invalid combinations dropped.
  [[nodiscard]] std::vector<TuneCandidate> enumerate(
      const gpusim::ArchSpec& arch) const;
};

/// Evaluate one candidate: run the kernel under `candidate` on the
/// provided scratch device and return its stats. Called concurrently
/// from pool workers — it must create any workload state inside the
/// scratch device and must not touch shared mutable state.
using TrialFn = std::function<Result<gpusim::KernelStats>(
    gpusim::Device& scratch, const TuneCandidate& candidate)>;

enum class TuneStrategy : uint8_t {
  kExhaustive,  ///< rank every enumerated candidate
  kHillClimb,   ///< budgeted multi-start coordinate descent (one start
                ///< per mode pair), memoized
};

[[nodiscard]] std::string_view tuneStrategyName(TuneStrategy strategy);

struct TuneRequest {
  TuneStrategy strategy = TuneStrategy::kExhaustive;
  /// Cap on trial launches (0 = unbounded). Exhaustive truncates the
  /// candidate list; hill-climb stops descending when the budget is
  /// spent and returns the best candidate seen.
  uint32_t maxTrials = 0;
  /// Host workers for trial fan-out (0 = auto via the
  /// SIMTOMP_HOST_WORKERS knob). Affects wall-clock only.
  uint32_t hostWorkers = 0;
  /// Trip count of the workload being tuned (cache bucket).
  uint64_t tripCount = 0;
  /// Re-tune even when the cache already has an entry.
  bool skipCache = false;
};

/// The search a launch runs on a cache miss when tuning is on
/// (SIMTOMP_TUNE=tune): hill-climb, capped at 64 trial launches.
/// DeviceManager's synchronous launches and `simtomp run` both use it.
inline TuneRequest launchTuneRequest() {
  TuneRequest request;
  request.strategy = TuneStrategy::kHillClimb;
  request.maxTrials = 64;
  return request;
}

struct TuneOutcome {
  TuneKey key;
  TunedShape shape;
  bool fromCache = false;
  uint32_t trialsRun = 0;
  /// Every evaluated (candidate, modeled cycles) in enumeration order;
  /// failed trials are omitted. Empty on a cache hit.
  std::vector<std::pair<TuneCandidate, uint64_t>> evaluated;
};

/// Copy a launch shape into the auto fields of a TargetConfig. Explicit
/// (non-auto) fields are left alone, so a user who pins simdlen keeps
/// it even when the cached shape disagrees. Trial launches apply their
/// candidate the same way, so a trial runs exactly the configuration a
/// later cache application produces.
void applyShape(const TuneCandidate& shape, omprt::TargetConfig& config);

/// The autotuner. Thread-safe: the cache is internally locked and the
/// per-tune search state is local, so concurrent tune() calls (e.g.
/// from DeviceManager device threads) are fine.
class Tuner {
 public:
  /// A tuner over an explicit cache (shared so DeviceManager, CLI and
  /// tests can inspect the same instance).
  explicit Tuner(std::shared_ptr<TuneCache> cache);
  /// Convenience: a tuner whose cache path comes from resolveCachePath
  /// (SIMTOMP_TUNE_CACHE when set, else in-memory). Loads the file.
  Tuner();

  [[nodiscard]] TuneCache& cache() { return *cache_; }
  [[nodiscard]] const TuneCache& cache() const { return *cache_; }

  /// Search the launch space for `kernel`. Cache hit (unless
  /// request.skipCache) short-circuits with zero trial launches;
  /// otherwise trials fan out over BlockExecutor::global(), the winner
  /// is inserted into the cache and the cache file is rewritten.
  Result<TuneOutcome> tune(const std::string& kernel,
                           const gpusim::ArchSpec& arch,
                           const gpusim::CostModel& cost,
                           const TuneAxes& axes, const TrialFn& trial,
                           const TuneRequest& request);

  /// Tune a target region in place: candidates are applied to the auto
  /// fields of `config` and launched on `device` itself, *serially*
  /// (launches on one Device must not overlap). The region must
  /// tolerate re-execution — trial launches really run it, so outputs
  /// are overwritten and non-idempotent updates (atomic accumulation)
  /// repeat. On success `config`'s auto fields hold the winner.
  Result<TuneOutcome> tuneTarget(gpusim::Device& device,
                                 omprt::TargetConfig& config,
                                 const omprt::TargetRegionFn& region,
                                 const TuneRequest& request);

  /// Cache-only resolution for the launch path: when `config` has a
  /// tune key, auto fields and a cache entry, apply the entry and
  /// return true. Never runs trials.
  bool resolveConfig(const gpusim::ArchSpec& arch,
                     const gpusim::CostModel& cost,
                     omprt::TargetConfig& config);

  // Counters for `simtomp info tune` and the warm-cache tests.
  [[nodiscard]] uint64_t trialLaunches() const { return trial_launches_; }
  [[nodiscard]] uint64_t cacheHits() const { return cache_hits_; }
  [[nodiscard]] uint64_t cacheMisses() const { return cache_misses_; }

 private:
  Result<TuneOutcome> search(const TuneKey& key,
                             const gpusim::ArchSpec& arch,
                             const gpusim::CostModel& cost,
                             const TuneAxes& axes, const TrialFn& trial,
                             const TuneRequest& request);

  std::shared_ptr<TuneCache> cache_;
  std::atomic<uint64_t> trial_launches_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace simtomp::simtune
