// Multi-device host runtime: the `device(n)` clause machinery.
//
// OpenMP offloading addresses devices by number (omp_get_num_devices,
// `#pragma omp target device(n)`); a DeviceManager owns a set of
// simulated devices — possibly with different architectures, as in a
// mixed NVIDIA/AMD node — each with its own data environment and task
// queue.
#pragma once

#include <memory>
#include <shared_mutex>
#include <vector>

#include "gpusim/device.h"
#include "hostrt/async.h"
#include "hostrt/data_env.h"
#include "omprt/target.h"
#include "simfault/resilience.h"
#include "simtune/tuner.h"
#include "support/status.h"

namespace simtomp::hostrt {

class DeviceManager {
 public:
  /// One simulated device per ArchSpec.
  explicit DeviceManager(std::vector<gpusim::ArchSpec> specs,
                         gpusim::CostModel cost = {},
                         TransferModel transfer_model = {});

  DeviceManager(const DeviceManager&) = delete;
  DeviceManager& operator=(const DeviceManager&) = delete;

  /// omp_get_num_devices()
  [[nodiscard]] size_t numDevices() const { return devices_.size(); }

  [[nodiscard]] gpusim::Device& device(size_t n) { return *devices_.at(n); }
  [[nodiscard]] DataEnvironment& dataEnv(size_t n) { return *envs_.at(n); }
  [[nodiscard]] TargetTaskQueue& taskQueue(size_t n) { return *queues_.at(n); }

  // The per-launch knobs (hostWorkers, check, fault, watchdog,
  // profile, fastPath) come from each launch's config and the
  // environment (gpusim/knobs.h); the manager adds none of its own.
  // The two setters below may be called while launches run on other
  // threads, so their fields are guarded by a shared_mutex: launches
  // read them under a shared lock, setters write under an exclusive
  // one, and the getters return copies taken under the shared lock.
  // All devices share the process-wide BlockExecutor pool, so
  // concurrent `device(n)` launches interleave their blocks over the
  // same host workers instead of serializing.

  /// Default autotuner consulted by launches that carry a tune key and
  /// auto launch-shape fields. `mode` kAuto defers to the SIMTOMP_TUNE
  /// knob on every launch; an explicit mode pins tuning on or off. When
  /// no tuner was set but the resolved mode enables tuning, a default
  /// tuner (cache path from SIMTOMP_TUNE_CACHE) is created lazily on
  /// first use, so `SIMTOMP_TUNE=1` works with zero code changes.
  void setDefaultTuner(std::shared_ptr<simtune::Tuner> tuner,
                       simtune::TuneMode mode = simtune::TuneMode::kAuto) {
    std::unique_lock lock(defaults_mutex_);
    default_tuner_ = std::move(tuner);
    default_tune_mode_ = mode;
  }

  /// Resilience policy driving the synchronous launch path. `mode` kAuto
  /// defers to the SIMTOMP_RESILIENCE knob on every launch (default:
  /// on). When the resolved mode is on, launchOn runs the degradation
  /// chain — retry while simfault::decideRetry allows (transient
  /// UNAVAILABLE faults, modeled kResilienceBackoffMs backoff), SIMD ->
  /// generic mode fallback, host-serial reference — and publishes a
  /// ResilienceReport. Deferred launches (launchOnAsync) never run
  /// the chain: a retry would reorder against queued work.
  void setDefaultResilience(
      simfault::ResiliencePolicy policy,
      simfault::ResilienceMode mode = simfault::ResilienceMode::kAuto) {
    std::unique_lock lock(defaults_mutex_);
    default_resilience_ = policy;
    resilience_mode_ = mode;
  }
  [[nodiscard]] simfault::ResiliencePolicy defaultResiliencePolicy() const {
    std::shared_lock lock(defaults_mutex_);
    return default_resilience_;
  }
  [[nodiscard]] simfault::ResilienceMode defaultResilienceMode() const {
    std::shared_lock lock(defaults_mutex_);
    return resilience_mode_;
  }

  /// Health of device n per the recovery state machine: healthy until a
  /// launch attempt fails (faulted), reset by resetDevice or the chain,
  /// healthy again after the next successful launch. Whether a device
  /// takes traffic is the launch service's circuit breaker to decide
  /// (simserve::LaunchService::deviceServing), not a health state.
  [[nodiscard]] simfault::DeviceHealth deviceHealth(size_t n) const {
    return health_.at(n);
  }

  /// What the last resilient launch on device n did, published like
  /// Device::lastCheckReport(): also (especially) when the launch
  /// failed, and surviving any device resets the chain performed.
  [[nodiscard]] const simfault::ResilienceReport& lastResilienceReport(
      size_t n) const {
    return last_resilience_.at(n);
  }

  /// Reset device n (health: kReset). Keeps the device's
  /// lastCheckReport and the manager's lastResilienceReport.
  void resetDevice(size_t n) {
    devices_.at(n)->reset();
    health_.at(n) = simfault::DeviceHealth::kReset;
  }

  /// The configuration launchOn(n, config, ...) would actually launch
  /// with: tuner cache consulted (never trials), the remaining auto
  /// shape fields resolved heuristically and every knob resolved.
  /// Exposed so tests and schedulers can observe the resolution
  /// without launching anything.
  [[nodiscard]] omprt::TargetConfig effectiveConfig(size_t n,
                                                    omprt::TargetConfig config);

  /// `#pragma omp target device(n)` — synchronous launch.
  Result<gpusim::KernelStats> launchOn(size_t n,
                                       const omprt::TargetConfig& config,
                                       const omprt::TargetRegionFn& region);

  /// `#pragma omp target device(n) nowait` — deferred launch.
  std::future<Result<gpusim::KernelStats>> launchOnAsync(
      size_t n, omprt::TargetConfig config, omprt::TargetRegionFn region);

  /// Wait for all deferred work on every device (`taskwait`).
  void drainAll();

 private:
  /// Tuner-aware resolution of auto launch-shape fields. Cache-only
  /// unless `device` is non-null and the effective mode is kTune, in
  /// which case a cache miss runs a trial search on that device (so
  /// only the synchronous launch path passes a device). Returns a
  /// non-ok status only when a trial search itself failed.
  Status resolveTuning(size_t n, omprt::TargetConfig& config,
                       gpusim::Device* device,
                       const omprt::TargetRegionFn* region);
  /// The graceful-degradation chain behind launchOn. Every step is
  /// deterministic: backoff delays are modeled (recorded, never slept),
  /// shape strings exclude hostWorkers, and attempts are recorded in
  /// order — so reports are byte-identical for any worker count.
  Result<gpusim::KernelStats> launchResilient(
      size_t n, omprt::TargetConfig config,
      const omprt::TargetRegionFn& region);

  std::vector<std::unique_ptr<gpusim::Device>> devices_;
  std::vector<std::unique_ptr<DataEnvironment>> envs_;
  std::vector<std::unique_ptr<TargetTaskQueue>> queues_;
  /// Guards every default_* field (and resilience_mode_) below: shared
  /// on the launch paths, exclusive in the setters.
  mutable std::shared_mutex defaults_mutex_;
  std::shared_ptr<simtune::Tuner> default_tuner_;  ///< may be lazily created
  simtune::TuneMode default_tune_mode_ = simtune::TuneMode::kAuto;
  simfault::ResiliencePolicy default_resilience_{};
  simfault::ResilienceMode resilience_mode_ = simfault::ResilienceMode::kAuto;
  std::vector<simfault::DeviceHealth> health_;
  std::vector<simfault::ResilienceReport> last_resilience_;
};

}  // namespace simtomp::hostrt
