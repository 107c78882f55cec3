#include "hostrt/device_manager.h"

#include <algorithm>

#include "simprof/metrics.h"

namespace simtomp::hostrt {

namespace {

/// Deterministic launch-shape text for AttemptRecords. Deliberately
/// excludes hostWorkers (and anything wall-clock): the same fault plan
/// must produce byte-identical reports for any SIMTOMP_HOST_WORKERS.
std::string shapeString(const omprt::TargetConfig& config) {
  std::string out = std::to_string(config.numTeams) + "x" +
                    std::to_string(config.threadsPerTeam);
  out += " teams=";
  out += omprt::execModeName(config.teamsMode);
  out += " parallel=";
  out += omprt::execModeName(config.parallelMode);
  out += " simdlen=" + std::to_string(config.simdlen);
  return out;
}

}  // namespace

DeviceManager::DeviceManager(std::vector<gpusim::ArchSpec> specs,
                             gpusim::CostModel cost,
                             TransferModel transfer_model) {
  SIMTOMP_CHECK(!specs.empty(), "DeviceManager needs at least one device");
  devices_.reserve(specs.size());
  for (auto& spec : specs) {
    devices_.push_back(
        std::make_unique<gpusim::Device>(std::move(spec), cost));
  }
  envs_.reserve(devices_.size());
  queues_.reserve(devices_.size());
  for (auto& dev : devices_) {
    envs_.push_back(std::make_unique<DataEnvironment>(*dev, transfer_model));
    queues_.push_back(std::make_unique<TargetTaskQueue>(*dev));
  }
  health_.assign(devices_.size(), simfault::DeviceHealth::kHealthy);
  last_resilience_.resize(devices_.size());
}

Status DeviceManager::resolveTuning(size_t n, omprt::TargetConfig& config,
                                    gpusim::Device* device,
                                    const omprt::TargetRegionFn* region) {
  if (config.tuneKey.empty() || !omprt::hasAutoLaunchFields(config)) {
    return Status::ok();
  }
  simtune::TuneMode requested_mode;
  std::shared_ptr<simtune::Tuner> tuner;
  {
    std::shared_lock lock(defaults_mutex_);
    requested_mode = default_tune_mode_;
    tuner = default_tuner_;
  }
  const simtune::TuneMode mode =
      gpusim::resolveKnob(gpusim::kTuneKnob, requested_mode).value;
  if (mode == simtune::TuneMode::kOff) return Status::ok();
  if (tuner == nullptr) {
    // Lazy default-tuner creation: re-check under the exclusive lock so
    // concurrent launches agree on one instance.
    std::unique_lock lock(defaults_mutex_);
    if (default_tuner_ == nullptr) {
      default_tuner_ = std::make_shared<simtune::Tuner>();
    }
    tuner = default_tuner_;
  }
  gpusim::Device& dev = *devices_[n];
  if (tuner->resolveConfig(dev.arch(), dev.costModel(), config)) {
    if (device != nullptr && device->traceRecorder() != nullptr) {
      device->traceRecorder()->recordInstant(
          "tune cache hit: " + config.tuneKey, 0);
    }
    return Status::ok();
  }
  // Cache miss. kCache falls back to the heuristics in launchTarget;
  // kTune runs a trial search when the caller can run trials (the
  // synchronous launch path — deferred launches never tune, since the
  // trial launches would reorder against queued work).
  if (mode == simtune::TuneMode::kTune && device != nullptr &&
      region != nullptr) {
    // Trials re-run the region on this device, which forbids overlap: a
    // serial fan-out. Non-idempotent updates repeat per trial.
    simtune::TuneRequest serial = simtune::launchTuneRequest();
    serial.hostWorkers = 1;
    const Result<simtune::TuneOutcome> tuned = tuner->tuneTarget(
        dev.arch(), dev.costModel(), simtune::TuneAxes::defaults(dev.arch()),
        config,
        [device, region](gpusim::Device&, const omprt::TargetConfig& shape) {
          return omprt::launchTarget(*device, shape, *region);
        },
        serial);
    if (!tuned.isOk()) return tuned.status();
  }
  return Status::ok();
}

omprt::TargetConfig DeviceManager::effectiveConfig(
    size_t n, omprt::TargetConfig config) {
  SIMTOMP_CHECK(n < devices_.size(), "device number out of range");
  (void)resolveTuning(n, config, /*device=*/nullptr, /*region=*/nullptr);
  omprt::resolveAutoConfig(devices_[n]->arch(), config);
  static_cast<gpusim::LaunchOptions&>(config) =
      gpusim::resolveLaunchOptions(config);
  return config;
}

Result<gpusim::KernelStats> DeviceManager::launchOn(
    size_t n, const omprt::TargetConfig& config,
    const omprt::TargetRegionFn& region) {
  if (n >= devices_.size()) {
    return Status::invalidArgument("device number out of range");
  }
  omprt::TargetConfig effective = config;
  const Status tuned = resolveTuning(n, effective, devices_[n].get(), &region);
  if (!tuned.isOk()) return tuned;
  const gpusim::Resolved<simfault::ResilienceMode> resilience =
      gpusim::resolveKnob(gpusim::kResilienceKnob, defaultResilienceMode());
  if (resilience.value == simfault::ResilienceMode::kOff) {
    return omprt::launchTarget(*devices_[n], effective, region);
  }
  return launchResilient(n, std::move(effective), region);
}

Result<gpusim::KernelStats> DeviceManager::launchResilient(
    size_t n, omprt::TargetConfig config,
    const omprt::TargetRegionFn& region) {
  gpusim::Device& dev = *devices_[n];
  // Pin the auto fields now so every AttemptRecord names the concrete
  // shape that ran (launchTarget would resolve them identically).
  omprt::resolveAutoConfig(dev.arch(), config);

  simfault::ResilienceReport report;
  std::string trail(simfault::deviceHealthName(health_[n]));
  const auto noteHealth = [&](simfault::DeviceHealth next) {
    if (next == health_[n]) return;
    health_[n] = next;
    trail += '>';
    trail += simfault::deviceHealthName(next);
  };
  const auto resetForRecovery = [&] {
    dev.reset();
    ++report.resets;
    noteHealth(simfault::DeviceHealth::kReset);
  };

  Result<gpusim::KernelStats> result = Status::internal("no attempt ran");
  const auto attempt = [&](simfault::RecoveryStage stage,
                           omprt::TargetConfig shape, uint32_t backoff_ms) {
    // The fault plan's count= and after= count this launch's attempts.
    shape.fault.attempt = static_cast<uint32_t>(report.attempts.size());
    simfault::AttemptRecord record;
    record.stage = stage;
    record.shape = shapeString(shape);
    record.backoffMs = backoff_ms;
    try {
      result = omprt::launchTarget(dev, shape, region);
    } catch (const StatusException& e) {
      result = e.status();
    } catch (const std::exception& e) {
      result = Status::internal(std::string("target region threw: ") +
                                e.what());
    } catch (...) {
      result = Status::internal("target region threw a non-standard exception");
    }
    record.code = result.isOk() ? StatusCode::kOk : result.status().code();
    if (!result.isOk()) record.message = result.status().message();
    report.attempts.push_back(std::move(record));
    noteHealth(result.isOk() ? simfault::DeviceHealth::kHealthy
                             : simfault::DeviceHealth::kFaulted);
    return result.isOk();
  };

  const simfault::ResiliencePolicy policy = defaultResiliencePolicy();
  auto& metrics = simprof::MetricsRegistry::global();
  // Recovery-rung instants on the device trace (when one is attached),
  // timestamped by attempt ordinal: recovery happens between launches,
  // off the modeled timeline.
  const auto noteRung = [&](const char* what) {
    if (dev.traceRecorder() != nullptr) {
      dev.traceRecorder()->recordInstant(
          what, static_cast<uint64_t>(report.attempts.size()));
    }
  };
  bool ok = attempt(simfault::RecoveryStage::kInitial, config, 0);

  // Rung 1: same shape again, after a reset and capped exponential
  // backoff, for as long as the shared retry rule allows (transient
  // faults only, within policy.maxRetries).
  for (uint32_t retry = 1; !ok; ++retry) {
    const simfault::RetryDecision decision =
        simfault::decideRetry(result.status().code(), retry,
                              policy.maxRetries, simfault::kResilienceBackoffMs);
    if (decision.verdict != simfault::RetryVerdict::kRetry) break;
    resetForRecovery();
    metrics.add(simprof::metric::kResilienceRetriesTotal);
    noteRung("resilience retry");
    ok = attempt(simfault::RecoveryStage::kRetry, config,
                 static_cast<uint32_t>(decision.backoff));
  }

  // Rung 2: give up SIMD and run the parallel regions in generic mode,
  // the paper's always-correct execution scheme. Only meaningful when
  // it changes the shape.
  if (!ok && policy.modeFallback && config.simdlen > 1) {
    omprt::TargetConfig fallback = config;
    fallback.simdlen = 1;
    fallback.parallelMode = omprt::ExecMode::kGeneric;
    resetForRecovery();
    metrics.add(simprof::metric::kResilienceModeFallbacksTotal);
    noteRung("resilience mode fallback");
    ok = attempt(simfault::RecoveryStage::kModeFallback, fallback, 0);
  }

  // Rung 3: host-serial reference execution — one team, one warp, one
  // host worker, faults and checking stripped. The shape every kernel
  // in this repo is verified against, so it succeeds unless the region
  // itself is broken.
  if (!ok && policy.hostSerial) {
    omprt::TargetConfig serial = config;
    serial.numTeams = 1;
    serial.threadsPerTeam = dev.arch().warpSize;
    serial.teamsMode = omprt::ExecMode::kSPMD;
    serial.parallelMode = omprt::ExecMode::kSPMD;
    serial.simdlen = 1;
    serial.hostWorkers = 1;
    serial.fault.spec = "off";  // empty would re-consult SIMTOMP_FAULT
    serial.check.mode = simcheck::CheckMode::kOff;
    resetForRecovery();
    metrics.add(simprof::metric::kResilienceHostSerialTotal);
    noteRung("resilience host-serial");
    ok = attempt(simfault::RecoveryStage::kHostSerial, serial, 0);
  }

  report.recovered = ok && report.attempts.size() > 1;
  report.finalCode = ok ? StatusCode::kOk : result.status().code();
  if (!ok) report.finalMessage = result.status().message();
  report.healthTrail = std::move(trail);
  last_resilience_[n] = std::move(report);
  return result;
}

std::future<Result<gpusim::KernelStats>> DeviceManager::launchOnAsync(
    size_t n, omprt::TargetConfig config, omprt::TargetRegionFn region) {
  SIMTOMP_CHECK(n < devices_.size(), "device number out of range");
  // Deferred launches resolve from the tuning cache only (see
  // resolveTuning); a miss falls back to launchTarget's heuristics.
  (void)resolveTuning(n, config, /*device=*/nullptr, /*region=*/nullptr);
  return queues_[n]->enqueue(config, std::move(region));
}

void DeviceManager::drainAll() {
  for (auto& queue : queues_) queue->drain();
}

}  // namespace simtomp::hostrt
