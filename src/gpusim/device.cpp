#include "gpusim/device.h"

#include <algorithm>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "gpusim/executor.h"
#include "simcheck/checker.h"
#include "simprof/metrics.h"
#include "support/log.h"

namespace simtomp::gpusim {

namespace {

/// Per-block result slot. Blocks deposit into their own slot (also
/// under parallel execution); the launch merges slots in block order so
/// aggregate stats never depend on host scheduling.
struct BlockOutcome {
  Status status = Status::ok();
  std::exception_ptr exception;
  uint64_t blockTime = 0;
  uint64_t busySum = 0;
  uint64_t maxThreadTime = 0;
  uint64_t peakSharedBytes = 0;
  uint64_t fiberSwitches = 0;
  uint64_t fibersSpawned = 0;
  CounterSet counters;
  /// Owned here (not by the engine) so findings and the global-memory
  /// footprint survive into the block-order merge — the engine itself
  /// dies with runBlock.
  std::unique_ptr<simcheck::BlockChecker> checker;
  /// Owned like the checker: the construct trees survive into the
  /// block-order merge.
  std::unique_ptr<simprof::BlockProfiler> profiler;
};

}  // namespace

Device::Device(ArchSpec arch, CostModel cost, size_t global_mem_bytes)
    : arch_(std::move(arch)), cost_(cost), memory_(global_mem_bytes) {
  const Status valid = arch_.validate();
  SIMTOMP_CHECK(valid.isOk(), "invalid ArchSpec: " + valid.toString());
}

Result<KernelStats> Device::launch(const LaunchConfig& config,
                                   const Kernel& kernel,
                                   const BlockSetupHook& setup) {
  if (config.numBlocks == 0) {
    return Status::invalidArgument("launch requires at least one block");
  }
  if (config.threadsPerBlock == 0 ||
      config.threadsPerBlock > arch_.maxThreadsPerBlock) {
    return Status::invalidArgument(
        "threadsPerBlock out of range for this architecture");
  }

  auto& metrics = simprof::MetricsRegistry::global();
  metrics.add(simprof::metric::kLaunchesTotal);
  const auto fail = [&metrics](Status status) {
    metrics.add(simprof::metric::kLaunchFailuresTotal);
    return status;
  };

  // Arm injected faults before anything else observable happens. A
  // pre-launch device loss must leave the previous launch's check
  // report published (nothing ran), so it returns before the check
  // state below is touched.
  const LaunchOptions knobs = resolveLaunchOptions(config);
  Result<simfault::LaunchArm> armed =
      simfault::armLaunch(knobs.fault, config.numBlocks);
  if (!armed.isOk()) return fail(armed.status());
  const simfault::LaunchArm arm = std::move(armed).value();
  if (arm.lostPre) {
    return fail(Status::unavailable(
        "[simfault] injected device loss before launch; nothing ran"));
  }

  const bool checking = knobs.check.mode != simcheck::CheckMode::kOff;
  last_check_mode_ = knobs.check.mode;
  const bool profiling = knobs.profile.mode == simprof::ProfileMode::kOn;
  last_profile_mode_ = knobs.profile.mode;

  // Every block gets its checker and profiler before any block runs, so
  // the merges below find one per block whatever happened in the run.
  std::vector<BlockOutcome> outcomes(config.numBlocks);
  for (uint32_t b = 0; b < config.numBlocks; ++b) {
    if (checking) {
      outcomes[b].checker = std::make_unique<simcheck::BlockChecker>(
          knobs.check, b, config.threadsPerBlock, arch_.warpSize);
    }
    if (profiling) {
      outcomes[b].profiler = std::make_unique<simprof::BlockProfiler>(
          b, config.threadsPerBlock, kNumCounters,
          /*capture_spans=*/trace_ != nullptr);
    }
  }
  const auto runBlock = [&](uint32_t b) {
    BlockOutcome& out = outcomes[b];
    try {
      BlockEngine engine(arch_, cost_, memory_, b, config.numBlocks,
                         config.threadsPerBlock);
      if (checking) engine.setChecker(out.checker.get());
      if (profiling) engine.setProfiler(out.profiler.get());
      engine.setWatchdog(knobs.watchdogSteps == simfault::kWatchdogOff
                             ? 0
                             : knobs.watchdogSteps);
      engine.setFault(arm.forBlock(b));
      if (setup) setup(engine);
      out.status = engine.run(kernel);
      if (out.status.isOk()) {
        out.blockTime = engine.blockTime();
        out.busySum = engine.busySum();
        out.maxThreadTime = engine.maxThreadTime();
        out.peakSharedBytes = engine.sharedMemory().peakUsed();
        out.fiberSwitches = engine.scheduler().stepCount();
        out.fibersSpawned = engine.scheduler().fiberCount();
        out.counters = engine.counters();
      }
    } catch (const StatusException& e) {
      // Recoverable device-side condition (e.g. injected sharing-space
      // exhaustion) thrown across the fiber boundary: land it in the
      // outcome slot as a plain Status, like an engine failure.
      out.status = e.status();
    } catch (...) {
      out.exception = std::current_exception();
    }
    if (checking) out.checker->finishFootprint();
  };

  BlockExecutor::global().parallelFor(config.numBlocks, knobs.hostWorkers,
                                      runBlock);

  // Publish the check report before the status merge below can return:
  // a deadlocked (divergent) launch must still deliver its diagnostics.
  last_check_report_ = simcheck::CheckReport{};
  last_check_report_.maxDiagnostics = config.check.maxDiagnostics;
  if (checking) {
    std::vector<std::pair<uint32_t, const simcheck::GlobalFootprint*>>
        footprints;
    footprints.reserve(config.numBlocks);
    for (uint32_t b = 0; b < config.numBlocks; ++b) {
      last_check_report_.merge(outcomes[b].checker->report());
      footprints.emplace_back(b, &outcomes[b].checker->footprint());
    }
    simcheck::analyzeCrossBlockRaces(footprints, last_check_report_);
    if (!last_check_report_.clean()) {
      SIMTOMP_WARN("simcheck: %s", last_check_report_.summary().c_str());
    }
    metrics.add(simprof::metric::kCheckFindingsTotal,
                last_check_report_.total());
  }

  // The profile is published before the status merge too: a deadlocked
  // launch keeps the partial construct timeline that led up to it.
  last_profile_ = simprof::LaunchProfile{};
  last_profile_.enabled = profiling;
  last_profile_.numCounters = kNumCounters;
  if (profiling) {
    for (uint32_t b = 0; b < config.numBlocks; ++b) {
      last_profile_.mergeTeam(outcomes[b].profiler->teamTree());
    }
    last_profile_.root.sortChildren();
  }

  if (arm.lostPost) {
    // Lost after the blocks executed: results are discarded, but the
    // check report above stays published, mirroring a real runtime
    // where diagnostics outlive the connection that produced them.
    return fail(Status::unavailable(
        "[simfault] injected device loss after kernel execution; "
        "results discarded"));
  }

  KernelStats stats;
  stats.numBlocks = config.numBlocks;
  stats.threadsPerBlock = config.threadsPerBlock;

  // Deterministic block-order merge: SM placement, trace spans and
  // counter aggregation see blocks exactly as the serial path did.
  // Least-loaded SM placement; equal-load ties resolve round-robin.
  std::vector<uint64_t> sm_time(arch_.numSMs, 0);
  /// Block residency intervals on the modeled timeline, for the
  /// "active blocks" counter track (deep tracing).
  std::vector<std::pair<uint64_t, uint64_t>> block_windows;
  uint64_t fiber_switches = 0;
  uint64_t fibers_spawned = 0;
  for (uint32_t b = 0; b < config.numBlocks; ++b) {
    BlockOutcome& out = outcomes[b];
    if (out.exception) std::rethrow_exception(out.exception);
    if (!out.status.isOk()) {
      if (out.status.code() == StatusCode::kDeadlineExceeded) {
        metrics.add(simprof::metric::kWatchdogTimeoutsTotal);
      }
      return fail(Status(out.status.code(), "block " + std::to_string(b) +
                                                ": " + out.status.message()));
    }
    auto least = std::min_element(sm_time.begin(), sm_time.end());
    const uint32_t sm_id = static_cast<uint32_t>(least - sm_time.begin());
    const uint64_t sm_start = *least;
    if (trace_ != nullptr) {
      trace_->recordBlock(b, sm_id, sm_start, out.blockTime);
      if (out.profiler != nullptr) {
        // Deep tracing: the block's representative thread-0 construct
        // spans, nested inside the block span on its SM track.
        for (const simprof::RawSpan& span : out.profiler->tracedSpans()) {
          trace_->recordSpan(sm_id,
                             simprof::constructLabel(span.construct,
                                                     span.detail) +
                                 " (b" + std::to_string(b) + ")",
                             sm_start + span.start, span.end - span.start);
        }
        block_windows.emplace_back(sm_start, sm_start + out.blockTime);
      }
      if (arm.forBlock(b) != nullptr) {
        trace_->recordInstant("fault armed (b" + std::to_string(b) + ")",
                              sm_start);
      }
    }
    *least += out.blockTime;
    stats.busyCycles += out.busySum;
    stats.maxThreadCycles = std::max(stats.maxThreadCycles, out.maxThreadTime);
    stats.peakSharedBytes =
        std::max(stats.peakSharedBytes, out.peakSharedBytes);
    stats.counters.merge(out.counters);
    fiber_switches += out.fiberSwitches;
    fibers_spawned += out.fibersSpawned;
  }

  if (trace_ != nullptr && !block_windows.empty()) {
    // "active blocks": step function over the modeled timeline from the
    // residency intervals (delta map keeps samples sorted by time).
    std::map<uint64_t, int64_t> deltas;
    for (const auto& [start, end] : block_windows) {
      deltas[start] += 1;
      deltas[end] -= 1;
    }
    int64_t active = 0;
    for (const auto& [at, delta] : deltas) {
      active += delta;
      trace_->recordCounter("active blocks", at,
                            static_cast<uint64_t>(active));
    }
    // "active lanes": the traced block's simd spans, sampled at span
    // boundaries (value = SIMD group width driven by the traced thread).
    if (outcomes[0].profiler != nullptr) {
      const uint64_t base = block_windows.front().first;
      for (const simprof::RawSpan& span : outcomes[0].profiler->tracedSpans()) {
        if (span.construct != simprof::Construct::kSimdLoop) continue;
        trace_->recordCounter("active lanes", base + span.start, span.detail);
        trace_->recordCounter("active lanes", base + span.end, 0);
      }
    }
  }

  stats.cycles = *std::max_element(sm_time.begin(), sm_time.end()) +
                 cost_.kernelLaunch;
  stats.waves = (config.numBlocks + arch_.numSMs - 1) / arch_.numSMs;
  stats.occupancy =
      computeOccupancy(arch_, config.threadsPerBlock,
                       static_cast<uint32_t>(stats.peakSharedBytes));
  ++launch_count_;
  if (trace_ != nullptr) {
    trace_->recordKernel("kernel #" + std::to_string(launch_count_),
                         stats.cycles);
  }
  // Pin the root to the launch total: the profiler's acceptance
  // contract is root inclusive cycles == KernelStats.cycles, exactly.
  last_profile_.finalize(stats.cycles);
  metrics.observe(simprof::metric::kLaunchCycles, stats.cycles);
  SIMTOMP_DEBUG("kernel done: %s", stats.summary().c_str());
  if (knobs.check.mode == simcheck::CheckMode::kFatal &&
      !last_check_report_.clean()) {
    return fail(Status::failedPrecondition(
        "simcheck found " + std::to_string(last_check_report_.total()) +
        " issue(s): " + last_check_report_.summary()));
  }
  metrics.add(simprof::metric::kFiberSwitchesTotal, fiber_switches);
  metrics.add(simprof::metric::kFibersSpawnedTotal, fibers_spawned);
  return stats;
}

}  // namespace simtomp::gpusim
