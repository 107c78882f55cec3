// Host-side parallel block execution engine.
//
// The execution-model contract (DESIGN.md §6) makes simulated thread
// blocks fully independent: each BlockEngine owns its fibers, shared
// memory and team state, and touches only global memory (whose
// allocator and atomics are thread-safe). BlockExecutor exploits that
// by dispatching independent block runs across a persistent pool of
// host worker threads — the same "many lightweight execution contexts
// hosted on a thread pool" design as LLVM's portable GPU runtime.
//
// Determinism guarantee: host workers only change *which OS thread*
// runs a block, never what the block computes or what it is charged.
// Device::launch collects per-block results into slots and merges them
// in block order after the join, so every reported simulated-cycle
// number (KernelStats, counters, trace timeline) is bit-identical for
// hostWorkers=1 and hostWorkers=N.
//
// Thread-confinement rule: a block's fibers are created, run and
// destroyed on one worker thread (the task body constructs the
// BlockEngine locally), enforced by FiberScheduler's owner-thread
// assertions. Fibers never migrate between host threads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace simtomp::gpusim {

/// Persistent worker pool for independent block (or device) tasks.
///
/// parallelFor() runs fn(0), ..., fn(count-1) with up to `workers`
/// host threads, the calling thread included; index claiming is
/// dynamic (one index at a time), so skewed block costs balance.
/// Multiple client threads may call parallelFor concurrently — e.g.
/// the per-device helper threads of a DeviceManager — and share the
/// same helpers; each call completes when all of its own indices have
/// finished. Helper threads are spawned lazily up to the largest
/// worker count ever requested (so SIMTOMP_HOST_WORKERS=8 gives real
/// 8-way interleaving even on smaller hosts) and live until process
/// exit.
class BlockExecutor {
 public:
  BlockExecutor() = default;
  ~BlockExecutor();

  BlockExecutor(const BlockExecutor&) = delete;
  BlockExecutor& operator=(const BlockExecutor&) = delete;

  /// The process-wide pool shared by every Device and DeviceManager.
  static BlockExecutor& global();

  /// Hard cap on pool helper threads (sanity bound for bad env values).
  static constexpr uint32_t kMaxHelpers = 64;

  /// Run fn over [0, count) with at most `workers` threads (caller
  /// included). `fn` must not throw and must not leak references to
  /// other indices' state; callers capture failures per index (see
  /// Device::launch's per-block outcome slots). Calls with
  /// workers <= 1, count <= 1, or from inside a pool worker (no
  /// nesting) run inline on the calling thread.
  void parallelFor(uint32_t count, uint32_t workers,
                   const std::function<void(uint32_t)>& fn);

  /// Helper threads currently spawned (grows on demand).
  [[nodiscard]] size_t helperCount() const;

 private:
  /// One in-flight parallelFor. Lives on the caller's stack; the pool
  /// only holds a pointer while the job is registered, and the caller
  /// deregisters it only after every helper has detached.
  struct Job {
    const std::function<void(uint32_t)>* fn = nullptr;
    uint32_t count = 0;
    uint32_t next = 0;        ///< next unclaimed index
    uint32_t done = 0;        ///< finished indices
    uint32_t maxHelpers = 0;  ///< worker budget minus the caller
    uint32_t helpers = 0;     ///< helpers currently attached
  };

  void helperLoop();
  /// Claim-and-run loop shared by the caller and helpers. Entered and
  /// exited with `lock` held; unlocks around each fn() call.
  void runJob(Job& job, std::unique_lock<std::mutex>& lock);
  [[nodiscard]] Job* claimableJobLocked();
  void ensureHelpersLocked(uint32_t desired);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes helpers when a job arrives
  std::condition_variable done_cv_;  ///< wakes callers as indices finish
  std::vector<std::thread> helpers_;
  std::vector<Job*> jobs_;
  bool shutdown_ = false;
};

}  // namespace simtomp::gpusim
