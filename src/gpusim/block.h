// BlockEngine: executes one thread block of a simulated kernel.
//
// Every device thread of the block is a fiber; the engine drives them in
// lane order on one OS thread. Barriers are implemented as sync points:
// arriving threads record their timeline, the last arrival computes the
// release time (the max) and wakes everyone, so lockstep cost semantics
// fall out naturally — a warp region costs what its slowest lane costs.
//
// The resulting block time is
//     max( slowest thread timeline,
//          sum of per-warp busy cycles / warp schedulers per SM )
// i.e. latency- and issue-throughput-bound, which is what makes the
// paper's "extra main warp" and idle-lane effects visible.
#pragma once

#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "fiber/fiber.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "gpusim/memory.h"
#include "gpusim/thread.h"
#include "simfault/fault.h"
#include "support/arena.h"
#include "support/lane_mask.h"
#include "support/status.h"

namespace simtomp::gpusim {

/// Barrier bookkeeping for one (warp, mask) or block-wide sync point.
struct SyncPoint {
  LaneMask mask = 0;
  uint32_t target = 0;
  uint32_t arrived = 0;
  uint64_t pendingMax = 0;
  uint64_t generation = 0;
  // Release times double-buffered by generation parity: waiters of
  // generation g read slot g&1, which the *next* generation (g+1) cannot
  // clobber before all g-waiters re-arrive (they are part of the mask).
  std::array<uint64_t, 2> releaseTime{};
  fiber::WaitList waiters;  ///< lanes parked until the release
};

/// Rendezvous + result slot for one convergence fast-path batch (one
/// (warp, mask) pair). The last lane to arrive becomes the *runner*: it
/// executes the batched loop bodies for every lane, deposits per-lane
/// results, and releases the others. Arena-allocated (stable address
/// for its wait list); trivially destructible by construction.
struct BatchPoint {
  LaneMask mask = 0;
  uint32_t target = 0;
  uint32_t arrived = 0;
  std::array<double, 64> result{};  ///< per-lane reduce results (by lane id)
  fiber::WaitList waiters;  ///< lanes parked until the runner releases them
};

struct WarpState {
  LaneMask memberMask = 0;                 ///< lanes that exist in the block
  std::vector<std::unique_ptr<SyncPoint>> syncs;  ///< stable addresses (wait lists)
  std::vector<BatchPoint*> batches;        ///< arena-owned, keyed by mask
  std::array<uint64_t, 64> exchange{};     ///< shuffle/ballot staging
};

class BlockEngine {
 public:
  BlockEngine(const ArchSpec& arch, const CostModel& cost,
              DeviceMemory& global_memory, uint32_t block_id,
              uint32_t num_blocks, uint32_t num_threads);

  BlockEngine(const BlockEngine&) = delete;
  BlockEngine& operator=(const BlockEngine&) = delete;

  /// Execute the kernel for every thread of this block.
  Status run(const Kernel& kernel);

  // ---- Device-side services (called from fiber context) ----
  /// Warp-level barrier. `charged=false` performs the rendezvous and
  /// timeline alignment but charges no cycles — used to model AMD-style
  /// implicit wavefront lockstep, where no barrier instruction exists
  /// (paper section 5.4.1).
  void warpBarrier(ThreadCtx& t, LaneMask mask, bool charged = true);
  void blockBarrier(ThreadCtx& t);

  template <typename T>
  T shuffle(ThreadCtx& t, T value, unsigned src_lane, LaneMask mask) {
    static_assert(sizeof(T) <= sizeof(uint64_t) &&
                      std::is_trivially_copyable_v<T>,
                  "shuffle values must fit a 64-bit exchange slot");
    WarpState& warp = warps_[t.warpId()];
    uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof(T));
    warp.exchange[t.laneId()] = raw;
    t.charge(Counter::kShuffle, t.cost().aluOp);
    warpBarrier(t, mask);
    const uint64_t fetched = warp.exchange[src_lane];
    warpBarrier(t, mask);  // keep slots stable until every lane has read
    T out;
    std::memcpy(&out, &fetched, sizeof(T));
    return out;
  }

  LaneMask ballot(ThreadCtx& t, bool predicate, LaneMask mask);

  [[nodiscard]] SharedMemory& sharedMemory() { return shared_; }
  [[nodiscard]] DeviceMemory& globalMemory() { return *global_; }
  [[nodiscard]] const ArchSpec& arch() const { return *arch_; }
  [[nodiscard]] fiber::FiberScheduler& scheduler() { return scheduler_; }
  /// Per-block bump arena; everything created here dies with the block.
  /// The engine's own state (fiber stacks, thread contexts, batch
  /// points) already lives here; the OpenMP runtime parks its TeamState
  /// in it too.
  [[nodiscard]] support::Arena& arena() { return arena_.arena(); }
  /// Grid position of this block; under host-parallel execution the
  /// setup hook keys per-block state slots off this.
  [[nodiscard]] uint32_t blockId() const { return block_id_; }
  [[nodiscard]] ThreadCtx& thread(uint32_t tid) { return threads_[tid]; }
  [[nodiscard]] uint32_t numThreads() const { return num_threads_; }
  /// Lanes of warp `w` that exist in the block.
  [[nodiscard]] LaneMask warpMemberMask(uint32_t w) const {
    return warps_[w].memberMask;
  }
  /// True when simfault armed anything for this block — the convergence
  /// fast path is disabled then, so injected sync faults keep observing
  /// the exact lane-per-fiber arrival sequence they were tuned against.
  [[nodiscard]] bool hasArmedFault() const { return fault_ != nullptr; }

  // ---- Convergence fast path rendezvous ----
  /// The batch point for (this warp, mask); created in the arena on
  /// first use.
  BatchPoint& convergentBatchPoint(ThreadCtx& t, LaneMask mask);
  /// Arrive at a batch point. Returns true for the runner (the last
  /// arrival, mirroring arriveAtSync's release rule); everyone else
  /// blocks until convergentBatchRelease and returns false.
  bool convergentBatchArrive(BatchPoint& bp);
  /// Wake every lane parked at `bp` (runner only, after the batch).
  void convergentBatchRelease(BatchPoint& bp);

  /// Arbitrary per-block runtime state slot (the OpenMP runtime parks its
  /// TeamState here so device code can reach it from any thread).
  void setUserState(void* state) { user_state_ = state; }
  [[nodiscard]] void* userState() const { return user_state_; }

  /// Attach a simcheck observer for this block's execution. Wires the
  /// arena ranges and every thread context; call before run().
  void setChecker(simcheck::BlockChecker* checker);
  [[nodiscard]] simcheck::BlockChecker* checker() const { return checker_; }

  /// Attach a simprof observer for this block's execution. Wires every
  /// thread context to its ThreadProfile; call before run(). Like the
  /// checker, the profiler charges no modeled cycles.
  void setProfiler(simprof::BlockProfiler* profiler);
  [[nodiscard]] simprof::BlockProfiler* profiler() const { return profiler_; }

  /// Watchdog: bound this block's fiber-scheduler steps (0 = off).
  /// Off the hot path — the budget check lives in the scheduler loop,
  /// not in any device-side primitive.
  void setWatchdog(uint64_t step_budget) {
    scheduler_.setStepBudget(step_budget);
  }

  /// Arm injected faults for this block (nullptr = none; call before
  /// run()). kTrap arms the fiber scheduler directly; the sync and
  /// sharing kinds fire from faultFires() at the Nth site event.
  void setFault(const simfault::BlockFaultArm* arm);

  /// Site-event hook: returns true when the armed fault of `kind`
  /// fires at this occurrence. Each kind counts its own occurrences,
  /// in the block's deterministic fiber order.
  [[nodiscard]] bool faultFires(simfault::FaultKind kind);

  // ---- Results (valid after run()) ----
  [[nodiscard]] uint64_t blockTime() const { return block_time_; }
  [[nodiscard]] uint64_t busySum() const { return busy_sum_; }
  [[nodiscard]] uint64_t maxThreadTime() const { return max_thread_time_; }
  [[nodiscard]] const CounterSet& counters() const { return counters_; }

 private:
  SyncPoint& findOrCreateSync(WarpState& warp, LaneMask mask);
  void arriveAtSync(ThreadCtx& t, SyncPoint& sp);

  const ArchSpec* arch_;
  const CostModel* cost_;
  DeviceMemory* global_;
  uint32_t block_id_;
  SharedMemory shared_;
  // Declared before the scheduler and thread contexts: both allocate
  // from it (fiber stacks / ThreadCtx array), so it must outlive them.
  support::ArenaLease arena_;
  fiber::FiberScheduler scheduler_;
  ThreadCtx* threads_ = nullptr;  ///< arena array, length num_threads_
  uint32_t num_threads_ = 0;
  std::vector<WarpState> warps_;
  SyncPoint block_sync_;
  void* user_state_ = nullptr;
  simcheck::BlockChecker* checker_ = nullptr;
  simprof::BlockProfiler* profiler_ = nullptr;
  const simfault::BlockFaultArm* fault_ = nullptr;
  uint64_t fault_livelock_seen_ = 0;
  uint64_t fault_corrupt_seen_ = 0;
  uint64_t fault_sharing_seen_ = 0;

  uint64_t block_time_ = 0;
  uint64_t busy_sum_ = 0;
  uint64_t max_thread_time_ = 0;
  CounterSet counters_;
};

// ---- ThreadCtx methods that need BlockEngine ----

inline void ThreadCtx::syncWarp(LaneMask mask) { block_->warpBarrier(*this, mask); }
inline void ThreadCtx::syncBlock() { block_->blockBarrier(*this); }

template <typename T>
T ThreadCtx::shfl(T value, unsigned src_lane, LaneMask mask) {
  return block_->shuffle(*this, value, src_lane, mask);
}

template <typename T>
T ThreadCtx::shflDown(T value, unsigned delta, LaneMask mask) {
  const unsigned src = laneId() + delta;
  // Lanes whose source falls outside the mask keep their own value; the
  // shuffle still participates in both barriers.
  const unsigned effective_src = (src < 64 && laneIn(mask, src)) ? src : laneId();
  return block_->shuffle(*this, value, effective_src, mask);
}

template <typename T>
T ThreadCtx::shflXor(T value, unsigned lane_xor, LaneMask mask) {
  const unsigned src = laneId() ^ lane_xor;
  const unsigned effective_src = (src < 64 && laneIn(mask, src)) ? src : laneId();
  return block_->shuffle(*this, value, effective_src, mask);
}

inline LaneMask ThreadCtx::ballot(bool predicate, LaneMask mask) {
  return block_->ballot(*this, predicate, mask);
}

}  // namespace simtomp::gpusim
