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
#include <bit>
#include <cstring>
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
/// Warp sync points live in the block arena (stable address for the
/// wait list); trivially destructible by construction.
struct SyncPoint {
  LaneMask mask = 0;
  uint32_t target = 0;
  uint32_t arrived = 0;
  /// Lanes parked in BlockEngine::groupArrive, counted apart from
  /// `arrived`: a group split between the fast path and a plain
  /// barrier then deadlocks (and is reported) instead of releasing.
  uint32_t parked = 0;
  uint64_t pendingMax = 0;
  uint64_t generation = 0;
  // Release times double-buffered by generation parity: waiters of
  // generation g read slot g&1, which the *next* generation (g+1) cannot
  // clobber before all g-waiters re-arrive (they are part of the mask).
  std::array<uint64_t, 2> releaseTime{};
  fiber::WaitList waiters;  ///< lanes parked until the release
};

struct WarpState {
  LaneMask memberMask = 0;                 ///< lanes that exist in the block
  std::vector<SyncPoint*> syncs;           ///< arena-owned, keyed by mask
  /// shuffle/ballot staging; also where the convergence fast path's
  /// runner leaves each lane's reduce result
  std::array<uint64_t, 64> exchange{};
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
    uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof(T));
    const uint64_t fetched = exchangeRound(
        t, raw, mask,
        [src_lane](const WarpState& warp) { return warp.exchange[src_lane]; });
    T out;
    std::memcpy(&out, &fetched, sizeof(T));
    return out;
  }

  LaneMask ballot(ThreadCtx& t, bool predicate, LaneMask mask);

  [[nodiscard]] SharedMemory& sharedMemory() { return shared_; }
  [[nodiscard]] DeviceMemory& globalMemory() { return *global_; }
  [[nodiscard]] const ArchSpec& arch() const { return *arch_; }
  [[nodiscard]] fiber::FiberScheduler& scheduler() { return scheduler_; }
  /// Per-block bump arena (the scheduler's); everything created here
  /// dies with the block. The engine's own state (fiber stacks, thread
  /// contexts, warp sync points) already lives here; the OpenMP runtime
  /// parks its TeamState in it too.
  [[nodiscard]] support::Arena& arena() { return scheduler_.arena(); }
  /// Grid position of this block; under host-parallel execution the
  /// setup hook keys per-block state slots off this.
  [[nodiscard]] uint32_t blockId() const { return block_id_; }
  [[nodiscard]] ThreadCtx& thread(uint32_t tid) { return threads_[tid]; }
  [[nodiscard]] uint32_t numThreads() const { return num_threads_; }
  /// True when simfault armed anything for this block — the convergence
  /// fast path is disabled then, so injected sync faults keep observing
  /// the exact lane-per-fiber arrival sequence they were tuned against.
  [[nodiscard]] bool hasArmedFault() const { return fault_ != nullptr; }

  // ---- Convergence fast path: one lane runs a warp group ----
  // The group is the lanes of `mask` in the caller's warp; each call
  // below works on the warp's SyncPoint for `mask`, so the group
  // synchronizes exactly where warpBarrier(mask) would.
  /// Arrive at the group's warp barrier exactly as warpBarrier does,
  /// then park. The last arrival is the *runner*: it closes the barrier
  /// for every lane (ascending lane order) and returns true, and from
  /// then on runs the construct on behalf of the whole group. Every
  /// other lane returns false only after groupRelease.
  bool groupArrive(ThreadCtx& t, LaneMask mask, bool charged);
  /// Runner only: one full warp barrier for every lane of the group,
  /// in ascending lane order — the events each lane's warpBarrier would
  /// produce, without the rendezvous.
  void groupBarrier(ThreadCtx& runner, LaneMask mask, bool charged);
  /// Runner only: wake every lane parked in groupArrive.
  void groupRelease(const ThreadCtx& runner, LaneMask mask);
  /// Runner only: the group's twin of exchangeRound (shuffle/ballot) —
  /// charge kShuffle for every lane in ascending lane order, one group
  /// barrier, `read` the warp's slots, one group barrier. The runner
  /// deposits each lane's value in its exchange slot before the call.
  template <typename Read>
  auto groupExchangeRound(ThreadCtx& runner, LaneMask mask,
                          const Read& read) {
    forEachLane(runner, mask,
                [this](ThreadCtx& lane) { chargeShuffle(lane); });
    groupBarrier(runner, mask, /*charged=*/true);
    const auto out = read(warps_[runner.warpId()]);
    groupBarrier(runner, mask, /*charged=*/true);
    return out;
  }
  /// Call `f` on every lane of `mask` in `t`'s warp, in ascending lane
  /// order.
  template <typename F>
  void forEachLane(const ThreadCtx& t, LaneMask mask, const F& f) {
    ThreadCtx* warp = threads_ + t.warpId() * arch_->warpSize;
    for (LaneMask rest = mask; rest != 0; rest &= rest - 1) {
      f(warp[std::countr_zero(rest)]);
    }
  }
  /// The caller's warp exchange slots: the runner's deposits for
  /// groupExchangeRound, and where it leaves lane l's simd result (slot
  /// l) before groupRelease.
  [[nodiscard]] std::array<uint64_t, 64>& exchangeSlots(const ThreadCtx& t) {
    return warps_[t.warpId()].exchange;
  }

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
  /// The sync point of `t`'s warp for `mask`, which must hold `t`'s lane.
  SyncPoint& warpSync(const ThreadCtx& t, LaneMask mask);
  /// The arrival half of every warp barrier, for lane `t` at `sp`:
  /// enter the kBarrier span, charge kWarpSync (0 when not `charged`),
  /// report the arrival to simcheck.
  void announceWarpArrival(ThreadCtx& t, SyncPoint& sp, bool charged);
  /// Release half of a group barrier the runner performs for the whole
  /// group: align every lane to the latest arrival, exit its span.
  void closeGroupBarrier(const ThreadCtx& runner, LaneMask mask);
  void arriveAtSync(ThreadCtx& t, SyncPoint& sp);
  /// What one lane's exchange round costs besides its two barriers.
  void chargeShuffle(ThreadCtx& t) {
    t.charge(Counter::kShuffle, cost_->aluOp);
  }
  /// One cross-lane exchange round: deposit `raw` in the caller's slot,
  /// charge kShuffle, barrier, `read` the warp's slots, barrier (keeps
  /// the slots stable until every lane has read).
  template <typename Read>
  auto exchangeRound(ThreadCtx& t, uint64_t raw, LaneMask mask,
                     const Read& read) {
    WarpState& warp = warps_[t.warpId()];
    warp.exchange[t.laneId()] = raw;
    chargeShuffle(t);
    warpBarrier(t, mask);
    const auto out = read(warp);
    warpBarrier(t, mask);
    return out;
  }

  const ArchSpec* arch_;
  const CostModel* cost_;
  DeviceMemory* global_;
  uint32_t block_id_;
  SharedMemory shared_;
  // Owns the block arena; declared before everything allocated from it.
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
