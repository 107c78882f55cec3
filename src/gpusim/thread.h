// Per-thread execution context for simulated device code.
//
// A ThreadCtx is handed to the kernel entry of every simulated GPU
// thread. It carries the thread's identity (block, thread, warp, lane),
// its two clocks, and the charging interface the typed memory views and
// the OpenMP runtime use:
//
//   time  — the thread's position on the simulated timeline. Advanced by
//           every charge and snapped forward to the barrier release time
//           at synchronization points (waiting is "free" but moves time).
//   busy  — only the charged cycles; used for the SM issue-throughput
//           bound (a thread parked at a barrier consumes no issue slots).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "gpusim/cost_model.h"
#include "gpusim/memory.h"
#include "gpusim/stats.h"
#include "simcheck/checker.h"
#include "simprof/profile.h"
#include "support/lane_mask.h"

namespace simtomp::gpusim {

class BlockEngine;

class ThreadCtx {
 public:
  ThreadCtx(BlockEngine& block, const CostModel& cost, uint32_t block_id,
            uint32_t num_blocks, uint32_t thread_id, uint32_t num_threads,
            uint32_t warp_size)
      : block_(&block),
        cost_(&cost),
        block_id_(block_id),
        num_blocks_(num_blocks),
        thread_id_(thread_id),
        num_threads_(num_threads),
        warp_size_(warp_size) {}

  // ---- Identity ----
  [[nodiscard]] uint32_t blockId() const { return block_id_; }
  [[nodiscard]] uint32_t numBlocks() const { return num_blocks_; }
  [[nodiscard]] uint32_t threadId() const { return thread_id_; }
  [[nodiscard]] uint32_t numThreads() const { return num_threads_; }
  [[nodiscard]] uint32_t warpSize() const { return warp_size_; }
  [[nodiscard]] uint32_t warpId() const { return thread_id_ / warp_size_; }
  [[nodiscard]] uint32_t laneId() const { return thread_id_ % warp_size_; }
  /// Global thread index across the whole grid.
  [[nodiscard]] uint64_t globalThreadId() const {
    return static_cast<uint64_t>(block_id_) * num_threads_ + thread_id_;
  }

  // ---- Clocks & accounting ----
  [[nodiscard]] uint64_t time() const { return time_; }
  [[nodiscard]] uint64_t busy() const { return busy_; }
  [[nodiscard]] const CostModel& cost() const { return *cost_; }
  [[nodiscard]] const CounterSet& counters() const { return counters_; }

  void charge(Counter counter, uint64_t cycles, uint64_t count = 1) {
    counters_.add(counter, count);
    busy_ += cycles;
    time_ += cycles;
    if (profile_ != nullptr) {
      profile_->onCharge(static_cast<uint32_t>(counter), cycles, count);
    }
  }
  /// Snap the timeline forward (barrier release); never moves backwards.
  void alignTimeTo(uint64_t t) {
    if (t > time_) time_ = t;
  }

  // ---- Compute charging ----
  void work(uint64_t alu_ops) { charge(Counter::kAluWork, alu_ops * cost_->aluOp, alu_ops); }
  void fma(uint64_t n = 1) { charge(Counter::kAluWork, n * cost_->fmaOp, n); }
  void branch() {
    noteHazard("divergent branch");
    charge(Counter::kAluWork, cost_->divergeBranch);
  }

  // ---- Convergence-hazard guard (fast path) ----
  // A convergence hazard is an operation (barrier, cross-lane op,
  // atomic, divergent branch) whose timing or result can depend on lane
  // interleaving, so batched execution could not reproduce it.
  /// Arm/disarm the guard around a batched fast-path body: the body was
  /// declared convergent, so a hazard inside it is a false promise.
  void setHazardGuard(bool forbid) { hazard_guard_ = forbid; }
  /// Called at every hazard site; one branch when the guard is off.
  void noteHazard(const char* what) {
    if (hazard_guard_) hazardForbidden(what);  // [[noreturn]]
  }

  // ---- Memory charging (used by the typed spans) ----
  void chargeGlobalLoad(uint64_t n = 1) {
    charge(Counter::kGlobalLoad, n * cost_->globalAccess, n);
  }
  void chargeGlobalStore(uint64_t n = 1) {
    charge(Counter::kGlobalStore, n * cost_->globalAccess, n);
  }
  void chargeSharedLoad(uint64_t n = 1) {
    charge(Counter::kSharedLoad, n * cost_->sharedAccess, n);
  }
  void chargeSharedStore(uint64_t n = 1) {
    charge(Counter::kSharedStore, n * cost_->sharedAccess, n);
  }
  void chargeLocal(uint64_t n = 1) {
    charge(Counter::kLocalAccess, n * cost_->localAccess, n);
  }
  void chargeAtomic(uint64_t n = 1) {
    // Atomics are hazards: their result (and for FP, the final value)
    // depends on inter-lane ordering, which the batched path reorders.
    noteHazard("atomic RMW");
    charge(Counter::kAtomicRmw, n * cost_->atomicRmw, n);
  }

  // ---- Synchronization / warp intrinsics (defined via BlockEngine) ----
  /// Warp-level barrier over `mask` lanes of this thread's warp.
  void syncWarp(LaneMask mask);
  /// Block-wide barrier (__syncthreads).
  void syncBlock();
  /// Read `value` from `src_lane` of this warp; all `mask` lanes must call.
  template <typename T>
  T shfl(T value, unsigned src_lane, LaneMask mask);
  /// Read the value held by the lane `delta` above this one (within mask
  /// width); lanes whose source is outside the mask get their own value.
  template <typename T>
  T shflDown(T value, unsigned delta, LaneMask mask);
  /// Butterfly shuffle: read from lane (laneId ^ lane_xor). The mask must
  /// be closed under the xor (true for power-of-two aligned groups).
  template <typename T>
  T shflXor(T value, unsigned lane_xor, LaneMask mask);
  /// Warp vote: mask of lanes (within `mask`) whose predicate is true.
  LaneMask ballot(bool predicate, LaneMask mask);

  [[nodiscard]] BlockEngine& block() { return *block_; }

  // ---- Correctness checking (no-ops when checking is off) ----
  /// Installed by the BlockEngine when the launch enables simcheck.
  void setChecker(simcheck::BlockChecker* checker) { checker_ = checker; }
  [[nodiscard]] simcheck::BlockChecker* checker() const { return checker_; }
  /// Report a span access to the checker. Charges nothing: modeled
  /// cycles are bit-identical with checking on or off.
  void noteAccess(const void* ptr, size_t bytes, simcheck::AccessKind kind) {
    if (checker_ != nullptr) checker_->onAccess(thread_id_, ptr, bytes, kind);
  }
  /// Like noteAccess, for runtime-owned transient allocations whose
  /// granules the allocator may hand to other blocks after release
  /// (sharing-space overflow staging): race-checked within the block,
  /// excluded from the cross-block footprint.
  void noteBlockPrivateAccess(const void* ptr, size_t bytes,
                              simcheck::AccessKind kind) {
    if (checker_ != nullptr) {
      checker_->onAccess(thread_id_, ptr, bytes, kind,
                         /*block_private=*/true);
    }
  }
  /// Annotate an access to a runtime protocol slot (published function
  /// pointers / termination flags that live outside the arenas).
  void noteSyntheticAccess(uint64_t key, bool is_write) {
    if (checker_ != nullptr) {
      checker_->onSyntheticAccess(thread_id_, key, is_write);
    }
  }
  /// Annotate lock-style synchronization (rt::critical).
  void noteLockAcquire(uint64_t key) {
    if (checker_ != nullptr) checker_->onLockAcquire(thread_id_, key);
  }
  void noteLockRelease(uint64_t key) {
    if (checker_ != nullptr) checker_->onLockRelease(thread_id_, key);
  }

  // ---- Profiling (no-ops when profiling is off) ----
  /// Installed by the BlockEngine when the launch enables simprof.
  void setProfile(simprof::ThreadProfile* profile) { profile_ = profile; }
  [[nodiscard]] simprof::ThreadProfile* profile() const { return profile_; }
  /// Open/close a construct span on this thread's modeled timeline.
  /// Charges nothing: modeled cycles are bit-identical with profiling
  /// on or off (the profiler only reads the clocks).
  void noteEnter(simprof::Construct construct, uint64_t detail = 0) {
    if (profile_ != nullptr) profile_->enter(construct, detail, time_);
  }
  void noteExit() {
    if (profile_ != nullptr) profile_->exit(time_);
  }

 private:
  /// Out-of-line (block.cpp): throws a FAILED_PRECONDITION
  /// StatusException naming the hazard — a false convergent declaration.
  [[noreturn]] void hazardForbidden(const char* what);

  BlockEngine* block_;
  const CostModel* cost_;
  uint32_t block_id_;
  uint32_t num_blocks_;
  uint32_t thread_id_;
  uint32_t num_threads_;
  uint32_t warp_size_;
  uint64_t time_ = 0;
  uint64_t busy_ = 0;
  bool hazard_guard_ = false;
  CounterSet counters_;
  simcheck::BlockChecker* checker_ = nullptr;
  simprof::ThreadProfile* profile_ = nullptr;
};

/// Kernel entry: runs once per simulated device thread.
using Kernel = std::function<void(ThreadCtx&)>;

// ---- Typed span accessors (need ThreadCtx to charge) ----

template <typename T>
T GlobalSpan<T>::get(ThreadCtx& t, size_t i) const {
  t.chargeGlobalLoad();
  t.noteAccess(&data_[i], sizeof(T), simcheck::AccessKind::kRead);
  return data_[i];
}

template <typename T>
void GlobalSpan<T>::set(ThreadCtx& t, size_t i, T value) const {
  t.chargeGlobalStore();
  t.noteAccess(&data_[i], sizeof(T), simcheck::AccessKind::kWrite);
  data_[i] = value;
}

template <typename T>
T GlobalSpan<T>::atomicAdd(ThreadCtx& t, size_t i, T value) const {
  t.chargeAtomic();
  t.noteAccess(&data_[i], sizeof(T), simcheck::AccessKind::kAtomic);
  // CAS loop so the same code works for floating point and integers and
  // stays correct if blocks ever execute on concurrent host threads.
  static_assert(std::is_arithmetic_v<T>);
  std::atomic_ref<T> ref(data_[i]);
  T expected = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(expected, expected + value,
                                    std::memory_order_relaxed)) {
  }
  return expected;
}

template <typename T>
T SharedSpan<T>::get(ThreadCtx& t, size_t i) const {
  t.chargeSharedLoad();
  t.noteAccess(&data_[i], sizeof(T), simcheck::AccessKind::kRead);
  return data_[i];
}

template <typename T>
void SharedSpan<T>::set(ThreadCtx& t, size_t i, T value) const {
  t.chargeSharedStore();
  t.noteAccess(&data_[i], sizeof(T), simcheck::AccessKind::kWrite);
  data_[i] = value;
}

}  // namespace simtomp::gpusim
