// Cooperative fibers with a hand-written stack switch.
//
// Every simulated GPU thread owns a fiber, so the runtime's state
// machines (paper Figs. 5-7) execute literally: a worker thread parks
// inside simdStateMachine() on its own stack while the SIMD main thread
// keeps running, exactly as on the device. A FiberScheduler drives all
// fibers of one thread block on a single OS thread in deterministic
// (lane-ordered) round-robin, which is also how we approximate warp
// scheduling order.
//
// Blocking primitive: a fiber blocks on a WaitList that lives in the
// object it waits for (e.g. a barrier); whoever completes the barrier
// calls unblockAll() on that list. If no fiber is runnable while
// unfinished fibers remain, that is a deadlock in the simulated program
// (e.g. a barrier not reached by all participants) and run() reports it.
//
// Direct handoff: a fiber that yields, blocks or finishes switches
// straight to the next runnable fiber, so a scheduler step is one stack
// switch. The order is a round-robin sweep in index order: the lowest
// ready index above the fiber that stopped, else the lowest ready index
// overall. A ready bitset finds it in a few word operations, and
// unblockAll() walks only the list's own waiters. run() regains control
// only to end the run: every fiber finished, deadlock, an injected trap
// step, an exhausted step budget, or an exception a fiber escaped with.
//
// A switch saves only what the x86-64 System V ABI asks a callee to
// keep: rbp, rbx, r12-r15, MXCSR and the x87 control word, then swaps
// rsp (fiber.cpp). No signal mask is saved, so a switch makes no
// system call. The simulator is Linux x86-64 only; another target
// must port that one routine.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/arena.h"
#include "support/status.h"

namespace simtomp::fiber {

enum class FiberState : uint8_t { kReady, kRunning, kBlocked, kFinished };

class Fiber;
class FiberScheduler;

/// The fibers blocked on one wait point (a barrier), linked through
/// the fibers themselves, so blocking and waking allocate nothing. It
/// lives in the object fibers wait for and must outlive every fiber
/// blocked on it; its address is the wait tag that diagnostics number.
/// One list serves one scheduler.
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

 private:
  friend class FiberScheduler;
  Fiber* head_ = nullptr;
};

/// One cooperative fiber. Created and owned by a FiberScheduler.
class Fiber {
 public:
  using Entry = std::function<void()>;

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  [[nodiscard]] FiberState state() const { return state_; }
  [[nodiscard]] size_t index() const { return index_; }
  /// Tag this fiber is blocked on (nullptr unless kBlocked).
  [[nodiscard]] const void* waitTag() const { return wait_tag_; }

 private:
  friend class FiberScheduler;
  /// `stack` is `stack_size` bytes of the scheduler's arena.
  Fiber(size_t index, Entry entry, size_t stack_size, char* stack);

  static void trampoline();

  size_t index_;
  Entry entry_;
  char* stack_data_ = nullptr;
  size_t stack_bytes_ = 0;
  void* sp_ = nullptr;  ///< saved stack pointer while switched out
  FiberState state_ = FiberState::kReady;
  const void* wait_tag_ = nullptr;
  Fiber* next_waiter_ = nullptr;  ///< next fiber on the same WaitList
  void* tsan_fiber_ = nullptr;  ///< ThreadSanitizer fiber handle (tsan builds)
  void* asan_fake_stack_ = nullptr;  ///< AddressSanitizer fake-stack handle
};

/// Drives a set of fibers to completion on the calling OS thread.
///
/// Thread confinement: a scheduler and its fibers belong to the OS
/// thread that constructed the scheduler (under host-parallel block
/// execution, the worker that runs the block). spawn/run/yield/block/
/// unblockAll assert they are called on that thread — fiber stacks
/// must never migrate between host threads.
///
/// Fiber stacks bump through an arena the scheduler leases from its
/// thread's pool (support::ArenaLease), so spawning reuses warm slabs
/// instead of allocating. The lease outlives every fiber; owners such as
/// BlockEngine park their own per-block state in the same arena.
class FiberScheduler {
 public:
  explicit FiberScheduler(size_t stack_size = kDefaultStackSize);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  static constexpr size_t kDefaultStackSize = 128 * 1024;
  /// Fibers one scheduler can hold: the ready bitset is a fixed array
  /// inside the scheduler, four times the largest thread block of any
  /// arch preset.
  static constexpr size_t kMaxFibers = 4096;

  /// Register a fiber; all spawns must happen before run(). Returns its
  /// index (dense, starting at 0).
  size_t spawn(Fiber::Entry entry);

  /// Run every fiber to completion in round-robin order.
  /// Returns a FAILED_PRECONDITION status on deadlock (with a dump of
  /// which fibers are blocked on what), DEADLINE_EXCEEDED when a step
  /// budget is set and exhausted, or INTERNAL at an injected trap step.
  /// Rethrows the first exception a fiber escaped with.
  Status run();

  /// Watchdog: bound run() to `budget` scheduler steps; 0 = unlimited.
  /// Exceeding the budget stops the run with DEADLINE_EXCEEDED and a
  /// fiber-state dump — the only way out of a livelock, where every
  /// fiber stays runnable and the deadlock detector never fires.
  void setStepBudget(uint64_t budget) { step_budget_ = budget; }

  /// Fault injection: make run() fail with INTERNAL ("kernel trap")
  /// once the step counter reaches `step` (1-based; 0 disarms).
  void setTrapStep(uint64_t step) { trap_step_ = step; }

  /// Scheduler steps taken so far: one per time a fiber is given the
  /// processor, including a yielding fiber resumed because no other
  /// fiber was ready (deterministic for a given program).
  [[nodiscard]] uint64_t stepCount() const { return step_count_; }

  // ---- Calls below are only legal from inside a running fiber. ----

  /// Yield the processor but stay runnable.
  void yield();

  /// Block the current fiber on `waiters` until some fiber calls
  /// unblockAll(waiters).
  void block(WaitList& waiters);

  /// Make every fiber blocked on `waiters` runnable again. Callable
  /// from inside a fiber (typical) or from the scheduler thread
  /// between runs.
  void unblockAll(WaitList& waiters);

  /// The currently executing fiber (nullptr if called off-fiber).
  [[nodiscard]] Fiber* current() const { return current_; }

  [[nodiscard]] size_t fiberCount() const { return fibers_.size(); }
  [[nodiscard]] size_t finishedCount() const { return finished_count_; }

  /// The arena fiber stacks come from; it lives as long as the scheduler.
  [[nodiscard]] support::Arena& arena() { return arena_.arena(); }

 private:
  friend class Fiber;

  static constexpr size_t kNoFiber = ~size_t{0};

  void markReady(const Fiber& f);
  /// Lowest ready index >= `from`, else the lowest ready index; kNoFiber
  /// when no fiber is ready.
  [[nodiscard]] size_t nextReady(size_t from) const;
  /// Give `f` the processor: count the step and take it off the ready set.
  void enter(Fiber& f);
  /// True when the run must end at this step boundary whatever is ready.
  [[nodiscard]] bool stopRequested() const;
  /// `from` has yielded, blocked or finished: run the next fiber of the
  /// sweep, or return to run() to end the run.
  void switchFrom(Fiber& from);
  /// First thing a fiber does when it gets the processor back.
  void resumed(Fiber& f);
  [[nodiscard]] std::string describeBlockedFibers() const;
  [[nodiscard]] std::string describeFiberStates() const;

  // Declared first so it is released last: every fiber stack lives in it.
  support::ArenaLease arena_;
  size_t stack_size_;
  std::thread::id owner_thread_ = std::this_thread::get_id();
  std::vector<std::unique_ptr<Fiber>> fibers_;
  /// Ready fibers: bit i%64 of ready_[i/64]; bit w of ready_words_ is
  /// set while ready_[w] is nonzero.
  std::array<uint64_t, kMaxFibers / 64> ready_{};
  uint64_t ready_words_ = 0;
  void* scheduler_sp_ = nullptr;  ///< run()'s stack while fibers run
  void* tsan_scheduler_fiber_ = nullptr;
  /// The stack run() executes on, as AddressSanitizer reported it when
  /// run() switched into the first fiber (asan builds).
  const void* asan_stack_bottom_ = nullptr;
  size_t asan_stack_size_ = 0;
  Fiber* current_ = nullptr;
  size_t finished_count_ = 0;
  bool running_ = false;
  std::exception_ptr pending_exception_;
  uint64_t step_budget_ = 0;  ///< 0 = no watchdog
  uint64_t trap_step_ = 0;    ///< 0 = no injected trap
  uint64_t step_count_ = 0;
};

}  // namespace simtomp::fiber
