#include "fiber/fiber.h"

#include <algorithm>
#include <cstdio>

#include "support/log.h"

#if !defined(__x86_64__)
#error "simtomp fibers switch stacks in x86-64 assembly: port simtomp_fiber_switch (src/fiber/fiber.cpp) to this target"
#endif

// simtomp_fiber_switch(save_sp, to_sp): push the callee-saved registers,
// MXCSR and the x87 control word onto the current stack, store rsp in
// *save_sp, load to_sp, pop the same frame off it in reverse order and
// return into whatever called the switch that saved to_sp. A stack that
// was never switched out gets a hand-built frame instead
// (FiberScheduler::switchToFiber). Frame, from the saved rsp upwards:
//   +0 x87 control word   +8 MXCSR   +16 r15  +24 r14  +32 r13
//   +40 r12  +48 rbx  +56 rbp  +64 return address
extern "C" void simtomp_fiber_switch(void** save_sp, void* to_sp);
asm(R"(
  .pushsection .text
  .globl simtomp_fiber_switch
  .hidden simtomp_fiber_switch
  .type simtomp_fiber_switch, @function
  .p2align 4
simtomp_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $16, %rsp
  .cfi_adjust_cfa_offset 16
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw (%rsp)
  addq $16, %rsp
  .cfi_adjust_cfa_offset -16
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size simtomp_fiber_switch, .-simtomp_fiber_switch
  .popsection
)");

// ThreadSanitizer cannot follow a hand-written stack switch on its
// own; tell it about every fiber and every switch so tsan builds of the
// host-parallel executor stay free of false positives.
#if defined(__SANITIZE_THREAD__)
#define SIMTOMP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMTOMP_TSAN 1
#endif
#endif
#ifdef SIMTOMP_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// AddressSanitizer likewise needs every stack switch announced, or an
// exception unwinding on a fiber stack is checked against the wrong
// stack bounds; and fiber stacks recycled from an arena still carry the
// poisoned frames of fibers that were abandoned without unwinding.
#if defined(__SANITIZE_ADDRESS__)
#define SIMTOMP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SIMTOMP_ASAN 1
#endif
#endif
#ifdef SIMTOMP_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace simtomp::fiber {

namespace {
// The scheduler driving the OS thread right now. Fibers find their way
// back to it through this pointer (set around every context switch).
thread_local FiberScheduler* g_active_scheduler = nullptr;

#ifdef SIMTOMP_TSAN
void* tsanCreateFiber() { return __tsan_create_fiber(0); }
void tsanDestroyFiber(void* f) {
  if (f != nullptr) __tsan_destroy_fiber(f);
}
void tsanSwitchTo(void* f) {
  if (f != nullptr) __tsan_switch_to_fiber(f, 0);
}
void* tsanCurrentFiber() { return __tsan_get_current_fiber(); }
#else
void* tsanCreateFiber() { return nullptr; }
void tsanDestroyFiber(void*) {}
void tsanSwitchTo(void*) {}
void* tsanCurrentFiber() { return nullptr; }
#endif

#ifdef SIMTOMP_ASAN
void asanStartSwitch(void** fake_stack, const void* bottom, size_t size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
void asanFinishSwitch(void* fake_stack, const void** bottom_old,
                      size_t* size_old) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
}
void asanUnpoison(const char* stack, size_t size) {
  ASAN_UNPOISON_MEMORY_REGION(stack, size);
}
#else
void asanStartSwitch(void**, const void*, size_t) {}
void asanFinishSwitch(void*, const void**, size_t*) {}
void asanUnpoison(const char*, size_t) {}
#endif
}  // namespace

Fiber::Fiber(size_t index, Entry entry, size_t stack_size,
             char* external_stack)
    : index_(index), entry_(std::move(entry)) {
  if (external_stack != nullptr) {
    stack_data_ = external_stack;
    asanUnpoison(stack_data_, stack_size);
  } else {
    owned_stack_.resize(stack_size);
    stack_data_ = owned_stack_.data();
  }
  stack_bytes_ = stack_size;
  tsan_fiber_ = tsanCreateFiber();
}

Fiber::~Fiber() { tsanDestroyFiber(tsan_fiber_); }

void Fiber::trampoline() {
  FiberScheduler* sched = g_active_scheduler;
  SIMTOMP_CHECK(sched != nullptr, "fiber trampoline without a scheduler");
  Fiber* self = sched->current();
  SIMTOMP_CHECK(self != nullptr, "fiber trampoline without a current fiber");
  asanFinishSwitch(nullptr, &sched->asan_stack_bottom_,
                   &sched->asan_stack_size_);
  try {
    self->entry_();
  } catch (...) {
    sched->pending_exception_ = std::current_exception();
  }
  self->state_ = FiberState::kFinished;
  ++sched->finished_count_;
  sched->switchToScheduler();
  SIMTOMP_CHECK(false, "resumed a finished fiber");
}

FiberScheduler::FiberScheduler(size_t stack_size,
                               StackAllocator stack_allocator)
    : stack_size_(stack_size), stack_allocator_(std::move(stack_allocator)) {
  SIMTOMP_CHECK(stack_size_ >= 16 * 1024, "fiber stack too small to be safe");
}

FiberScheduler::~FiberScheduler() = default;

size_t FiberScheduler::spawn(Fiber::Entry entry) {
  SIMTOMP_CHECK(!running_, "spawn() during run() is not supported");
  SIMTOMP_CHECK(std::this_thread::get_id() == owner_thread_,
                "spawn() off the scheduler's owning thread");
  const size_t index = fibers_.size();
  char* external_stack =
      stack_allocator_ ? stack_allocator_(stack_size_) : nullptr;
  fibers_.emplace_back(
      new Fiber(index, std::move(entry), stack_size_, external_stack));
  return index;
}

Status FiberScheduler::run() {
  SIMTOMP_CHECK(!running_, "re-entrant run()");
  SIMTOMP_CHECK(std::this_thread::get_id() == owner_thread_,
                "run() off the scheduler's owning thread; fibers are "
                "confined to the host thread that created them");
  running_ = true;
  pending_exception_ = nullptr;

  while (finished_count_ < fibers_.size()) {
    bool progressed = false;
    for (auto& f : fibers_) {
      if (f->state_ != FiberState::kReady) continue;
      switchToFiber(*f);
      progressed = true;
      if (pending_exception_) {
        // A fiber escaped with an exception: stop simulating. Remaining
        // fiber stacks are discarded without unwinding (documented
        // limitation of the simulator's error path).
        running_ = false;
        std::exception_ptr e = pending_exception_;
        pending_exception_ = nullptr;
        std::rethrow_exception(e);
      }
      if (trap_step_ != 0 && step_count_ >= trap_step_) {
        // Injected kernel trap: abandon the run like the exception path
        // (remaining fiber stacks discarded without unwinding).
        running_ = false;
        return Status::internal("[simfault] injected kernel trap at step " +
                                std::to_string(step_count_) + "; " +
                                describeFiberStates());
      }
      if (step_budget_ != 0 && step_count_ >= step_budget_) {
        running_ = false;
        return Status::deadlineExceeded(
            "[simfault] watchdog: block exceeded its step budget of " +
            std::to_string(step_budget_) + "; " + describeFiberStates());
      }
    }
    if (!progressed) {
      running_ = false;
      return Status::failedPrecondition(
          "fiber deadlock: no runnable fibers; " + describeBlockedFibers());
    }
  }
  running_ = false;
  return Status::ok();
}

void FiberScheduler::yield() {
  Fiber* f = current_;
  SIMTOMP_CHECK(f != nullptr, "yield() called off-fiber");
  f->state_ = FiberState::kReady;
  switchToScheduler();
}

void FiberScheduler::block(const void* tag) {
  Fiber* f = current_;
  SIMTOMP_CHECK(f != nullptr, "block() called off-fiber");
  SIMTOMP_CHECK(tag != nullptr, "block() requires a non-null tag");
  SIMTOMP_CHECK(std::this_thread::get_id() == owner_thread_,
                "block() off the scheduler's owning thread");
  f->state_ = FiberState::kBlocked;
  f->wait_tag_ = tag;
  switchToScheduler();
}

void FiberScheduler::unblockAll(const void* tag) {
  SIMTOMP_CHECK(tag != nullptr, "unblockAll() requires a non-null tag");
  SIMTOMP_CHECK(std::this_thread::get_id() == owner_thread_,
                "unblockAll() off the scheduler's owning thread");
  for (auto& f : fibers_) {
    if (f->state_ == FiberState::kBlocked && f->wait_tag_ == tag) {
      f->state_ = FiberState::kReady;
      f->wait_tag_ = nullptr;
    }
  }
}

void FiberScheduler::switchToFiber(Fiber& f) {
  SIMTOMP_CHECK(f.state_ == FiberState::kReady, "switch to non-ready fiber");
  ++step_count_;
  FiberScheduler* prev_sched = g_active_scheduler;
  Fiber* prev_fiber = current_;
  g_active_scheduler = this;
  current_ = &f;
  f.state_ = FiberState::kRunning;
  if (!f.started_) {
    f.started_ = true;
    // First entry: a frame simtomp_fiber_switch pops into trampoline()
    // as if trampoline had been called, so rsp + 8 is 16-byte aligned
    // at its entry. Above its return slot sits a null fake return
    // address that ends unwinding and backtraces. Fibers exit via
    // switchToScheduler(), never by returning.
    const auto top = (reinterpret_cast<uintptr_t>(f.stack_data_) +
                      f.stack_bytes_) & ~uintptr_t{15};
    auto* frame = reinterpret_cast<uint64_t*>(top) - 10;
    std::fill_n(frame, 10, 0);
    frame[0] = 0x037F;  // x87 control word: exceptions masked, nearest
    frame[1] = 0x1F80;  // MXCSR: the same
    frame[8] = reinterpret_cast<uint64_t>(&Fiber::trampoline);
    f.sp_ = frame;
  }
  if (tsan_scheduler_fiber_ == nullptr) {
    tsan_scheduler_fiber_ = tsanCurrentFiber();
  }
  tsanSwitchTo(f.tsan_fiber_);
  void* fake_stack = nullptr;
  asanStartSwitch(&fake_stack, f.stack_data_, f.stack_bytes_);
  simtomp_fiber_switch(&scheduler_sp_, f.sp_);
  asanFinishSwitch(fake_stack, nullptr, nullptr);
  current_ = prev_fiber;
  g_active_scheduler = prev_sched;
}

void FiberScheduler::switchToScheduler() {
  Fiber* f = current_;
  SIMTOMP_CHECK(f != nullptr, "switchToScheduler() called off-fiber");
  tsanSwitchTo(g_active_scheduler != nullptr
                   ? g_active_scheduler->tsan_scheduler_fiber_
                   : nullptr);
  // A finished fiber never resumes: let ASan drop its fake stack.
  asanStartSwitch(
      f->state_ == FiberState::kFinished ? nullptr : &f->asan_fake_stack_,
      asan_stack_bottom_, asan_stack_size_);
  simtomp_fiber_switch(&f->sp_, scheduler_sp_);
  asanFinishSwitch(f->asan_fake_stack_, &asan_stack_bottom_,
                   &asan_stack_size_);
}

namespace {
// Wait tags are opaque pointers; printing them raw would leak ASLR
// into diagnostics that must be byte-identical across runs and host
// worker counts. Number them by first appearance in fiber-index order
// instead.
size_t tagOrdinal(std::vector<const void*>& tags, const void* tag) {
  for (size_t i = 0; i < tags.size(); ++i) {
    if (tags[i] == tag) return i;
  }
  tags.push_back(tag);
  return tags.size() - 1;
}
}  // namespace

std::string FiberScheduler::describeBlockedFibers() const {
  std::string out;
  std::vector<const void*> tags;
  size_t blocked = 0;
  for (const auto& f : fibers_) {
    if (f->state_ != FiberState::kBlocked) continue;
    ++blocked;
    const size_t ordinal = tagOrdinal(tags, f->wait_tag_);
    if (blocked <= 8) {
      out += "fiber " + std::to_string(f->index_) + " waits on tag#" +
             std::to_string(ordinal) + "; ";
    }
  }
  out += std::to_string(blocked) + " blocked of " +
         std::to_string(fibers_.size()) + " total";
  return out;
}

std::string FiberScheduler::describeFiberStates() const {
  std::string out;
  std::vector<const void*> tags;
  size_t ready = 0;
  size_t blocked = 0;
  size_t finished = 0;
  size_t listed = 0;
  for (const auto& f : fibers_) {
    switch (f->state_) {
      case FiberState::kFinished:
        ++finished;
        continue;
      case FiberState::kReady:
      case FiberState::kRunning:  // not reachable from the scheduler loop
        ++ready;
        break;
      case FiberState::kBlocked:
        ++blocked;
        break;
    }
    if (++listed <= 8) {
      out += "fiber " + std::to_string(f->index_);
      if (f->state_ == FiberState::kBlocked) {
        out += " blocked on tag#" +
               std::to_string(tagOrdinal(tags, f->wait_tag_));
      } else {
        out += " runnable";
      }
      out += "; ";
    }
  }
  out += std::to_string(ready) + " runnable, " + std::to_string(blocked) +
         " blocked, " + std::to_string(finished) + " finished of " +
         std::to_string(fibers_.size());
  return out;
}

}  // namespace simtomp::fiber
