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
// (the Fiber constructor). Frame, from the saved rsp upwards:
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
// The scheduler driving the OS thread right now. A fiber's first entry
// finds its scheduler through this pointer (set for the span of run()).
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

Fiber::Fiber(size_t index, Entry entry, size_t stack_size, char* stack)
    : index_(index),
      entry_(std::move(entry)),
      stack_data_(stack),
      stack_bytes_(stack_size) {
  asanUnpoison(stack_data_, stack_bytes_);
  tsan_fiber_ = tsanCreateFiber();
  // First entry: a frame simtomp_fiber_switch pops into trampoline() as
  // if trampoline had been called, so rsp + 8 is 16-byte aligned at its
  // entry. Above its return slot sits a null fake return address that
  // ends unwinding and backtraces. Fibers exit by switching away,
  // never by returning.
  const auto top = (reinterpret_cast<uintptr_t>(stack_data_) +
                    stack_bytes_) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<uint64_t*>(top) - 10;
  std::fill_n(frame, 10, 0);
  frame[0] = 0x037F;  // x87 control word: exceptions masked, nearest
  frame[1] = 0x1F80;  // MXCSR: the same
  frame[8] = reinterpret_cast<uint64_t>(&Fiber::trampoline);
  sp_ = frame;
}

Fiber::~Fiber() { tsanDestroyFiber(tsan_fiber_); }

void Fiber::trampoline() {
  FiberScheduler* sched = g_active_scheduler;
  SIMTOMP_CHECK(sched != nullptr, "fiber trampoline without a scheduler");
  Fiber* self = sched->current();
  SIMTOMP_CHECK(self != nullptr, "fiber trampoline without a current fiber");
  sched->resumed(*self);
  try {
    self->entry_();
  } catch (...) {
    sched->pending_exception_ = std::current_exception();
  }
  self->state_ = FiberState::kFinished;
  ++sched->finished_count_;
  sched->switchFrom(*self);
  SIMTOMP_CHECK(false, "resumed a finished fiber");
}

FiberScheduler::FiberScheduler(size_t stack_size) : stack_size_(stack_size) {
  SIMTOMP_CHECK(stack_size_ >= 16 * 1024, "fiber stack too small to be safe");
}

FiberScheduler::~FiberScheduler() = default;

size_t FiberScheduler::spawn(Fiber::Entry entry) {
  SIMTOMP_CHECK(!running_, "spawn() during run() is not supported");
  SIMTOMP_CHECK(std::this_thread::get_id() == owner_thread_,
                "spawn() off the scheduler's owning thread");
  SIMTOMP_CHECK(fibers_.size() < kMaxFibers,
                "spawn() beyond FiberScheduler::kMaxFibers fibers");
  const size_t index = fibers_.size();
  char* stack = static_cast<char*>(arena_.arena().allocate(stack_size_, 64));
  fibers_.emplace_back(new Fiber(index, std::move(entry), stack_size_, stack));
  markReady(*fibers_.back());
  return index;
}

void FiberScheduler::markReady(const Fiber& f) {
  ready_[f.index_ / 64] |= uint64_t{1} << (f.index_ % 64);
  ready_words_ |= uint64_t{1} << (f.index_ / 64);
}

size_t FiberScheduler::nextReady(size_t from) const {
  static_assert(kMaxFibers / 64 <= 64, "ready_words_ holds one bit per word");
  if (from < kMaxFibers) {
    const size_t word = from / 64;
    const uint64_t here = ready_[word] & (~uint64_t{0} << (from % 64));
    if (here != 0) return word * 64 + __builtin_ctzll(here);
    const uint64_t later =
        word + 1 < 64 ? ready_words_ & (~uint64_t{0} << (word + 1)) : 0;
    if (later != 0) {
      const size_t w = __builtin_ctzll(later);
      return w * 64 + __builtin_ctzll(ready_[w]);
    }
  }
  if (ready_words_ == 0) return kNoFiber;
  const size_t w = __builtin_ctzll(ready_words_);
  return w * 64 + __builtin_ctzll(ready_[w]);
}

void FiberScheduler::enter(Fiber& f) {
  ++step_count_;
  const size_t word = f.index_ / 64;
  ready_[word] &= ~(uint64_t{1} << (f.index_ % 64));
  if (ready_[word] == 0) ready_words_ &= ~(uint64_t{1} << word);
  f.state_ = FiberState::kRunning;
  current_ = &f;
}

bool FiberScheduler::stopRequested() const {
  return pending_exception_ ||
         (trap_step_ != 0 && step_count_ >= trap_step_) ||
         (step_budget_ != 0 && step_count_ >= step_budget_);
}

Status FiberScheduler::run() {
  SIMTOMP_CHECK(!running_, "re-entrant run()");
  SIMTOMP_CHECK(std::this_thread::get_id() == owner_thread_,
                "run() off the scheduler's owning thread; fibers are "
                "confined to the host thread that created them");
  pending_exception_ = nullptr;
  if (finished_count_ == fibers_.size()) return Status::ok();
  const size_t first = nextReady(0);
  if (first == kNoFiber) {
    return Status::failedPrecondition(
        "fiber deadlock: no runnable fibers; " + describeBlockedFibers());
  }

  // Fibers hand the processor to each other (switchFrom); the last one
  // of the run switches back here.
  running_ = true;
  FiberScheduler* prev_sched = g_active_scheduler;
  g_active_scheduler = this;
  tsan_scheduler_fiber_ = tsanCurrentFiber();
  asan_stack_bottom_ = nullptr;  // learned by the first fiber, resumed()
  Fiber& f = *fibers_[first];
  enter(f);
  tsanSwitchTo(f.tsan_fiber_);
  void* fake_stack = nullptr;
  asanStartSwitch(&fake_stack, f.stack_data_, f.stack_bytes_);
  simtomp_fiber_switch(&scheduler_sp_, f.sp_);
  asanFinishSwitch(fake_stack, nullptr, nullptr);
  current_ = nullptr;
  g_active_scheduler = prev_sched;
  running_ = false;

  // The checks of stopRequested(), in its order, then the empty ready
  // set. An exception or trap abandons the remaining fiber stacks
  // without unwinding them (documented limitation of the simulator's
  // error path).
  if (pending_exception_) {
    std::exception_ptr e = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(e);
  }
  if (trap_step_ != 0 && step_count_ >= trap_step_) {
    return Status::internal("[simfault] injected kernel trap at step " +
                            std::to_string(step_count_) + "; " +
                            describeFiberStates());
  }
  if (step_budget_ != 0 && step_count_ >= step_budget_) {
    return Status::deadlineExceeded(
        "[simfault] watchdog: block exceeded its step budget of " +
        std::to_string(step_budget_) + "; " + describeFiberStates());
  }
  if (finished_count_ < fibers_.size()) {
    return Status::failedPrecondition(
        "fiber deadlock: no runnable fibers; " + describeBlockedFibers());
  }
  return Status::ok();
}

void FiberScheduler::yield() {
  Fiber* f = current_;
  SIMTOMP_CHECK(f != nullptr, "yield() called off-fiber");
  f->state_ = FiberState::kReady;
  markReady(*f);
  switchFrom(*f);
}

void FiberScheduler::block(WaitList& waiters) {
  Fiber* f = current_;
  SIMTOMP_CHECK(f != nullptr, "block() called off-fiber");
  SIMTOMP_CHECK(std::this_thread::get_id() == owner_thread_,
                "block() off the scheduler's owning thread");
  f->state_ = FiberState::kBlocked;
  f->wait_tag_ = &waiters;
  f->next_waiter_ = waiters.head_;
  waiters.head_ = f;
  switchFrom(*f);
}

void FiberScheduler::unblockAll(WaitList& waiters) {
  SIMTOMP_CHECK(std::this_thread::get_id() == owner_thread_,
                "unblockAll() off the scheduler's owning thread");
  Fiber* f = waiters.head_;
  waiters.head_ = nullptr;
  while (f != nullptr) {
    SIMTOMP_CHECK(f->index_ < fibers_.size() && fibers_[f->index_].get() == f,
                  "unblockAll() on a WaitList of another scheduler");
    Fiber* next = f->next_waiter_;
    f->state_ = FiberState::kReady;
    f->wait_tag_ = nullptr;
    f->next_waiter_ = nullptr;
    markReady(*f);
    f = next;
  }
}

void FiberScheduler::switchFrom(Fiber& from) {
  // The sweep's next stop after `from`; a stop request ends the run
  // here, before the next step, whatever is ready.
  const size_t next = stopRequested() ? kNoFiber : nextReady(from.index_ + 1);
  if (next == from.index_) {
    // A yield with no other fiber ready: the step resumes `from` as is.
    enter(from);
    return;
  }
  void* to_sp = scheduler_sp_;
  void* to_tsan = tsan_scheduler_fiber_;
  const void* to_bottom = asan_stack_bottom_;
  size_t to_size = asan_stack_size_;
  if (next != kNoFiber) {
    Fiber& to = *fibers_[next];
    enter(to);
    to_sp = to.sp_;
    to_tsan = to.tsan_fiber_;
    to_bottom = to.stack_data_;
    to_size = to.stack_bytes_;
  }
  tsanSwitchTo(to_tsan);
  // A finished fiber never resumes: let ASan drop its fake stack.
  asanStartSwitch(
      from.state_ == FiberState::kFinished ? nullptr : &from.asan_fake_stack_,
      to_bottom, to_size);
  simtomp_fiber_switch(&from.sp_, to_sp);
  resumed(from);
}

void FiberScheduler::resumed(Fiber& f) {
  // run() clears the bounds before it switches in, so the fiber it
  // enters records the stack every run ends on.
  const bool from_run = asan_stack_bottom_ == nullptr;
  asanFinishSwitch(f.asan_fake_stack_, from_run ? &asan_stack_bottom_ : nullptr,
                   from_run ? &asan_stack_size_ : nullptr);
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
      case FiberState::kRunning:  // none while run() has control
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
