// Unit tests for the cooperative fiber scheduler.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "fiber/fiber.h"

namespace simtomp::fiber {
namespace {

TEST(FiberTest, RunsSingleFiberToCompletion) {
  FiberScheduler sched;
  bool ran = false;
  sched.spawn([&] { ran = true; });
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.finishedCount(), 1u);
}

TEST(FiberTest, RunsManyFibersInOrder) {
  FiberScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sched.spawn([&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(FiberTest, YieldInterleavesRoundRobin) {
  FiberScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.spawn([&sched, &order, i] {
      order.push_back(i);
      sched.yield();
      order.push_back(i + 10);
    });
  }
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
}

TEST(FiberTest, BlockAndUnblockAll) {
  FiberScheduler sched;
  WaitList tag;
  std::vector<int> order;
  // Two waiters and one releaser.
  for (int i = 0; i < 2; ++i) {
    sched.spawn([&, i] {
      sched.block(tag);
      order.push_back(i);
    });
  }
  sched.spawn([&] {
    order.push_back(99);
    sched.unblockAll(tag);
  });
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(order, (std::vector<int>{99, 0, 1}));
}

TEST(FiberTest, DeadlockIsDetected) {
  FiberScheduler sched;
  WaitList tag;
  sched.spawn([&] { sched.block(tag); });  // nobody ever unblocks
  const Status status = sched.run();
  ASSERT_FALSE(status.isOk());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("deadlock"), std::string::npos);
}

TEST(FiberTest, PartialDeadlockReportsBlockedCount) {
  FiberScheduler sched;
  WaitList tag;
  sched.spawn([&] { sched.block(tag); });
  sched.spawn([] {});  // finishes fine
  const Status status = sched.run();
  ASSERT_FALSE(status.isOk());
  EXPECT_NE(status.message().find("1 blocked of 2"), std::string::npos);
}

TEST(FiberTest, ExceptionPropagatesToRun) {
  FiberScheduler sched;
  sched.spawn([] { throw std::runtime_error("kernel bug"); });
  EXPECT_THROW((void)sched.run(), std::runtime_error);
}

TEST(FiberTest, ManyBlockUnblockRounds) {
  FiberScheduler sched;
  WaitList tag;
  constexpr int kRounds = 50;
  int counter = 0;
  sched.spawn([&] {
    for (int r = 0; r < kRounds; ++r) sched.block(tag);
    counter += 1;
  });
  sched.spawn([&] {
    for (int r = 0; r < kRounds; ++r) {
      sched.unblockAll(tag);
      sched.yield();
    }
  });
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(counter, 1);
}

TEST(FiberTest, CurrentIsNullOffFiber) {
  FiberScheduler sched;
  EXPECT_EQ(sched.current(), nullptr);
}

TEST(FiberTest, FiberIndicesAreDense) {
  FiberScheduler sched;
  EXPECT_EQ(sched.spawn([] {}), 0u);
  EXPECT_EQ(sched.spawn([] {}), 1u);
  EXPECT_EQ(sched.spawn([] {}), 2u);
  EXPECT_EQ(sched.fiberCount(), 3u);
}

TEST(FiberTest, DeepStacksSurviveRecursion) {
  FiberScheduler sched(256 * 1024);
  // ~100 frames of recursion with some locals.
  struct Recurse {
    static int go(int n) {
      volatile char pad[512] = {};
      (void)pad;
      if (n == 0) return 0;
      return 1 + go(n - 1);
    }
  };
  int depth = 0;
  sched.spawn([&] { depth = Recurse::go(100); });
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(depth, 100);
}

TEST(FiberTest, LargeFiberCount) {
  FiberScheduler sched(64 * 1024);
  constexpr int kFibers = 512;
  int count = 0;
  for (int i = 0; i < kFibers; ++i) {
    sched.spawn([&count] { ++count; });
  }
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(count, kFibers);
}

/// Low four bits of a fresh frame's 16-aligned local. The compiler lays
/// the local out assuming the ABI's 16-byte call alignment, so a fiber
/// stack entered or resumed misaligned shows up as a nonzero result.
[[gnu::noinline]] uintptr_t alignedLocalMisalignment() {
  alignas(16) volatile char probe[16] = {};
  auto address = reinterpret_cast<uintptr_t>(&probe[0]);
  asm volatile("" : "+r"(address));  // hide the alignment from the folder
  return address & 15;
}

TEST(FiberTest, StackIsSixteenByteAlignedAtEntryAndAfterEveryResume) {
  FiberScheduler sched;
  std::vector<uintptr_t> misalignment;
  for (int i = 0; i < 4; ++i) {
    sched.spawn([&] {
      misalignment.push_back(alignedLocalMisalignment());
      for (int r = 0; r < 3; ++r) {
        sched.yield();
        misalignment.push_back(alignedLocalMisalignment());
      }
    });
  }
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(misalignment, std::vector<uintptr_t>(16, 0));
}

/// 1/3 rounded under the current rounding mode (volatile operands keep
/// the division at run time, in SSE under MXCSR).
double oneThird() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(FiberTest, RoundingModeStaysWithTheFiberThatSetIt) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = oneThird();
  FiberScheduler sched;
  int after_yield = -1;
  double after_yield_third = 0.0;
  std::vector<int> sibling;
  sched.spawn([&] {
    std::fesetround(FE_UPWARD);
    sched.yield();
    after_yield = std::fegetround();
    after_yield_third = oneThird();
  });
  sched.spawn([&] {
    sibling.push_back(std::fegetround());
    sched.yield();
    sibling.push_back(std::fegetround());
    EXPECT_EQ(oneThird(), nearest);
  });
  EXPECT_TRUE(sched.run().isOk());
  const int scheduler_mode = std::fegetround();
  const double scheduler_third = oneThird();
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(after_yield, FE_UPWARD);
  EXPECT_GT(after_yield_third, nearest);
  EXPECT_EQ(sibling, (std::vector<int>{FE_TONEAREST, FE_TONEAREST}));
  EXPECT_EQ(scheduler_mode, FE_TONEAREST);
  EXPECT_EQ(scheduler_third, nearest);
}

/// Holds a dozen integer and floating-point locals live across every
/// pause() — more than the callee-saved registers, so some live in
/// spill slots — and folds them into one value.
[[gnu::noinline]] uint64_t churn(uint64_t seed,
                                 const std::function<void()>& pause) {
  uint64_t a = seed + 1, b = seed * 3 + 2, c = seed * 5 + 3, d = seed ^ 0x55;
  uint64_t e = seed << 7, f = ~seed, g = seed * seed, h = seed + 0x1234;
  double x = static_cast<double>(seed) + 0.5, y = x * 1.25, z = y - 3.0;
  double w = x * y + z;
  for (int round = 0; round < 6; ++round) {
    pause();
    a = a * 6364136223846793005ULL + b;
    b ^= c + (d << 3);
    c += e ^ (f >> 5);
    d = d * 31 + g;
    e ^= h + a;
    f += b * 7;
    g = (g ^ c) + d;
    h = h * 13 + e;
    x = x * 1.0001 + y;
    y = y - z * 0.5;
    z = z + w * 0.25;
    w = w * 0.75 + x;
  }
  return a ^ b ^ c ^ d ^ e ^ f ^ g ^ h ^
         static_cast<uint64_t>(x + y + z + w);
}

/// Work that clobbers registers and stack differently from churn().
[[gnu::noinline]] double otherWork(int depth) {
  volatile double pad[32] = {};
  for (int i = 0; i < 32; ++i) pad[i] = depth * 0.1 + i;
  double sum = 0.0;
  for (int i = 0; i < 32; ++i) sum += pad[i];
  return depth == 0 ? sum : sum + otherWork(depth - 1);
}

TEST(FiberTest, LocalsLiveAcrossYieldSurviveInterleavedWork) {
  constexpr int kFibers = 8;
  FiberScheduler sched;
  std::vector<uint64_t> got(kFibers, 0);
  double sink = 0.0;
  for (int i = 0; i < kFibers; ++i) {
    if (i % 2 == 0) {
      sched.spawn([&, i] {
        got[i] = churn(static_cast<uint64_t>(i) * 97, [&] { sched.yield(); });
      });
    } else {
      sched.spawn([&, i] {
        for (int r = 0; r < 6; ++r) {
          sink += otherWork(i + r);
          sched.yield();
        }
      });
    }
  }
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_GT(sink, 0.0);
  for (int i = 0; i < kFibers; i += 2) {
    EXPECT_EQ(got[i], churn(static_cast<uint64_t>(i) * 97, [] {}))
        << "fiber " << i;
  }
}

/// Recurses `depth` frames, yielding in each, then throws.
[[gnu::noinline]] void yieldThenThrow(FiberScheduler& sched, int depth) {
  volatile char pad[256] = {};
  (void)pad;
  if (depth == 0) throw std::runtime_error("thrown deep in a fiber");
  sched.yield();
  yieldThenThrow(sched, depth - 1);
}

TEST(FiberTest, ExceptionFromDeepFramesReachesRunAndThreadStaysUsable) {
  {
    FiberScheduler sched;
    int sibling_rounds = 0;
    sched.spawn([&] { yieldThenThrow(sched, 6); });
    sched.spawn([&] {
      for (int r = 0; r < 20; ++r) {
        ++sibling_rounds;
        sched.yield();
      }
    });
    std::string message;
    try {
      (void)sched.run();
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "thrown deep in a fiber");
    EXPECT_EQ(sibling_rounds, 6) << "the sibling ran until the throw";
  }
  FiberScheduler fresh;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    fresh.spawn([&, i] {
      order.push_back(i);
      fresh.yield();
      order.push_back(i + 10);
    });
  }
  EXPECT_TRUE(fresh.run().isOk());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
}

/// Barrier stress parameterized over participant count.
class FiberBarrierProperty : public ::testing::TestWithParam<int> {};

TEST_P(FiberBarrierProperty, AllOrNothingRendezvous) {
  const int n = GetParam();
  FiberScheduler sched(64 * 1024);
  WaitList tag;
  int arrived = 0;
  std::vector<int> after;
  for (int i = 0; i < n; ++i) {
    sched.spawn([&, i] {
      ++arrived;
      if (arrived == n) {
        sched.unblockAll(tag);
      } else {
        sched.block(tag);
      }
      // By the time anyone proceeds, all must have arrived.
      EXPECT_EQ(arrived, n);
      after.push_back(i);
    });
  }
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(static_cast<int>(after.size()), n);
}

INSTANTIATE_TEST_SUITE_P(Counts, FiberBarrierProperty,
                         ::testing::Values(2, 3, 8, 32, 64));

// ---- The step sequence, pinned against a reference sweep ----

enum class Op : uint8_t { kYield, kBlock, kUnblockAll };
struct Action {
  Op op = Op::kYield;
  size_t list = 0;  ///< wait list index for kBlock / kUnblockAll
};
/// One action list per fiber; a fiber finishes after its last action.
using Script = std::vector<std::vector<Action>>;

struct Outcome {
  std::vector<size_t> resumptions;  ///< fiber given the processor, per step
  uint64_t steps = 0;
  StatusCode code = StatusCode::kOk;
  size_t finished = 0;
};

/// The scheduler's order as a plain sweep over fiber indices: each
/// sweep runs every ready fiber in index order, a run ends after the
/// step that reaches the trap step or the budget, and a sweep that
/// runs no fiber is a deadlock.
Outcome referenceSweep(const Script& script, size_t num_lists,
                       uint64_t trap_step, uint64_t budget) {
  enum class State { kReady, kBlocked, kFinished };
  const size_t n = script.size();
  std::vector<State> state(n, State::kReady);
  std::vector<size_t> pc(n, 0);
  std::vector<size_t> waits_on(n, num_lists);
  Outcome out;
  while (out.finished < n) {
    bool progressed = false;
    for (size_t i = 0; i < n; ++i) {
      if (state[i] != State::kReady) continue;
      progressed = true;
      ++out.steps;
      out.resumptions.push_back(i);
      for (;;) {
        if (pc[i] == script[i].size()) {
          state[i] = State::kFinished;
          ++out.finished;
          break;
        }
        const Action a = script[i][pc[i]++];
        if (a.op == Op::kUnblockAll) {
          for (size_t j = 0; j < n; ++j) {
            if (state[j] == State::kBlocked && waits_on[j] == a.list) {
              state[j] = State::kReady;
            }
          }
          continue;
        }
        if (a.op == Op::kBlock) {
          state[i] = State::kBlocked;
          waits_on[i] = a.list;
        }
        break;
      }
      if (trap_step != 0 && out.steps >= trap_step) {
        out.code = StatusCode::kInternal;
        return out;
      }
      if (budget != 0 && out.steps >= budget) {
        out.code = StatusCode::kDeadlineExceeded;
        return out;
      }
    }
    if (!progressed) {
      out.code = StatusCode::kFailedPrecondition;
      return out;
    }
  }
  return out;
}

Outcome runScript(const Script& script, size_t num_lists, uint64_t trap_step,
                  uint64_t budget) {
  FiberScheduler sched(32 * 1024);
  sched.setTrapStep(trap_step);
  sched.setStepBudget(budget);
  std::vector<WaitList> lists(num_lists);
  Outcome out;
  for (size_t i = 0; i < script.size(); ++i) {
    sched.spawn([&, i] {
      out.resumptions.push_back(i);
      for (const Action& a : script[i]) {
        switch (a.op) {
          case Op::kYield:
            sched.yield();
            out.resumptions.push_back(i);
            break;
          case Op::kBlock:
            sched.block(lists[a.list]);
            out.resumptions.push_back(i);
            break;
          case Op::kUnblockAll:
            sched.unblockAll(lists[a.list]);
            break;
        }
      }
    });
  }
  out.code = sched.run().code();
  out.steps = sched.stepCount();
  out.finished = sched.finishedCount();
  return out;
}

Script randomScript(std::mt19937_64& rng, size_t fibers, size_t num_lists) {
  std::uniform_int_distribution<size_t> length(0, 12);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<size_t> list(0, num_lists - 1);
  Script script(fibers);
  for (auto& actions : script) {
    actions.resize(length(rng));
    for (Action& a : actions) {
      const int k = kind(rng);
      a.op = k < 4 ? Op::kYield : k < 6 ? Op::kBlock : Op::kUnblockAll;
      a.list = list(rng);
    }
  }
  return script;
}

class FiberStepSequenceProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(FiberStepSequenceProperty, MatchesTheReferenceSweep) {
  const size_t fibers = GetParam();
  constexpr size_t kLists = 3;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    std::mt19937_64 rng(seed * 1000 + fibers);
    const Script script = randomScript(rng, fibers, kLists);
    const Outcome free_run = referenceSweep(script, kLists, 0, 0);
    // A third of the seeds arm a trap, a third a watchdog budget, at a
    // step inside the free run.
    std::uniform_int_distribution<uint64_t> step(1, free_run.steps);
    const uint64_t trap = seed % 3 == 1 ? step(rng) : 0;
    const uint64_t budget = seed % 3 == 2 ? step(rng) : 0;
    const Outcome want = referenceSweep(script, kLists, trap, budget);
    const Outcome got = runScript(script, kLists, trap, budget);
    EXPECT_EQ(got.resumptions, want.resumptions) << "seed " << seed;
    EXPECT_EQ(got.steps, want.steps) << "seed " << seed;
    EXPECT_EQ(got.code, want.code) << "seed " << seed;
    EXPECT_EQ(got.finished, want.finished) << "seed " << seed;
  }
}

// Word boundaries of the ready bitset: 63, 64 and 65 fibers, and 300
// spanning five words.
INSTANTIATE_TEST_SUITE_P(Counts, FiberStepSequenceProperty,
                         ::testing::Values(1, 63, 64, 65, 300));

TEST(FiberStepTest, FullSchedulerSweepsItsLastWordAndWraps) {
  constexpr size_t kFibers = FiberScheduler::kMaxFibers;
  FiberScheduler sched(16 * 1024);
  std::vector<size_t> order;
  order.reserve(2 * kFibers);
  for (size_t i = 0; i < kFibers; ++i) {
    sched.spawn([&, i] {
      order.push_back(i);
      sched.yield();
      order.push_back(i);
    });
  }
  EXPECT_TRUE(sched.run().isOk());
  std::vector<size_t> want;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < kFibers; ++i) want.push_back(i);
  }
  EXPECT_EQ(order, want);
  EXPECT_EQ(sched.stepCount(), 2 * kFibers);
}

/// Three fibers yield four times each; fiber 3 blocks for good.
void spawnYieldersAndOneBlocked(FiberScheduler& sched, WaitList& never,
                                std::vector<size_t>& order) {
  for (size_t i = 0; i < 3; ++i) {
    sched.spawn([&, i] {
      for (int r = 0; r < 4; ++r) {
        order.push_back(i);
        sched.yield();
      }
    });
  }
  sched.spawn([&] {
    order.push_back(3);
    sched.block(never);
  });
}

TEST(FiberStepTest, TrapFiresAfterExactlyItsStep) {
  FiberScheduler sched;
  WaitList never;
  std::vector<size_t> order;
  spawnYieldersAndOneBlocked(sched, never, order);
  sched.setTrapStep(7);
  const Status status = sched.run();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(),
            "[simfault] injected kernel trap at step 7; fiber 0 runnable; "
            "fiber 1 runnable; fiber 2 runnable; fiber 3 blocked on tag#0; "
            "3 runnable, 1 blocked, 0 finished of 4");
  EXPECT_EQ(sched.stepCount(), 7u);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 0, 1, 2}));
}

TEST(FiberStepTest, WatchdogFiresAfterExactlyItsBudget) {
  FiberScheduler sched;
  WaitList never;
  std::vector<size_t> order;
  spawnYieldersAndOneBlocked(sched, never, order);
  sched.setStepBudget(6);
  const Status status = sched.run();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(status.message(),
            "[simfault] watchdog: block exceeded its step budget of 6; "
            "fiber 0 runnable; fiber 1 runnable; fiber 2 runnable; "
            "fiber 3 blocked on tag#0; 3 runnable, 1 blocked, 0 finished "
            "of 4");
  EXPECT_EQ(sched.stepCount(), 6u);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 0, 1}));
}

TEST(FiberStepTest, TrapOnTheLastStepBeatsCompletion) {
  FiberScheduler sched;
  sched.spawn([] {});
  sched.spawn([] {});
  sched.setTrapStep(2);
  const Status status = sched.run();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(),
            "[simfault] injected kernel trap at step 2; 0 runnable, "
            "0 blocked, 2 finished of 2");
  EXPECT_EQ(sched.finishedCount(), 2u);
}

TEST(FiberStepTest, YieldWithNoOtherFiberReadyCountsAStepAndResumes) {
  FiberScheduler sched;
  WaitList parked;
  std::vector<size_t> order;
  sched.spawn([&] {
    order.push_back(0);
    sched.block(parked);
    order.push_back(0);
  });
  sched.spawn([&] {
    for (int r = 0; r < 3; ++r) {
      order.push_back(1);
      sched.yield();  // fiber 0 is blocked: nothing else is ready
    }
    order.push_back(1);
    sched.unblockAll(parked);
  });
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 1, 1, 1, 0}));
  EXPECT_EQ(sched.stepCount(), 6u);
}

TEST(FiberStepTest, ExceptionWhileOthersAreBlockedEndsTheRunAtItsStep) {
  FiberScheduler sched;
  WaitList a;
  WaitList b;
  sched.spawn([&] { sched.block(a); });
  sched.spawn([&] { sched.block(b); });
  sched.spawn([&] {
    sched.yield();
    sched.yield();
    throw std::runtime_error("lane fault");
  });
  EXPECT_THROW((void)sched.run(), std::runtime_error);
  EXPECT_EQ(sched.stepCount(), 5u);
  EXPECT_EQ(sched.finishedCount(), 1u);
  EXPECT_EQ(sched.current(), nullptr);
}

TEST(FiberStepTest, SchedulerNestedInsideAFiberKeepsBothSequences) {
  FiberScheduler outer;
  std::vector<std::string> order;
  uint64_t inner_steps = 0;
  outer.spawn([&] {
    order.push_back("A0");
    FiberScheduler inner(32 * 1024);
    WaitList gate;
    for (int i = 0; i < 3; ++i) {
      inner.spawn([&, i] {
        order.push_back("i" + std::to_string(i));
        if (i == 0) {
          inner.block(gate);
        } else {
          inner.yield();
        }
        if (i == 2) inner.unblockAll(gate);
        order.push_back("i" + std::to_string(i + 10));
      });
    }
    EXPECT_TRUE(inner.run().isOk());
    inner_steps = inner.stepCount();
    ASSERT_NE(outer.current(), nullptr);
    EXPECT_EQ(outer.current()->index(), 0u);
    order.push_back("A1");
    outer.yield();
    order.push_back("A2");
  });
  outer.spawn([&] {
    order.push_back("B0");
    outer.yield();
    order.push_back("B1");
  });
  EXPECT_TRUE(outer.run().isOk());
  EXPECT_EQ(order, (std::vector<std::string>{"A0", "i0", "i1", "i2", "i11",
                                             "i12", "i10", "A1", "B0", "A2",
                                             "B1"}));
  EXPECT_EQ(inner_steps, 6u);
  EXPECT_EQ(outer.stepCount(), 4u);
}

}  // namespace
}  // namespace simtomp::fiber
