// Unit tests for the cooperative fiber scheduler.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <functional>
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
  int tag = 0;
  std::vector<int> order;
  // Two waiters and one releaser.
  for (int i = 0; i < 2; ++i) {
    sched.spawn([&, i] {
      sched.block(&tag);
      order.push_back(i);
    });
  }
  sched.spawn([&] {
    order.push_back(99);
    sched.unblockAll(&tag);
  });
  EXPECT_TRUE(sched.run().isOk());
  EXPECT_EQ(order, (std::vector<int>{99, 0, 1}));
}

TEST(FiberTest, DeadlockIsDetected) {
  FiberScheduler sched;
  int tag = 0;
  sched.spawn([&] { sched.block(&tag); });  // nobody ever unblocks
  const Status status = sched.run();
  ASSERT_FALSE(status.isOk());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("deadlock"), std::string::npos);
}

TEST(FiberTest, PartialDeadlockReportsBlockedCount) {
  FiberScheduler sched;
  int tag = 0;
  sched.spawn([&] { sched.block(&tag); });
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
  int tag = 0;
  constexpr int kRounds = 50;
  int counter = 0;
  sched.spawn([&] {
    for (int r = 0; r < kRounds; ++r) sched.block(&tag);
    counter += 1;
  });
  sched.spawn([&] {
    for (int r = 0; r < kRounds; ++r) {
      sched.unblockAll(&tag);
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
  int tag = 0;
  int arrived = 0;
  std::vector<int> after;
  for (int i = 0; i < n; ++i) {
    sched.spawn([&, i] {
      ++arrived;
      if (arrived == n) {
        sched.unblockAll(&tag);
      } else {
        sched.block(&tag);
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

}  // namespace
}  // namespace simtomp::fiber
