// Unit tests for the device memory subsystem: free-list allocator,
// DeviceMemory, SharedMemory, and the typed span views.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <new>
#include <thread>
#include <vector>

#include "gpusim/arch.h"
#include "gpusim/block.h"
#include "gpusim/device.h"
#include "gpusim/memory.h"
#include "hostrt/device_manager.h"
#include "support/rng.h"

namespace simtomp::gpusim {
namespace {

TEST(FreeListAllocatorTest, BasicAllocateFree) {
  FreeListAllocator alloc(1024);
  auto a = alloc.allocate(100, 16);
  ASSERT_TRUE(a.isOk());
  EXPECT_EQ(a.value() % 16, 0u);
  EXPECT_EQ(alloc.bytesInUse(), 100u);
  EXPECT_TRUE(alloc.free(a.value()).isOk());
  EXPECT_EQ(alloc.bytesInUse(), 0u);
}

TEST(FreeListAllocatorTest, ZeroBytesRejected) {
  FreeListAllocator alloc(64);
  EXPECT_FALSE(alloc.allocate(0, 8).isOk());
}

TEST(FreeListAllocatorTest, BadAlignmentRejected) {
  FreeListAllocator alloc(64);
  EXPECT_FALSE(alloc.allocate(8, 3).isOk());
  EXPECT_FALSE(alloc.allocate(8, 0).isOk());
}

TEST(FreeListAllocatorTest, ExhaustionReported) {
  FreeListAllocator alloc(128);
  auto a = alloc.allocate(128, 1);
  ASSERT_TRUE(a.isOk());
  auto b = alloc.allocate(1, 1);
  ASSERT_FALSE(b.isOk());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
}

TEST(FreeListAllocatorTest, DoubleFreeDetected) {
  FreeListAllocator alloc(128);
  auto a = alloc.allocate(64, 8);
  ASSERT_TRUE(a.isOk());
  EXPECT_TRUE(alloc.free(a.value()).isOk());
  EXPECT_FALSE(alloc.free(a.value()).isOk());
}

TEST(FreeListAllocatorTest, UnknownFreeDetected) {
  FreeListAllocator alloc(128);
  EXPECT_FALSE(alloc.free(12).isOk());
}

TEST(FreeListAllocatorTest, CoalescingAllowsFullReuse) {
  FreeListAllocator alloc(256);
  std::vector<DevPtr> ptrs;
  for (int i = 0; i < 4; ++i) {
    auto p = alloc.allocate(64, 1);
    ASSERT_TRUE(p.isOk());
    ptrs.push_back(p.value());
  }
  // Free out of order; coalescing must restore one 256-byte block.
  EXPECT_TRUE(alloc.free(ptrs[1]).isOk());
  EXPECT_TRUE(alloc.free(ptrs[3]).isOk());
  EXPECT_TRUE(alloc.free(ptrs[0]).isOk());
  EXPECT_TRUE(alloc.free(ptrs[2]).isOk());
  auto big = alloc.allocate(256, 1);
  EXPECT_TRUE(big.isOk());
}

TEST(FreeListAllocatorTest, AlignmentPaddingIsReusable) {
  FreeListAllocator alloc(256);
  auto small = alloc.allocate(4, 1);  // offset 0
  ASSERT_TRUE(small.isOk());
  auto aligned = alloc.allocate(64, 64);  // must skip to offset 64
  ASSERT_TRUE(aligned.isOk());
  EXPECT_EQ(aligned.value() % 64, 0u);
  // The padding gap [4,64) must still be allocatable.
  auto gap = alloc.allocate(32, 4);
  ASSERT_TRUE(gap.isOk());
  EXPECT_LT(gap.value(), 64u);
}

/// Property: randomized allocate/free churn never corrupts bookkeeping
/// and always recovers the full arena.
class AllocatorChurnProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorChurnProperty, ChurnAndRecover) {
  FreeListAllocator alloc(1 << 16);
  Rng rng(GetParam());
  std::vector<DevPtr> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.nextBelow(2) == 0) {
      const size_t bytes = 1 + rng.nextBelow(512);
      const size_t align = size_t{1} << rng.nextBelow(7);
      auto p = alloc.allocate(bytes, align);
      if (p.isOk()) {
        EXPECT_EQ(p.value() % align, 0u);
        live.push_back(p.value());
      }
    } else {
      const size_t idx = rng.nextBelow(live.size());
      EXPECT_TRUE(alloc.free(live[idx]).isOk());
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (DevPtr p : live) EXPECT_TRUE(alloc.free(p).isOk());
  EXPECT_EQ(alloc.bytesInUse(), 0u);
  EXPECT_EQ(alloc.liveAllocations(), 0u);
  auto full = alloc.allocate(1 << 16, 1);
  EXPECT_TRUE(full.isOk());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorChurnProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(DeviceMemoryTest, RawAccessRoundTrips) {
  DeviceMemory mem(4096);
  auto p = mem.allocate(sizeof(double) * 4, alignof(double));
  ASSERT_TRUE(p.isOk());
  auto* d = reinterpret_cast<double*>(mem.raw(p.value()));
  d[0] = 1.5;
  d[3] = -2.5;
  EXPECT_EQ(reinterpret_cast<const double*>(mem.raw(p.value()))[0], 1.5);
  EXPECT_EQ(reinterpret_cast<const double*>(mem.raw(p.value()))[3], -2.5);
}

TEST(DeviceMemoryTest, TracksUsage) {
  DeviceMemory mem(4096);
  EXPECT_EQ(mem.bytesInUse(), 0u);
  auto a = mem.allocate(128);
  auto b = mem.allocate(256);
  ASSERT_TRUE(a.isOk());
  ASSERT_TRUE(b.isOk());
  EXPECT_EQ(mem.bytesInUse(), 384u);
  EXPECT_EQ(mem.liveAllocations(), 2u);
  EXPECT_TRUE(mem.free(a.value()).isOk());
  EXPECT_EQ(mem.bytesInUse(), 256u);
}

TEST(DeviceMemoryTest, FreshArenaReadsZeroAtBothEnds) {
  DeviceMemory mem(Device::kDefaultGlobalMem);
  EXPECT_EQ(*mem.raw(0), std::byte{0});
  EXPECT_EQ(*mem.raw(mem.capacity() - 1), std::byte{0});

  // First fit: the second allocation starts mid-arena.
  auto low = mem.allocate(mem.capacity() / 2, 16);
  auto mid = mem.allocate(4096, 16);
  ASSERT_TRUE(low.isOk());
  ASSERT_TRUE(mid.isOk());
  EXPECT_EQ(mid.value(), mem.capacity() / 2);
  std::byte* bytes = mem.raw(mid.value());
  for (size_t i = 0; i < 4096; ++i) {
    ASSERT_EQ(bytes[i], std::byte{0}) << "byte " << i;
  }

  // Freed memory is not scrubbed: a re-allocation at the same offset
  // sees what was written before the free.
  bytes[0] = std::byte{0x5a};
  bytes[4095] = std::byte{0xa5};
  ASSERT_TRUE(mem.free(mid.value()).isOk());
  auto again = mem.allocate(4096, 16);
  ASSERT_TRUE(again.isOk());
  ASSERT_EQ(again.value(), mid.value());
  EXPECT_EQ(mem.raw(again.value())[0], std::byte{0x5a});
  EXPECT_EQ(mem.raw(again.value())[4095], std::byte{0xa5});
}

TEST(DeviceMemoryTest, OverrunPastArenaEndFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMemory mem(1 << 20);
  EXPECT_DEATH(
      { *reinterpret_cast<volatile std::byte*>(mem.raw(mem.capacity())) =
            std::byte{1}; },
      "");
}

TEST(DeviceMemoryTest, UnderrunBeforeArenaStartFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMemory mem(1 << 20);
  EXPECT_DEATH(
      { *reinterpret_cast<volatile std::byte*>(mem.raw(0) - 1) =
            std::byte{1}; },
      "");
}

TEST(DeviceMemoryTest, ImpossibleArenaThrowsBadAlloc) {
  EXPECT_THROW(DeviceMemory(1ull << 50), std::bad_alloc);
}

TEST(SharedMemoryTest, AllocateFreeReuse) {
  SharedMemory shared(1024);
  std::byte* a = shared.allocate(512, 16);
  ASSERT_NE(a, nullptr);
  std::byte* b = shared.allocate(512, 16);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(shared.allocate(16, 16), nullptr);  // full
  EXPECT_TRUE(shared.free(a).isOk());
  std::byte* c = shared.allocate(256, 16);
  EXPECT_NE(c, nullptr);
  EXPECT_TRUE(shared.free(b).isOk());
  EXPECT_TRUE(shared.free(c).isOk());
  EXPECT_EQ(shared.used(), 0u);
}

TEST(SharedMemoryTest, ForeignPointerRejected) {
  SharedMemory shared(256);
  std::byte local;
  EXPECT_FALSE(shared.free(&local).isOk());
}

// ---- Typed spans charge the cost model ----

class SpanChargingTest : public ::testing::Test {
 protected:
  SpanChargingTest()
      : arch_(ArchSpec::testTiny()),
        mem_(1 << 20),
        block_(arch_, cost_, mem_, 0, 1, 32) {}

  ArchSpec arch_;
  CostModel cost_;
  DeviceMemory mem_;
  BlockEngine block_;
};

TEST_F(SpanChargingTest, GlobalGetChargesGlobalLoad) {
  double storage[4] = {1, 2, 3, 4};
  GlobalSpan<double> span(storage, 4);
  uint64_t cycles = 0;
  uint64_t loads = 0;
  block_.scheduler().spawn([&] {
    ThreadCtx& t = block_.thread(0);
    EXPECT_EQ(span.get(t, 2), 3.0);
    cycles = t.busy();
    loads = t.counters().get(Counter::kGlobalLoad);
  });
  // Run only thread 0's fiber through a direct scheduler run.
  ASSERT_TRUE(block_.scheduler().run().isOk());
  EXPECT_EQ(cycles, cost_.globalAccess);
  EXPECT_EQ(loads, 1u);
}

TEST_F(SpanChargingTest, GlobalSetAndAtomicCharge) {
  double storage[2] = {0, 0};
  GlobalSpan<double> span(storage, 2);
  block_.scheduler().spawn([&] {
    ThreadCtx& t = block_.thread(0);
    span.set(t, 0, 5.0);
    EXPECT_EQ(span.atomicAdd(t, 0, 2.0), 5.0);
    EXPECT_EQ(span.raw(0), 7.0);
    EXPECT_EQ(t.counters().get(Counter::kGlobalStore), 1u);
    EXPECT_EQ(t.counters().get(Counter::kAtomicRmw), 1u);
    EXPECT_EQ(t.busy(), cost_.globalAccess + cost_.atomicRmw);
  });
  ASSERT_TRUE(block_.scheduler().run().isOk());
}

TEST_F(SpanChargingTest, SharedSpanCharges) {
  double storage[2] = {0, 0};
  SharedSpan<double> span(storage, 2);
  block_.scheduler().spawn([&] {
    ThreadCtx& t = block_.thread(0);
    span.set(t, 1, 9.0);
    EXPECT_EQ(span.get(t, 1), 9.0);
    EXPECT_EQ(t.counters().get(Counter::kSharedStore), 1u);
    EXPECT_EQ(t.counters().get(Counter::kSharedLoad), 1u);
    EXPECT_EQ(t.busy(), 2 * cost_.sharedAccess);
  });
  ASSERT_TRUE(block_.scheduler().run().isOk());
}

TEST(GlobalSpanTest, SubspanViewsSameStorage) {
  double storage[8] = {};
  GlobalSpan<double> span(storage, 8);
  auto sub = span.subspan(2, 4);
  EXPECT_EQ(sub.size(), 4u);
  sub.raw(0) = 42.0;
  EXPECT_EQ(storage[2], 42.0);
}

TEST(DeviceTest, AllocateArrayReturnsTypedView) {
  Device dev(ArchSpec::testTiny(), CostModel{}, 1 << 20);
  auto arr = dev.allocateArray<uint32_t>(100);
  ASSERT_TRUE(arr.isOk());
  EXPECT_EQ(arr.value().size(), 100u);
  arr.value().raw(99) = 7;
  EXPECT_EQ(arr.value().raw(99), 7u);
  EXPECT_TRUE(dev.freeArray(arr.value().data()).isOk());
  EXPECT_EQ(dev.memory().bytesInUse(), 0u);
}

long minorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(DeviceTest, ConstructionCommitsNoArenaPages) {
  const auto constructAll = [] {
    Device dev;
    hostrt::DeviceManager manager(
        std::vector<ArchSpec>(4, ArchSpec::nvidiaA100()));
    EXPECT_EQ(dev.memory().capacity(), Device::kDefaultGlobalMem);
    EXPECT_EQ(manager.numDevices(), 4u);
  };
  constructAll();  // warm up: code pages, heap, worker threads
  const long before = minorFaults();
  constructAll();
  // A zero-filled arena takes one fault per page: 131072 per device
  // with 4 KiB pages. Allow 1% of the five arenas' pages, which covers
  // what a sanitizer runtime faults in for the manager's threads (about
  // 1.2k under TSan).
  const long arena_pages =
      static_cast<long>(Device::kDefaultGlobalMem) / sysconf(_SC_PAGESIZE);
  EXPECT_LT(minorFaults() - before, 5 * arena_pages / 100);
}

TEST(DeviceMemoryTest, ConcurrentAllocFreeStress) {
  // Host-parallel block execution allocates from the device allocator
  // on multiple threads (SharingSpace overflow, user allocations).
  // Hammer allocate/free from 8 threads; accounting must balance and
  // the free list must survive intact.
  DeviceMemory memory(1 << 22);
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      std::vector<DevPtr> mine;
      for (int round = 0; round < kRounds; ++round) {
        const size_t bytes = 64 + 32 * ((tid + round) % 13);
        auto ptr = memory.allocate(bytes, 16);
        if (!ptr.isOk()) {
          failures++;
          continue;
        }
        mine.push_back(ptr.value());
        // Free in a staggered pattern so frees interleave with other
        // threads' allocations (exercises coalescing under the lock).
        if (mine.size() > 4) {
          if (!memory.free(mine.front()).isOk()) failures++;
          mine.erase(mine.begin());
        }
      }
      for (DevPtr p : mine) {
        if (!memory.free(p).isOk()) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(memory.bytesInUse(), 0u);
  EXPECT_EQ(memory.liveAllocations(), 0u);
}

TEST(DeviceMemoryTest, ConcurrentAtomicAddLosesNoUpdates) {
  // GlobalSpan::atomicAdd is the only write path concurrent blocks
  // share; contended fetch-adds from raw host threads must all land.
  DeviceMemory memory(1 << 16);
  auto ptr = memory.allocate(sizeof(uint64_t) * 4, 16);
  ASSERT_TRUE(ptr.isOk());
  auto* cells = reinterpret_cast<uint64_t*>(memory.raw(ptr.value()));
  for (int i = 0; i < 4; ++i) cells[i] = 0;

  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) {
        std::atomic_ref<uint64_t>(cells[tid % 4]).fetch_add(
            1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cells[i], 2 * kAddsPerThread) << "cell " << i;
  }
  ASSERT_TRUE(memory.free(ptr.value()).isOk());
}

}  // namespace
}  // namespace simtomp::gpusim
