// Event counters and kernel statistics.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "gpusim/occupancy.h"

namespace simtomp::gpusim {

enum class Counter : uint8_t {
  kAluWork = 0,
  kGlobalLoad,
  kGlobalStore,
  kSharedLoad,
  kSharedStore,
  kLocalAccess,
  kAtomicRmw,
  kWarpSync,
  kBlockSync,
  kStatePoll,
  kPayloadArgCopy,
  kDispatchCascade,
  kDispatchIndirect,
  kShuffle,
  kGlobalAlloc,
  kSharingSpaceOverflow,
  kParallelRegion,
  kSimdLoop,
  kWorkshareLoop,
  kSimdLaneRounds,      ///< lanes x rounds a simd loop occupied
  kSimdIdleLaneRounds,  ///< of those, lane-rounds with no iteration
  kCount  // sentinel
};

inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);

std::string_view counterName(Counter c);
/// One-line description for `simtomp info counters` (same table the
/// profiler/metrics surfaces render from, so names cannot drift).
std::string_view counterDescription(Counter c);
/// Inverse of counterName; returns kCount for unknown names.
Counter counterFromName(std::string_view name);

/// Dense counter set; cheap to merge.
struct CounterSet {
  std::array<uint64_t, kNumCounters> values{};

  void add(Counter c, uint64_t n = 1) {
    values[static_cast<size_t>(c)] += n;
  }
  [[nodiscard]] uint64_t get(Counter c) const {
    return values[static_cast<size_t>(c)];
  }
  void merge(const CounterSet& other) {
    for (size_t i = 0; i < kNumCounters; ++i) values[i] += other.values[i];
  }
};

/// Result of one simulated kernel launch.
struct KernelStats {
  /// Modeled end-to-end kernel time (simulator cycles).
  uint64_t cycles = 0;
  /// Sum over all threads of charged (busy) cycles, ignoring idling.
  uint64_t busyCycles = 0;
  /// Longest single-thread timeline within any block.
  uint64_t maxThreadCycles = 0;
  uint32_t numBlocks = 0;
  uint32_t threadsPerBlock = 0;
  /// Number of scheduling waves over the SMs.
  uint32_t waves = 0;
  /// Peak shared-memory bytes any block used.
  uint64_t peakSharedBytes = 0;
  /// Theoretical occupancy at the observed shared-memory usage.
  OccupancyInfo occupancy;
  CounterSet counters;

  [[nodiscard]] std::string summary() const;

  /// One CSV header + row (every counter, even zero ones) for bench
  /// post-processing.
  [[nodiscard]] static std::string csvHeader();
  [[nodiscard]] std::string csvRow() const;

  /// JSON object with every scalar field and every counter (by name,
  /// even zero ones), deterministic key order.
  [[nodiscard]] std::string toJson() const;
};

}  // namespace simtomp::gpusim
