// Per-team (per-block) shared runtime state.
//
// Conceptually this lives in the block's shared memory on a real GPU;
// here it is a host object attached to the BlockEngine, and every
// device-side read/write of its fields is charged as a shared-memory
// access at the use site (the runtime code does the charging).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/arch.h"
#include "omprt/modes.h"
#include "omprt/sharing.h"

namespace simtomp::omprt {

/// What kind of simd work a group leader published. kLoop is the
/// paper's __simd_loop; kReduceAddF64 is our reduction extension
/// (paper section 7 future work).
enum class SimdWorkKind : uint8_t { kLoop, kReduceAddF64 };

/// Work descriptor one SIMD main publishes for its group's workers
/// (paper Figs. 4 and 6: setSimdFn / getSimdFn / getSimdArgs).
struct SimdGroupState {
  SimdWorkKind kind = SimdWorkKind::kLoop;
  void* simdFn = nullptr;  ///< nullptr = terminate signal
  uint64_t tripCount = 0;
  void** args = nullptr;
  uint32_t numArgs = 0;
};

struct TeamState {
  TeamState(ExecMode teams_mode, uint32_t num_worker_threads,
            uint32_t warp_size, bool arch_has_warp_barrier,
            std::unique_ptr<SharingSpace> sharing_space,
            ParallelConfig default_parallel = {},
            uint64_t default_schedule_chunk = 0,
            bool fast_path_enabled = false)
      : teamsMode(teams_mode),
        numWorkerThreads(num_worker_threads),
        mainThreadId(num_worker_threads),  // lane 0 of the extra warp
        warpSize(warp_size),
        archHasWarpBarrier(arch_has_warp_barrier),
        fastPathEnabled(fast_path_enabled),
        defaultParallel(default_parallel),
        defaultScheduleChunk(default_schedule_chunk),
        sharing(std::move(sharing_space)) {
    groups.resize(numWorkerThreads);  // enough for group size 1
    reduceScratch.resize(numWorkerThreads, 0.0);
  }

  // ---- Launch configuration (immutable during the kernel) ----
  const ExecMode teamsMode;
  /// Worker threads available to parallel regions. In generic teams
  /// mode the block additionally has one extra warp whose lane 0 is the
  /// team main thread (paper section 5.1 / Fig. 2).
  const uint32_t numWorkerThreads;
  const uint32_t mainThreadId;
  const uint32_t warpSize;
  const bool archHasWarpBarrier;
  /// Convergence fast path switch for this launch (resolved from
  /// TargetConfig::fastPath; always false for fault-armed launches).
  const bool fastPathEnabled;
  /// Launch-wide defaults a region-level ParallelConfig with auto
  /// fields (simdGroupSize == kSimdlenAuto, modeAuto) resolves against.
  /// Filled from TargetConfig::{parallelMode, simdlen} — i.e. from the
  /// tuner when the launch used auto fields. Never itself auto.
  const ParallelConfig defaultParallel;
  /// Launch-wide default chunk for scheduled worksharing loops whose
  /// clause leaves chunk 0 (0 = the runtime's own default of 1).
  const uint64_t defaultScheduleChunk;

  // ---- Parallel-region publication (teams generic mode) ----
  OutlinedFn parallelFn = nullptr;
  void** parallelArgs = nullptr;
  uint32_t parallelNumArgs = 0;
  ParallelConfig parallelConfig;
  bool terminate = false;

  // ---- SIMD group states (generic-SIMD mode) ----
  std::vector<SimdGroupState> groups;

  // ---- Dynamic-schedule work counter (conceptually in shared memory;
  //      accesses are charged at the use sites) ----
  std::atomic<uint64_t> dynamicCounter{0};

  // ---- Team reduction scratch (one slot per SIMD group) ----
  std::vector<double> reduceScratch;

  // ---- Critical-section lock state: the modeled release time of the
  //      last holder (entrants serialize their timelines on it) ----
  uint64_t criticalReleaseTime = 0;

  // ---- Variable sharing space (paper section 5.3.1) ----
  std::unique_ptr<SharingSpace> sharing;
};

}  // namespace simtomp::omprt
