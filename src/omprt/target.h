// Target-region launch: the host-facing entry of the device runtime.
//
// launchTarget configures a kernel the way LLVM's OpenMP offloading
// does: in generic teams mode the block gets one extra warp to host the
// team main thread (paper Fig. 2 / [17]); in SPMD mode every thread of
// the block is a worker. Every device thread starts in __target_init
// and the user's target-region code runs according to the execution
// contract of paper section 5.2.
#pragma once

#include <functional>
#include <string>

#include "gpusim/device.h"
#include "omprt/context.h"
#include "omprt/convergence.h"
#include "omprt/modes.h"
#include "support/status.h"

namespace simtomp::omprt {

/// Default size of the variable sharing space; the paper grew LLVM's
/// 1,024 bytes to 2,048 to accommodate SIMD groups (section 5.3.1).
inline constexpr uint32_t kDefaultSharingSpaceBytes = 2048;

/// A target region's launch shape plus the per-launch host knobs
/// (gpusim::LaunchOptions: hostWorkers, check, fault, watchdogSteps,
/// profile, fastPath), which launchTarget hands to the device.
struct TargetConfig : gpusim::LaunchOptions {
  ExecMode teamsMode = ExecMode::kSPMD;
  /// When true, teamsMode is a placeholder the launch path may replace
  /// (tuner entry, else the SPMD heuristic). Explicit modes always win.
  bool teamsModeAuto = false;
  /// Number of teams; 0 = auto (tuner entry, else one per SM).
  uint32_t numTeams = 1;
  /// Worker threads per team; must be a positive multiple of warpSize.
  /// Generic teams mode adds one extra warp for the team main thread.
  /// 0 = auto (tuner entry, else 128 clipped to the architecture).
  uint32_t threadsPerTeam = 128;
  /// Launch-wide default SIMD group size: what a region-level
  /// ParallelConfig with simdGroupSize == kSimdlenAuto resolves to.
  /// 0 = auto (tuner entry, else 1 — today's LLVM/OpenMP behaviour).
  uint32_t simdlen = 1;
  /// Launch-wide default parallel-region mode (used by regions whose
  /// ParallelConfig sets modeAuto).
  ExecMode parallelMode = ExecMode::kSPMD;
  /// When true, parallelMode may be replaced by the launch path.
  bool parallelModeAuto = false;
  /// Launch-wide default chunk for scheduled worksharing loops whose
  /// schedule clause leaves chunk 0 (0 = runtime default).
  uint64_t scheduleChunk = 0;
  uint32_t sharingSpaceBytes = kDefaultSharingSpaceBytes;
  /// Stable kernel identity for the simtune cache ("" = not tunable;
  /// auto fields then resolve heuristically). DeviceManager consults
  /// its default tuner and the SIMTOMP_TUNE knob for launches that
  /// carry a key + auto fields.
  std::string tuneKey;
  /// Trip-count hint for the tuning-cache bucket (0 = unknown). The
  /// dsl target helpers fill this with the distribute trip count.
  uint64_t tripCount = 0;

  [[nodiscard]] Status validate(const gpusim::ArchSpec& arch) const;
};

/// True when any launch-shape field is still auto (needs resolution).
[[nodiscard]] bool hasAutoLaunchFields(const TargetConfig& config);

/// Fill every auto launch-shape field with the static heuristic
/// defaults (numTeams: one per SM; threadsPerTeam: 128 clipped to the
/// architecture; simdlen: 1; modes: the placeholder value riding the
/// auto flag) and clear the auto flags. The tuner-aware resolution in
/// hostrt::DeviceManager runs *before* this, so heuristics only apply
/// where no cache entry decided.
void resolveAutoConfig(const gpusim::ArchSpec& arch, TargetConfig& config);

/// The target-region user code. Executed by the team main thread only
/// (generic teams mode) or by every thread (SPMD teams mode).
using TargetRegionFn = std::function<void(OmpContext&)>;

/// Launch a target region on the simulated device.
Result<gpusim::KernelStats> launchTarget(gpusim::Device& device,
                                         const TargetConfig& config,
                                         const TargetRegionFn& region);

}  // namespace simtomp::omprt
