#include "omprt/target.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "omprt/runtime.h"
#include "support/log.h"

namespace simtomp::omprt {

bool hasAutoLaunchFields(const TargetConfig& config) {
  return config.numTeams == 0 || config.threadsPerTeam == 0 ||
         config.simdlen == 0 || config.teamsModeAuto ||
         config.parallelModeAuto;
}

void resolveAutoConfig(const gpusim::ArchSpec& arch, TargetConfig& config) {
  // Mode placeholders become the modes: the value riding the auto flag
  // is itself the heuristic fallback (e.g. the front-end's
  // tightly-nested => SPMD inference).
  config.teamsModeAuto = false;
  config.parallelModeAuto = false;
  if (config.numTeams == 0) config.numTeams = arch.numSMs;
  if (config.threadsPerTeam == 0) {
    const uint32_t reserve =
        config.teamsMode == ExecMode::kGeneric ? arch.warpSize : 0;
    uint32_t threads = std::min(128u, arch.maxThreadsPerBlock - reserve);
    threads -= threads % arch.warpSize;  // launch layer needs a multiple
    config.threadsPerTeam = std::max(threads, arch.warpSize);
  }
  if (config.simdlen == 0) config.simdlen = 1;
}

Status TargetConfig::validate(const gpusim::ArchSpec& arch) const {
  if (numTeams == 0) {
    return Status::invalidArgument("numTeams must be positive");
  }
  if (threadsPerTeam == 0 || threadsPerTeam % arch.warpSize != 0) {
    return Status::invalidArgument(
        "threadsPerTeam must be a positive multiple of the warp size");
  }
  const uint32_t block_threads =
      threadsPerTeam +
      (teamsMode == ExecMode::kGeneric ? arch.warpSize : 0);
  if (block_threads > arch.maxThreadsPerBlock) {
    return Status::invalidArgument(
        "threadsPerTeam (plus the generic-mode main warp) exceeds "
        "maxThreadsPerBlock");
  }
  return Status::ok();
}

Result<gpusim::KernelStats> launchTarget(gpusim::Device& device,
                                         const TargetConfig& requested,
                                         const TargetRegionFn& region) {
  // Fill any remaining auto fields heuristically. Tuner-aware
  // resolution (hostrt::DeviceManager) happens before this call; a
  // direct launchTarget with auto fields still gets sane defaults.
  TargetConfig config = requested;
  resolveAutoConfig(device.arch(), config);

  const Status valid = config.validate(device.arch());
  if (!valid.isOk()) return valid;

  gpusim::LaunchConfig launch;
  launch.numBlocks = config.numTeams;
  launch.threadsPerBlock =
      config.threadsPerTeam +
      (config.teamsMode == ExecMode::kGeneric ? device.arch().warpSize : 0);
  static_cast<gpusim::LaunchOptions&>(launch) =
      gpusim::resolveLaunchOptions(config);
  // when=simd fault plans key off the *effective* launch shape, so the
  // generic-mode fallback (simdlen 1) genuinely escapes them.
  launch.fault.simdActive = config.simdlen > 1;

  // Launch-wide defaults for region-level auto fields; never auto
  // themselves (resolveAutoConfig ran above).
  const ParallelConfig default_parallel{config.parallelMode, config.simdlen,
                                        /*modeAuto=*/false};

  const bool fast_path = launch.fastPath == FastPathMode::kOn;

  // Each block's TeamState lives in that block's arena, dying with the
  // engine: no per-launch state vector, and under host-parallel
  // execution every worker touches only its own block's memory.
  const gpusim::BlockSetupHook setup = [&](gpusim::BlockEngine& engine) {
    auto sharing = std::make_unique<SharingSpace>(
        engine.sharedMemory(), engine.globalMemory(),
        config.sharingSpaceBytes, config.threadsPerTeam);
    TeamState* state = engine.arena().createOwned<TeamState>(
        config.teamsMode, config.threadsPerTeam, device.arch().warpSize,
        device.arch().hasWarpLevelBarrier, std::move(sharing),
        default_parallel, config.scheduleChunk,
        fast_path && !engine.hasArmedFault());
    engine.setUserState(state);
  };

  const gpusim::Kernel kernel = [&region](gpusim::ThreadCtx& t) {
    auto* ts = static_cast<TeamState*>(t.block().userState());
    SIMTOMP_CHECK(ts != nullptr, "kernel launched without a TeamState");
    OmpContext ctx(t, *ts);
    if (rt::targetInit(ctx) == ThreadKind::kTerminated) return;
    region(ctx);
    rt::targetDeinit(ctx);
  };

  return device.launch(launch, kernel, setup);
}

}  // namespace simtomp::omprt
