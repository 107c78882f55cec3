// simfault: deterministic fault injection for the simulator.
//
// Production GPU runtimes fail in ways a clean simulator never does:
// kernels trap mid-flight, devices drop off the bus, warp-level
// synchronization corrupts, and the sharing space runs dry under load.
// This subsystem makes those failures *reproducible*: a FaultPlan
// (parsed from the SIMTOMP_FAULT env var, a fault(...) directive
// clause, or explicit LaunchSpec plumbing — mirroring how check/tune
// are wired) names the site, block and step at which each fault fires,
// and armLaunch turns it into the faults of one launch attempt at
// launch entry. Arming is a pure function of the plan, the attempt
// number and the launch shape — no device keeps a ledger of what has
// fired — so the same plan produces the same failures for any
// SIMTOMP_HOST_WORKERS value, shard count or launch order.
//
// Like simcheck, the subsystem sits *below* gpusim in the build: it
// depends only on simtomp_support, and its arming API speaks plain
// integers, so gpusim/omprt/hostrt can all link it without a cycle.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace simtomp::simfault {

/// Named fault sites, in canonical plan order.
enum class FaultKind : uint8_t {
  kDeviceLostPre = 0,  ///< transient "device lost" before the launch starts
  kDeviceLostPost,     ///< transient "device lost" after blocks finished
  kTrap,               ///< kernel trap at scheduler step N inside a block
  kLivelock,           ///< barrier arrival spins forever (stays runnable)
  kBarrierCorrupt,     ///< barrier arrival dropped; the sync never releases
  kSharingExhausted,   ///< next sharing-space begin reports exhaustion
};
inline constexpr size_t kNumFaultKinds = 6;

/// Predicate restricting when a fault fires.
enum class FaultWhen : uint8_t {
  kAny = 0,  ///< fire regardless of launch shape
  kSimd,     ///< fire only when the launch runs with simdlen > 1
};

[[nodiscard]] std::string_view faultKindName(FaultKind kind);
[[nodiscard]] std::string_view faultWhenName(FaultWhen when);

/// One entry of a fault plan. `step` is the 1-based occurrence of the
/// site event at which the fault fires (scheduler step for kTrap,
/// barrier arrival for kLivelock/kBarrierCorrupt, sharing begin for
/// kSharingExhausted; ignored for the device-lost kinds). `count` and
/// `after` count the attempts of one launch (attempt 0 is the launch
/// itself, later ones its recovery chain's retries): the spec arms on
/// attempts [after, after + count), or on every attempt from `after`
/// on when count is 0. That is what makes a count=1 device-lost
/// transient: the retry arms nothing and succeeds.
struct FaultSpec {
  FaultKind kind = FaultKind::kTrap;
  FaultWhen when = FaultWhen::kAny;
  uint32_t block = 0;
  uint64_t step = 1;
  uint32_t count = 1;
  uint32_t after = 0;

  /// Canonical "kind:key=value:..." text (stable key order; defaults
  /// omitted).
  [[nodiscard]] std::string canonical() const;
};

/// A parsed plan: zero or more specs, plus whether the text was the
/// explicit "off"/"none" sentinel (which suppresses the env fallback —
/// the host-serial recovery stage uses it to strip faults).
struct FaultPlan {
  std::vector<FaultSpec> faults;
  bool explicitOff = false;

  [[nodiscard]] bool empty() const { return faults.empty(); }
  [[nodiscard]] std::string canonical() const;

  /// Parse "kind[:key=value]...[;kind...]" (see docs/FAULTS.md).
  /// Empty, "off" and "none" parse to an empty plan.
  static Result<FaultPlan> parse(std::string_view text);
};

/// Per-launch fault request; rides gpusim::LaunchOptions the same way
/// CheckConfig does. `spec` empty means auto: gpusim's knob resolver
/// consults SIMTOMP_FAULT. The other two fields are filled at runtime,
/// never by a knob: `simdActive` by the launch layer (omprt) so when=simd
/// predicates can be evaluated at arm time, and `attempt` by the
/// recovery chain (hostrt::DeviceManager) with the number of attempts
/// the launch has already made (0 = the first).
struct FaultConfig {
  std::string spec;
  bool simdActive = false;
  uint32_t attempt = 0;
};

/// Sentinel: watchdog explicitly disabled on the launch config.
inline constexpr uint64_t kWatchdogOff = UINT64_MAX;
/// Default per-block step budget when the watchdog resolves to auto:
/// far above any legitimate kernel in this repo (the largest bench
/// block runs ~2e5 scheduler steps) yet cheap to hit in a livelock.
inline constexpr uint64_t kDefaultWatchdogSteps = uint64_t{1} << 26;

/// Faults armed for one specific block of one launch attempt. The
/// BlockEngine holds a pointer to this for the duration of the block,
/// so LaunchArm keeps the storage stable.
struct BlockFaultArm {
  bool trap = false;
  uint64_t trapStep = 1;
  bool livelock = false;
  uint64_t livelockArrival = 1;
  bool barrierCorrupt = false;
  uint64_t corruptArrival = 1;
  bool sharingExhausted = false;
  uint64_t sharingBegin = 1;

  [[nodiscard]] bool any() const {
    return trap || livelock || barrierCorrupt || sharingExhausted;
  }
};

/// Everything armed for one launch attempt, produced by armLaunch.
struct LaunchArm {
  bool lostPre = false;
  bool lostPost = false;
  /// Sorted by block id; storage is stable for the launch's lifetime.
  std::vector<std::pair<uint32_t, BlockFaultArm>> blockFaults;

  [[nodiscard]] const BlockFaultArm* forBlock(uint32_t block) const;
  [[nodiscard]] bool anything() const {
    return lostPre || lostPost || !blockFaults.empty();
  }
};

/// Arm `config` for attempt `config.attempt` of a `numBlocks`-block
/// launch. `config.spec` is taken as resolved: "" arms nothing. Returns
/// the armed faults, or kInvalidArgument for an unparsable plan. Runs
/// on the launching thread, never from block workers.
Result<LaunchArm> armLaunch(const FaultConfig& config, uint32_t numBlocks);

}  // namespace simtomp::simfault
