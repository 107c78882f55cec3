// Request mixes: the recorded workload format `simtomp serve` replays.
//
// A mix is a line-oriented script of tenant declarations, launch
// requests and scheduler steps:
//
//   # comment / blank lines ignored
//   tenant NAME priority=P inflight=I queued=Q [deadline=D] [retries=R]
//   req TENANT KERNEL trip=N simdlen=S [fault=SPEC] [deadline=D]
//   pump
//   drain
//
// deadline=D is a modeled-cycle budget (tenant default, or per-request
// override); retries=R caps re-dispatches after device loss. Both are
// omitted from canonical text when they hold their defaults, so mixes
// recorded before these keys existed render byte-identically. The
// parser is strict: unknown keys, malformed values and duplicate keys
// on one line are errors, so a typo cannot silently drop an SLO.
//
// KERNEL is one of the built-in regions (axpy, stencil, square) —
// small three-level kernels (teams / tiles / simd lanes) whose results
// are verifiable from the index alone. The same text replays to the
// same per-tenant statistics on any machine: generation is seeded
// (support/Rng), parsing is strict, and replay pins every fault spec
// (empty -> "off") so the SIMTOMP_FAULT environment cannot leak in.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "simserve/service.h"

namespace simtomp::simserve {

/// One mix script line (comments stripped).
struct MixOp {
  enum class Kind : uint8_t { kTenant, kRequest, kPump, kDrain };
  Kind kind = Kind::kRequest;
  // kTenant
  TenantSpec tenant;
  // kRequest
  std::string reqTenant;
  std::string kernel;
  uint64_t trip = 0;
  uint32_t simdlen = 1;
  std::string fault;  ///< SIMTOMP_FAULT grammar; "" = no fault ("off")
  /// Per-request deadline override (modeled cycles); the default
  /// inherits the tenant's deadline at submit time.
  uint64_t deadline = kInheritDeadline;
};

struct Mix {
  std::vector<MixOp> ops;

  [[nodiscard]] size_t requestCount() const;
  /// Canonical text form; parseMix(toString()) round-trips.
  [[nodiscard]] std::string toString() const;
};

/// Strict parser for the mix grammar (non-ok names the offending line).
[[nodiscard]] Result<Mix> parseMix(std::istream& in);
[[nodiscard]] Result<Mix> parseMixText(const std::string& text);

/// Knobs for the seeded generator.
struct MixProfile {
  uint64_t seed = 1;
  uint32_t tenants = 4;       ///< named t0..tN-1, priority 1 + (i % 4)
  uint32_t requests = 256;
  uint32_t pumpEvery = 64;    ///< insert pump/drain every N requests (0 = end only)
  uint32_t faultPermille = 0; ///< chance a request carries device_lost_post
  uint32_t maxInFlight = 64;
  uint32_t maxQueued = 1024;
};

/// Deterministic mix from the profile: same profile, same bytes.
[[nodiscard]] Mix generateMix(const MixProfile& profile);

/// What replayMix did (admission split, result verification).
struct ReplayReport {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shedAtSubmit = 0;
  uint64_t deadlineShed = 0;  ///< DEADLINE_EXCEEDED at admission
  uint64_t completed = 0;     ///< admitted requests that reached kDone
  uint64_t failed = 0;        ///< admitted requests that reached kFailed
  uint64_t verified = 0;
  uint64_t verifyFailures = 0;

  [[nodiscard]] std::string toString() const;
};

/// Watchdog step budget stamped on every request the mix replay and
/// the chaos campaign submit: generous, but a livelocking fault must
/// not hang a replay.
inline constexpr uint64_t kRequestWatchdogSteps = 2000000;

/// Drive a mix through a LaunchService: register tenants, submit
/// requests (building the named kernel regions), pump/drain where the
/// script says, then runToCompletion and verify every completed
/// request's output buffer. Non-ok when the service failed or a kernel
/// produced wrong values; shed requests are expected, not errors.
/// `hostWorkers` is stamped on every request config (0 = runtime auto).
[[nodiscard]] Result<ReplayReport> replayMix(LaunchService& service,
                                             const Mix& mix,
                                             uint32_t hostWorkers = 1);

/// The built-in kernel names, for tools that enumerate them.
[[nodiscard]] const std::vector<std::string>& mixKernelNames();

// The kernel oracle and region builder, exported for harnesses (the
// chaos campaign driver) that submit requests directly instead of
// through mix text. `kernel` indexes mixKernelNames().
/// The value kernel `kernel` writes at index i (closed form).
[[nodiscard]] uint64_t mixKernelValue(size_t kernel, uint64_t i);
/// Three-level region writing mixKernelValue(kernel, i) to (*out)[i]
/// for i < trip. `out` must have at least `trip` elements.
[[nodiscard]] omprt::TargetRegionFn makeMixRegion(
    size_t kernel, uint64_t trip, std::shared_ptr<std::vector<uint64_t>> out);

}  // namespace simtomp::simserve
