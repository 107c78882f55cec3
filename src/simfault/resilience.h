// simfault: resilience policy and report types.
//
// hostrt::DeviceManager uses these to drive the graceful-degradation
// chain — retry the same shape (with capped exponential backoff for
// transient faults), fall back from SIMD to the generic parallel mode,
// and finally run a host-serial reference execution — and to publish
// what happened as a per-device ResilienceReport, the same way
// Device::lastCheckReport() publishes simcheck findings.
//
// decideRetry() is the one retry rule: simserve's re-dispatch asks it
// too, supplying only its own budget and backoff schedule.
//
// Everything here is deterministic by construction: backoff delays are
// *modeled* (recorded in the report, never slept on wall-clock), shape
// strings exclude the host worker count, and attempts are recorded in
// the order the manager made them — so the same fault plan yields
// byte-identical reports for any SIMTOMP_HOST_WORKERS.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace simtomp::simfault {

/// Device health as seen by the DeviceManager's state machine.
enum class DeviceHealth : uint8_t {
  kHealthy = 0,  ///< no fault observed since the last reset
  kFaulted,      ///< last launch failed; reset required before reuse
  kReset,        ///< reset completed; next successful launch -> healthy
};

/// Which rung of the degradation chain produced a launch attempt.
enum class RecoveryStage : uint8_t {
  kInitial = 0,   ///< the originally requested shape
  kRetry,         ///< same shape again after a device reset + backoff
  kModeFallback,  ///< SIMD -> generic parallel mode, simdlen 1
  kHostSerial,    ///< host-serial reference execution (1 team, 1 warp)
};

/// Whether the manager runs the resilient launch path at all.
enum class ResilienceMode : uint8_t {
  kAuto = 0,  ///< resolve from SIMTOMP_RESILIENCE (default: on)
  kOff,       ///< plain launch; failures surface directly
  kOn,        ///< retry / fallback chain per ResiliencePolicy
};

[[nodiscard]] std::string_view deviceHealthName(DeviceHealth health);
[[nodiscard]] std::string_view recoveryStageName(RecoveryStage stage);

/// Knobs of the degradation chain (retry backoff: kResilienceBackoffMs).
struct ResiliencePolicy {
  uint32_t maxRetries = 2;   ///< same-shape retries after the initial try
  bool modeFallback = true;  ///< allow SIMD -> generic fallback
  bool hostSerial = true;    ///< allow the host-serial reference rung
};

/// Capped exponential backoff: retry n (n >= 1) waits
/// min(base << (n - 1), cap), modeled in the caller's units.
struct BackoffSchedule {
  uint64_t base = 0;
  uint64_t cap = 0;
};

/// The retry rung's schedule in modeled ms (the report's `backoff=Nms`).
inline constexpr BackoffSchedule kResilienceBackoffMs{1, 64};

/// decideRetry's answer for one failed attempt.
enum class RetryVerdict : uint8_t {
  kPermanent = 0,  ///< the failure reproduces deterministically
  kRetry,          ///< transient and within budget: retry after backoff
  kExhausted,      ///< transient, but the retry budget is spent
};

struct RetryDecision {
  RetryVerdict verdict = RetryVerdict::kPermanent;
  uint64_t backoff = 0;  ///< modeled delay before the retry (kRetry only)
};

/// The one retry rule: may retry number `retry` (>= 1) of a failure
/// with `code` run, and after what modeled delay? Only UNAVAILABLE (a
/// lost device) is transient: a trap, deadline or exhaustion reproduces
/// deterministically. A transient failure is retried while
/// `retry <= budget`; the backoff saturates at the cap for any `retry`.
[[nodiscard]] RetryDecision decideRetry(StatusCode code, uint32_t retry,
                                        uint32_t budget,
                                        BackoffSchedule schedule);

/// One launch attempt in the chain, as recorded in the report.
struct AttemptRecord {
  RecoveryStage stage = RecoveryStage::kInitial;
  std::string shape;      ///< deterministic shape text (no worker count)
  StatusCode code = StatusCode::kOk;
  std::string message;    ///< status message when the attempt failed
  uint32_t backoffMs = 0; ///< modeled delay taken before this attempt

  [[nodiscard]] std::string toString() const;
};

/// Per-launch resilience outcome, published by the DeviceManager like
/// lastCheckReport(). toString() is the byte-identity surface CI diffs.
struct ResilienceReport {
  std::vector<AttemptRecord> attempts;
  uint32_t resets = 0;      ///< device resets performed during the chain
  bool recovered = false;   ///< succeeded after at least one failure
  std::string healthTrail;  ///< e.g. "healthy>faulted>reset>healthy"
  StatusCode finalCode = StatusCode::kOk;
  std::string finalMessage;

  [[nodiscard]] bool succeeded() const {
    return finalCode == StatusCode::kOk;
  }
  [[nodiscard]] std::string toString() const;
};

}  // namespace simtomp::simfault
