// simfault: resilience policy and report types.
//
// hostrt::DeviceManager uses these to drive the graceful-degradation
// chain — retry the same shape (with capped exponential backoff for
// transient faults), fall back from SIMD to the generic parallel mode,
// and finally run a host-serial reference execution — and to publish
// what happened as a per-device ResilienceReport, the same way
// Device::lastCheckReport() publishes simcheck findings.
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
  kQuarantined,  ///< circuit breaker opened; no traffic until cool-down
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

/// Knobs of the degradation chain.
struct ResiliencePolicy {
  uint32_t maxRetries = 2;     ///< same-shape retries after the initial try
  uint32_t backoffBaseMs = 1;  ///< modeled delay before retry 1
  uint32_t backoffCapMs = 64;  ///< modeled exponential backoff cap
  bool modeFallback = true;    ///< allow SIMD -> generic fallback
  bool hostSerial = true;      ///< allow the host-serial reference rung
};

/// The modeled capped-exponential-backoff schedule every retry path in
/// the repo shares: min(base << (attempt - 1), cap) for attempt >= 1
/// (attempt 0 returns 0 — the initial try never waits). The shift
/// saturates at the cap instead of overflowing, so any attempt count
/// is safe. Units are the caller's (ms for the device-manager chain,
/// modeled cycles for simserve re-dispatch).
[[nodiscard]] uint64_t cappedExponentialBackoff(uint64_t base, uint64_t cap,
                                                uint32_t attempt);

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
