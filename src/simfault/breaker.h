// simfault: a deterministic per-device circuit breaker.
//
// Layered on the DeviceHealth machine: a device whose launches keep
// failing (each failure is a *trip*) should stop receiving work for a
// while instead of burning a reset + re-dispatch per wave. The breaker
// follows the classic three-state protocol —
//
//   kClosed    traffic flows; trips accumulate in a sliding window
//   kOpen      tripThreshold trips landed within kBreakerWindowEpochs:
//              the device is quarantined until cooldownEpochs elapse
//   kHalfOpen  cool-down over: the device takes traffic again, and the
//              first completed launch decides (ok -> kClosed, another
//              trip -> kOpen with a fresh cool-down)
//
// — except that *time is logical*: the clock is an epoch counter the
// caller advances (simserve counts drain() completions), never
// wall-clock. Given the same trip/epoch sequence the breaker visits
// the same states on any machine, worker count or shard count, so it
// can sit on the serving path without breaking the byte-identity
// determinism contract.
#pragma once

#include <cstdint>
#include <deque>
#include <string_view>

namespace simtomp::simfault {

/// Sliding trip-window width in logical epochs: a trip at epoch e
/// counts against trips at epochs > e - kBreakerWindowEpochs.
inline constexpr uint32_t kBreakerWindowEpochs = 4;

/// Trip accounting knobs. All windows are logical epochs.
struct BreakerPolicy {
  /// Trips within kBreakerWindowEpochs that open the breaker. 0
  /// disables the breaker entirely (it never leaves kClosed).
  uint32_t tripThreshold = 2;
  /// Epochs a device stays quarantined before half-open probing.
  uint32_t cooldownEpochs = 2;
};

enum class BreakerState : uint8_t { kClosed = 0, kOpen, kHalfOpen };

[[nodiscard]] std::string_view breakerStateName(BreakerState state);

/// One device's breaker. Not thread-safe: callers serialize access
/// (simserve drives it under the service lock).
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerPolicy policy = {}) : policy_(policy) {}

  /// Record one launch failure at `epoch`. Returns true when this trip
  /// opened (or re-opened) the breaker, i.e. the device leaves
  /// service now.
  bool noteTrip(uint64_t epoch);

  /// Advance the logical clock: an open breaker whose cool-down has
  /// elapsed becomes half-open (the caller should route a probe).
  void onEpoch(uint64_t epoch);

  /// A half-open probe launch completed successfully: close. (A failed
  /// probe arrives as noteTrip, which re-opens.) No-op in other states.
  void noteProbeSuccess();

  /// Manual revival (simserve reviveDevice): close and forget history.
  void forceClose();

  /// Force a transition to half-open regardless of remaining cool-down
  /// (panic path: the last serving device must keep taking traffic).
  void forceHalfOpen();

  [[nodiscard]] BreakerState state() const { return state_; }
  /// Total trips ever recorded. A pure function of the fault/epoch
  /// sequence, so safe for byte-identity surfaces.
  [[nodiscard]] uint64_t trips() const { return trips_; }
  /// Times the breaker transitioned closed/half-open -> open.
  [[nodiscard]] uint64_t opens() const { return opens_; }
  /// Epoch at which an open breaker goes half-open (meaningful only
  /// while open).
  [[nodiscard]] uint64_t reopenEpoch() const { return reopen_epoch_; }

 private:
  void open(uint64_t epoch);

  BreakerPolicy policy_;
  BreakerState state_ = BreakerState::kClosed;
  std::deque<uint64_t> window_;  ///< trip epochs, oldest first
  uint64_t trips_ = 0;
  uint64_t opens_ = 0;
  uint64_t reopen_epoch_ = 0;
};

}  // namespace simtomp::simfault
