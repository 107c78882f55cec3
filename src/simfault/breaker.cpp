#include "simfault/breaker.h"

namespace simtomp::simfault {

std::string_view breakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "unknown";
}

void CircuitBreaker::open(uint64_t epoch) {
  state_ = BreakerState::kOpen;
  reopen_epoch_ = epoch + policy_.cooldownEpochs;
  window_.clear();
  ++opens_;
}

bool CircuitBreaker::noteTrip(uint64_t epoch) {
  ++trips_;
  if (policy_.tripThreshold == 0) return false;  // breaker disabled
  switch (state_) {
    case BreakerState::kOpen:
      // Already quarantined; stray trips (a wave can carry several
      // failures from one device) don't extend the cool-down.
      return false;
    case BreakerState::kHalfOpen:
      // The probe failed: straight back to open with a fresh cool-down.
      open(epoch);
      return true;
    case BreakerState::kClosed: {
      window_.push_back(epoch);
      // Drop trips that slid out of the window.
      while (!window_.empty() &&
             window_.front() + kBreakerWindowEpochs <= epoch) {
        window_.pop_front();
      }
      if (window_.size() >= policy_.tripThreshold) {
        open(epoch);
        return true;
      }
      return false;
    }
  }
  return false;
}

void CircuitBreaker::onEpoch(uint64_t epoch) {
  if (state_ == BreakerState::kOpen && epoch >= reopen_epoch_) {
    state_ = BreakerState::kHalfOpen;
  }
}

void CircuitBreaker::noteProbeSuccess() {
  if (state_ != BreakerState::kHalfOpen) return;
  state_ = BreakerState::kClosed;
  window_.clear();
}

void CircuitBreaker::forceClose() {
  state_ = BreakerState::kClosed;
  window_.clear();
}

void CircuitBreaker::forceHalfOpen() { state_ = BreakerState::kHalfOpen; }

}  // namespace simtomp::simfault
