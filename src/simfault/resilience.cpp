#include "simfault/resilience.h"

#include <algorithm>

namespace simtomp::simfault {

std::string_view deviceHealthName(DeviceHealth health) {
  switch (health) {
    case DeviceHealth::kHealthy: return "healthy";
    case DeviceHealth::kFaulted: return "faulted";
    case DeviceHealth::kReset: return "reset";
  }
  return "unknown";
}

RetryDecision decideRetry(StatusCode code, uint32_t retry, uint32_t budget,
                          BackoffSchedule schedule) {
  if (code != StatusCode::kUnavailable) return {};
  if (retry > budget) return {RetryVerdict::kExhausted, 0};
  const uint32_t shift = retry - 1;
  // base << shift would overflow past 63 shifts (and exceeds any sane
  // cap long before that): saturate at the cap instead.
  if (shift >= 64 || (schedule.base << shift) >> shift != schedule.base) {
    return {RetryVerdict::kRetry, schedule.cap};
  }
  return {RetryVerdict::kRetry, std::min(schedule.base << shift, schedule.cap)};
}

std::string_view recoveryStageName(RecoveryStage stage) {
  switch (stage) {
    case RecoveryStage::kInitial: return "initial";
    case RecoveryStage::kRetry: return "retry";
    case RecoveryStage::kModeFallback: return "mode_fallback";
    case RecoveryStage::kHostSerial: return "host_serial";
  }
  return "unknown";
}

std::string AttemptRecord::toString() const {
  std::string out(recoveryStageName(stage));
  out += " [";
  out += shape;
  out += "]";
  if (backoffMs != 0) {
    out += " backoff=";
    out += std::to_string(backoffMs);
    out += "ms";
  }
  out += " -> ";
  out += statusCodeName(code);
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  return out;
}

std::string ResilienceReport::toString() const {
  std::string out = "resilience: ";
  out += statusCodeName(finalCode);
  out += recovered ? " (recovered)" : "";
  out += "\n  attempts=";
  out += std::to_string(attempts.size());
  out += " resets=";
  out += std::to_string(resets);
  out += " health=";
  out += healthTrail;
  out += "\n";
  for (size_t i = 0; i < attempts.size(); ++i) {
    out += "  #";
    out += std::to_string(i + 1);
    out += " ";
    out += attempts[i].toString();
    out += "\n";
  }
  if (!succeeded() && !finalMessage.empty()) {
    out += "  final: ";
    out += finalMessage;
    out += "\n";
  }
  return out;
}

}  // namespace simtomp::simfault
