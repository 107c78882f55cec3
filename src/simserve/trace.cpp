#include "simserve/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "simprof/metrics.h"

namespace simtomp::simserve {

namespace {

std::string boundText(uint64_t bound) {
  if (bound == std::numeric_limits<uint64_t>::max()) return "inf";
  return std::to_string(bound);
}

}  // namespace

std::string deadlineText(uint64_t deadline) {
  return deadline == kNoDeadline ? "none" : std::to_string(deadline);
}

void LatencyHistogram::observe(uint64_t value) {
  ++buckets_[simprof::histogramBucketFor(value)];
  ++count_;
  sum_ += value;
}

uint64_t LatencyHistogram::quantileUpperBound(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < simprof::kHistogramBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return i + 1 < simprof::kHistogramBuckets
                 ? simprof::histogramBucketBound(i)
                 : std::numeric_limits<uint64_t>::max();
    }
  }
  return std::numeric_limits<uint64_t>::max();
}

std::string LatencyHistogram::toString() const {
  std::string out = "count=" + std::to_string(count_) +
                    " sum=" + std::to_string(sum_) +
                    " p50<=" + boundText(quantileUpperBound(0.5)) +
                    " p99<=" + boundText(quantileUpperBound(0.99));
  return out;
}

std::string_view deadlineVerdictName(DeadlineVerdict verdict) {
  switch (verdict) {
    case DeadlineVerdict::kNone: return "none";
    case DeadlineVerdict::kMiss: return "miss";
    case DeadlineVerdict::kHit: return "hit";
  }
  return "unknown";
}

ServiceTracer::ServiceTracer(TraceConfig config)
    : config_(std::move(config)),
      canonical_(config_.ringCapacity),
      physical_(config_.ringCapacity) {}

void ServiceTracer::recordCanonical(uint64_t tick, std::string category,
                                    std::string detail,
                                    std::string physicalDetail) {
  auto& metrics = simprof::MetricsRegistry::global();
  metrics.add(simprof::metric::kServeTraceEventsTotal);
  if (canonical_.record(tick, std::move(category), std::move(detail),
                        std::move(physicalDetail))) {
    metrics.add(simprof::metric::kServeTraceDroppedTotal);
  }
}

void ServiceTracer::recordPhysical(uint64_t tick, std::string category,
                                   std::string detail) {
  auto& metrics = simprof::MetricsRegistry::global();
  metrics.add(simprof::metric::kServeTraceEventsTotal);
  if (physical_.record(tick, std::move(category), std::move(detail))) {
    metrics.add(simprof::metric::kServeTraceDroppedTotal);
  }
}

void ServiceTracer::noteAdmitted(uint64_t id, const std::string& tenant,
                                 const std::string& fingerprint,
                                 uint32_t priority, uint64_t deadline,
                                 uint64_t queueAhead) {
  recordCanonical(0, "admit",
                  "req=" + std::to_string(id) + " tenant=" + tenant +
                      " fp=" + fingerprint +
                      " prio=" + std::to_string(priority) +
                      " deadline=" + deadlineText(deadline) +
                      " ahead=" + std::to_string(queueAhead));
}

void ServiceTracer::noteShedAtSubmit(const std::string& tenant,
                                     std::string_view reason) {
  recordCanonical(0, "shed",
                  "tenant=" + tenant + " reason=" + std::string(reason));
}

void ServiceTracer::noteEvicted(uint64_t id, const std::string& tenant) {
  recordCanonical(0, "evict",
                  "req=" + std::to_string(id) + " tenant=" + tenant);
}

void ServiceTracer::noteDispatched(uint64_t id, bool batchFollower,
                                   uint64_t queueDelayCycles, uint32_t device,
                                   uint32_t shard) {
  recordCanonical(queueDelayCycles, "dispatch",
                  "req=" + std::to_string(id) +
                      " role=" + (batchFollower ? "follower" : "leader") +
                      " delay=" + std::to_string(queueDelayCycles),
                  "device=" + std::to_string(device) +
                      " shard=" + std::to_string(shard));
}

void ServiceTracer::noteBatch(const std::string& fingerprint, uint32_t size) {
  recordCanonical(0, "batch",
                  "fp=" + fingerprint + " size=" + std::to_string(size));
}

void ServiceTracer::noteMigrated(uint64_t id, uint32_t hop,
                                 uint64_t backoffCycles,
                                 uint64_t latencySoFar, uint32_t fromDevice,
                                 uint32_t toDevice) {
  recordCanonical(latencySoFar, "migrate",
                  "req=" + std::to_string(id) + " hop=" + std::to_string(hop) +
                      " backoff=" + std::to_string(backoffCycles),
                  "from_device=" + std::to_string(fromDevice) +
                      " to_device=" + std::to_string(toDevice));
}

void ServiceTracer::noteRetryExhausted(uint64_t id, uint64_t tick,
                                       uint32_t hops) {
  recordCanonical(tick, "retry_exhausted",
                  "req=" + std::to_string(id) +
                      " hops=" + std::to_string(hops));
}

void ServiceTracer::noteBreakerTrip(const std::string& tenant,
                                    uint32_t device) {
  recordCanonical(0, "breaker_trip", "tenant=" + tenant,
                  "device=" + std::to_string(device));
}

void ServiceTracer::noteRetired(uint64_t id, bool ok, StatusCode code,
                                uint64_t latency, uint64_t cycles,
                                DeadlineVerdict verdict) {
  recordCanonical(
      latency, "retire",
      "req=" + std::to_string(id) + " outcome=" + (ok ? "done" : "failed") +
          " status=" + std::string(statusCodeName(code)) +
          " latency=" + std::to_string(latency) +
          " cycles=" + std::to_string(cycles) +
          " verdict=" + std::string(deadlineVerdictName(verdict)));
}

void ServiceTracer::noteEpoch(uint64_t epoch) {
  recordCanonical(epoch, "epoch", "epoch=" + std::to_string(epoch));
}

void ServiceTracer::noteBreakerOpened(uint32_t device, uint64_t epoch) {
  recordPhysical(epoch, "breaker_open",
                 "device=" + std::to_string(device) +
                     " epoch=" + std::to_string(epoch));
}

void ServiceTracer::noteBreakerHalfOpen(uint32_t device, uint64_t epoch) {
  recordPhysical(epoch, "breaker_half_open",
                 "device=" + std::to_string(device) +
                     " epoch=" + std::to_string(epoch));
}

void ServiceTracer::notePanicRevival(uint32_t device, uint64_t epoch) {
  recordPhysical(epoch, "panic_revival",
                 "device=" + std::to_string(device) +
                     " epoch=" + std::to_string(epoch));
}

void ServiceTracer::noteDeviceRevived(uint32_t device, uint64_t epoch) {
  recordPhysical(epoch, "device_revived",
                 "device=" + std::to_string(device) +
                     " epoch=" + std::to_string(epoch));
}

void ServiceTracer::onFailureTrigger(std::string_view reason) {
  if (config_.autoDumpPath.empty()) return;
  // Rewrite (not append): the recorder semantics are "the window
  // around the latest failure", which is what a post-mortem wants.
  (void)dumpFlightToFile(config_.autoDumpPath, /*physical=*/true, reason);
}

void ServiceTracer::dumpFlight(std::ostream& out, bool physical,
                               std::string_view trigger) const {
  out << "# simserve flight recorder v1 trigger=" << trigger
      << " events=" << canonical_.size()
      << " recorded=" << canonical_.recorded()
      << " dropped=" << canonical_.dropped() << "\n";
  canonical_.dump(out, physical);
  if (physical) {
    out << "# physical ring events=" << physical_.size()
        << " recorded=" << physical_.recorded()
        << " dropped=" << physical_.dropped() << "\n";
    physical_.dump(out, /*physical=*/true);
  }
}

Status ServiceTracer::dumpFlightToFile(const std::string& path,
                                       bool physical,
                                       std::string_view trigger) const {
  std::ofstream out(path);
  if (!out) {
    return Status::invalidArgument("cannot open flight dump file: " + path);
  }
  dumpFlight(out, physical, trigger);
  if (!out.good()) {
    return Status::internal("I/O error writing flight dump: " + path);
  }
  return Status::ok();
}

}  // namespace simtomp::simserve
