#include "simserve/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "gpusim/trace.h"
#include "simprof/metrics.h"
#include "simserve/service.h"

namespace simtomp::simserve {

namespace {

/// Histogram bucket upper bound: 4^(i+1) (mirrors simprof's registry).
uint64_t bucketBound(size_t i) { return uint64_t{1} << (2 * (i + 1)); }

size_t bucketFor(uint64_t value) {
  for (size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
    if (value <= bucketBound(i)) return i;
  }
  return LatencyHistogram::kBuckets - 1;
}

std::string boundText(uint64_t bound) {
  if (bound == std::numeric_limits<uint64_t>::max()) return "inf";
  return std::to_string(bound);
}

std::string deadlineText(uint64_t deadline) {
  return deadline == kNoDeadline ? "none" : std::to_string(deadline);
}

}  // namespace

void LatencyHistogram::observe(uint64_t value) {
  ++buckets_[bucketFor(value)];
  ++count_;
  sum_ += value;
}

uint64_t LatencyHistogram::quantileUpperBound(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return i + 1 < kBuckets ? bucketBound(i)
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
  if (id >= requests_.size()) requests_.resize(id + 1);
  RequestTrace& r = requests_[id];
  r.tenant = tenant;
  r.fingerprint = fingerprint;
  r.priority = priority;
  r.deadline = deadline;
  r.queueAhead = queueAhead;
  ++burn_[tenant].admitted;
  if (tenantTrack_.count(tenant) == 0) {
    tenantTrack_.emplace(tenant, static_cast<uint32_t>(trackTenant_.size()));
    trackTenant_.push_back(tenant);
  }
  recordCanonical(0, "admit",
                  "req=" + std::to_string(id) + " tenant=" + tenant +
                      " fp=" + fingerprint +
                      " prio=" + std::to_string(priority) +
                      " deadline=" + deadlineText(deadline) +
                      " ahead=" + std::to_string(queueAhead));
}

void ServiceTracer::noteShedAtSubmit(const std::string& tenant,
                                     std::string_view reason,
                                     bool deadlineShed) {
  TenantBurn& b = burn_[tenant];
  ++b.shedAtSubmit;
  if (deadlineShed) ++b.deadlineShed;
  recordCanonical(0, "shed",
                  "tenant=" + tenant + " reason=" + std::string(reason));
}

void ServiceTracer::noteEvicted(uint64_t id) {
  RequestTrace& r = requests_[id];
  r.end = EndState::kEvicted;
  r.code = StatusCode::kResourceExhausted;
  ++burn_[r.tenant].evicted;
  recordCanonical(0, "evict",
                  "req=" + std::to_string(id) + " tenant=" + r.tenant);
}

void ServiceTracer::noteDispatched(uint64_t id, bool batchFollower,
                                   uint64_t queueDelayCycles, uint32_t device,
                                   uint32_t shard) {
  RequestTrace& r = requests_[id];
  r.dispatched = true;
  r.batchFollower = batchFollower;
  r.dispatchTick = queueDelayCycles;
  r.device = device;
  r.shard = shard;
  queueDelay_.observe(queueDelayCycles);
  recordCanonical(queueDelayCycles, "dispatch",
                  "req=" + std::to_string(id) +
                      " role=" + (batchFollower ? "follower" : "leader") +
                      " delay=" + std::to_string(queueDelayCycles),
                  "device=" + std::to_string(device) +
                      " shard=" + std::to_string(shard));
}

void ServiceTracer::noteBatch(const std::string& fingerprint, uint32_t size) {
  ++batchesTotal_;
  const size_t cell =
      std::min<size_t>(size == 0 ? 0 : size - 1, batchSize_.size() - 1);
  ++batchSize_[cell];
  recordCanonical(0, "batch",
                  "fp=" + fingerprint + " size=" + std::to_string(size));
}

void ServiceTracer::noteMigrated(uint64_t id, uint32_t hop,
                                 uint64_t backoffCycles,
                                 uint64_t latencySoFar, uint32_t fromDevice,
                                 uint32_t toDevice) {
  RequestTrace& r = requests_[id];
  HopTrace h;
  h.hop = hop;
  h.backoffCycles = backoffCycles;
  h.tick = latencySoFar;
  h.fromDevice = fromDevice;
  h.toDevice = toDevice;
  r.hops.push_back(h);
  ++burn_[r.tenant].migratedHops;
  recordCanonical(latencySoFar, "migrate",
                  "req=" + std::to_string(id) + " hop=" + std::to_string(hop) +
                      " backoff=" + std::to_string(backoffCycles),
                  "from_device=" + std::to_string(fromDevice) +
                      " to_device=" + std::to_string(toDevice));
}

void ServiceTracer::noteRetryExhausted(uint64_t id, uint32_t hops) {
  const RequestTrace& r = requests_[id];
  const uint64_t tick = r.hops.empty() ? r.dispatchTick : r.hops.back().tick;
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
  RequestTrace& r = requests_[id];
  r.end = ok ? EndState::kDone : EndState::kFailed;
  r.code = code;
  r.latency = latency;
  r.cycles = cycles;
  r.verdict = verdict;
  TenantBurn& b = burn_[r.tenant];
  if (ok) {
    ++b.completed;
    if (verdict == DeadlineVerdict::kHit) ++b.deadlineHit;
    if (verdict == DeadlineVerdict::kMiss) ++b.deadlineMiss;
  } else {
    ++b.failed;
  }
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

void ServiceTracer::writeTimelineLocked(std::ostream& out, uint64_t id,
                                        bool physical) const {
  const RequestTrace& r = requests_[id];
  out << "req " << id << " tenant=" << r.tenant << " fp=" << r.fingerprint
      << " prio=" << r.priority << " deadline=" << deadlineText(r.deadline)
      << " ahead=" << r.queueAhead << "\n";
  out << "  +0 admitted\n";
  if (r.end == EndState::kEvicted) {
    out << "  +0 evicted status=" << statusCodeName(r.code) << "\n";
    return;
  }
  if (r.dispatched) {
    out << "  +" << r.dispatchTick << " dispatched role="
        << (r.batchFollower ? "follower" : "leader");
    if (physical) {
      out << " device=" << r.device << " shard=" << r.shard;
    }
    out << "\n";
  }
  for (const HopTrace& h : r.hops) {
    out << "  +" << h.tick << " migrated hop=" << h.hop
        << " backoff=" << h.backoffCycles;
    if (physical) {
      out << " from_device=" << h.fromDevice << " to_device=" << h.toDevice;
    }
    out << "\n";
  }
  if (r.end == EndState::kDone || r.end == EndState::kFailed) {
    out << "  +" << r.latency << " retired outcome="
        << (r.end == EndState::kDone ? "done" : "failed")
        << " status=" << statusCodeName(r.code) << " latency=" << r.latency
        << " cycles=" << r.cycles
        << " verdict=" << deadlineVerdictName(r.verdict) << "\n";
  }
}

void ServiceTracer::dumpTimelines(std::ostream& out, bool physical) const {
  out << "# simserve trace v1 requests=" << requests_.size() << "\n";
  for (uint64_t id = 0; id < requests_.size(); ++id) {
    writeTimelineLocked(out, id, physical);
  }
}

Status ServiceTracer::dumpTimeline(std::ostream& out, uint64_t id,
                                   bool physical) const {
  if (id >= requests_.size()) {
    return Status::invalidArgument("no trace for request id " +
                                   std::to_string(id));
  }
  writeTimelineLocked(out, id, physical);
  return Status::ok();
}

void ServiceTracer::dumpTenantSummary(std::ostream& out) const {
  out << "# simserve slo burn v1\n";
  for (const auto& [tenant, b] : burn_) {
    // Burn: of everything the SLO covered (scored completions plus
    // deadline-carrying arrivals shed at admission), how much did the
    // tenant lose? Integer permille keeps the line byte-stable.
    const uint64_t covered = b.deadlineHit + b.deadlineMiss + b.deadlineShed;
    const uint64_t lost = b.deadlineMiss + b.deadlineShed;
    const uint64_t permille = covered == 0 ? 0 : (1000 * lost) / covered;
    out << "tenant " << tenant << ": admitted=" << b.admitted
        << " shed_at_submit=" << b.shedAtSubmit
        << " deadline_shed=" << b.deadlineShed << " evicted=" << b.evicted
        << " completed=" << b.completed << " failed=" << b.failed
        << " migrated_hops=" << b.migratedHops
        << " deadline_hit=" << b.deadlineHit
        << " deadline_miss=" << b.deadlineMiss
        << " burn_permille=" << permille << "\n";
  }
}

void ServiceTracer::dumpHistograms(std::ostream& out) const {
  out << "# simserve trace histograms v1\n";
  out << "queue_delay " << queueDelay_.toString() << "\n";
  out << "batch_size total=" << batchesTotal_;
  for (size_t i = 0; i < batchSize_.size(); ++i) {
    if (batchSize_[i] == 0) continue;
    out << " " << (i + 1) << (i + 1 == batchSize_.size() ? "+" : "") << "="
        << batchSize_[i];
  }
  out << "\n";
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

void ServiceTracer::exportPerfetto(gpusim::TraceRecorder& recorder) const {
  // One track per tenant (named after it), one span per admitted
  // request. The span's start is a deterministic function of the
  // admission sequence — requests are laid out per tenant without
  // overlap so Perfetto renders a readable lane — and its duration is
  // the request's modeled latency; migrations become instants and the
  // queue depth at admission a counter track. Every coordinate is
  // logical or modeled, so the exported JSON is itself byte-identical
  // across reruns, worker counts and shard counts.
  for (uint32_t track = 0; track < trackTenant_.size(); ++track) {
    recorder.nameTrack(track, trackTenant_[track]);
  }
  std::vector<uint64_t> cursor(trackTenant_.size(), 0);
  for (uint64_t id = 0; id < requests_.size(); ++id) {
    const RequestTrace& r = requests_[id];
    const auto it = tenantTrack_.find(r.tenant);
    if (it == tenantTrack_.end()) continue;
    const uint32_t track = it->second;
    recorder.recordCounter("queued", id * kQueueSlotCycles, r.queueAhead + 1);
    if (r.end == EndState::kEvicted || !r.dispatched) continue;
    const uint64_t start =
        std::max(cursor[track], id * kQueueSlotCycles);
    const uint64_t duration = std::max<uint64_t>(r.latency, 1);
    cursor[track] = start + duration;
    std::string name = "req " + std::to_string(id) + " " + r.fingerprint;
    if (r.end == EndState::kFailed) {
      name += " [failed " + std::string(statusCodeName(r.code)) + "]";
    }
    recorder.recordSpan(track, std::move(name), start, duration);
    for (const HopTrace& h : r.hops) {
      recorder.recordInstant("migrate req " + std::to_string(id) + " hop " +
                                 std::to_string(h.hop),
                             start + h.tick);
    }
  }
}

}  // namespace simtomp::simserve
