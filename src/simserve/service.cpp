#include "simserve/service.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

#include "gpusim/trace.h"
#include "simprof/metrics.h"

namespace simtomp::simserve {

namespace {

constexpr size_t kNpos = std::numeric_limits<size_t>::max();

/// The config a request launches with: its batch's resolved config,
/// with the per-request knobs put back. The fault plan and watchdog
/// budget belong to the request, not the kernel fingerprint.
omprt::TargetConfig withRequestKnobs(omprt::TargetConfig resolved,
                                     const omprt::TargetConfig& request) {
  resolved.fault = request.fault;
  resolved.watchdogSteps = request.watchdogSteps;
  return resolved;
}

}  // namespace

std::string_view requestStateName(RequestState state) {
  switch (state) {
    case RequestState::kQueued: return "queued";
    case RequestState::kShed: return "shed";
    case RequestState::kDispatched: return "dispatched";
    case RequestState::kDone: return "done";
    case RequestState::kFailed: return "failed";
  }
  return "unknown";
}

uint64_t fingerprintHash(std::string_view fingerprint) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : fingerprint) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string TenantStats::toString() const {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "submitted=%" PRIu64 " accepted=%" PRIu64 " shed=%" PRIu64
                " evicted=%" PRIu64 " brownout_shed=%" PRIu64
                " deadline_shed=%" PRIu64 " completed=%" PRIu64
                " failed=%" PRIu64 " migrated=%" PRIu64
                " batch_followers=%" PRIu64 " deadline_hit=%" PRIu64
                " deadline_miss=%" PRIu64 " retries_exhausted=%" PRIu64
                " retry_backoff_cycles=%" PRIu64 " breaker_trips=%" PRIu64,
                submitted, accepted, shed, evicted, brownoutShed,
                deadlineShed, completed, failed, migrated, batchFollowers,
                deadlineHit, deadlineMiss, retriesExhausted,
                retryBackoffCycles, breakerTrips);
  return std::string(buf) + " latency " + latency.toString();
}

LaunchService::LaunchService(hostrt::DeviceManager& manager,
                             ServiceConfig config)
    : mgr_(&manager), config_(config) {
  if (config_.shardCount == 0) {
    config_.shardCount = static_cast<uint32_t>(mgr_->numDevices());
  }
  if (config_.brownoutHighWater == 0) {
    config_.brownoutHighWater = (config_.maxQueued * 3) / 4;
  }
  shardDevice_.assign(config_.shardCount, 0);
  breakers_.assign(mgr_->numDevices(),
                   simfault::CircuitBreaker(config_.breaker));
  if (config_.trace.enabled) {
    tracer_ = std::make_unique<ServiceTracer>(config_.trace);
  }
  rebuildShardMapLocked();
}

Status LaunchService::registerTenant(TenantSpec spec) {
  if (spec.name.empty()) {
    return Status::invalidArgument("tenant name must not be empty");
  }
  if (spec.priority == 0) {
    return Status::invalidArgument("tenant priority must be >= 1");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (tenantByName_.count(spec.name) != 0) {
    return Status::invalidArgument("tenant already registered: " + spec.name);
  }
  const auto id = static_cast<uint32_t>(tenants_.size());
  minPriority_ = std::min(minPriority_, spec.priority);
  tenantByName_.emplace(spec.name, id);
  tenants_.push_back(Tenant{std::move(spec), {}, 0, 0});
  return Status::ok();
}

Result<uint64_t> LaunchService::submit(std::string_view tenant,
                                       omprt::TargetConfig config,
                                       omprt::TargetRegionFn region,
                                       std::string fingerprint,
                                       uint64_t deadlineCycles) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenantByName_.find(tenant);
  if (it == tenantByName_.end()) {
    return Status::invalidArgument("unknown tenant: " + std::string(tenant));
  }
  Tenant& t = tenants_[it->second];
  auto& metrics = simprof::MetricsRegistry::global();
  ++t.stats.submitted;
  metrics.add(simprof::metric::kServeRequestsTotal);

  // Admission control. Every decision below reads logical state only,
  // so the same submission sequence sheds the same requests for any
  // worker count or shard count.
  if (t.spec.maxQueued == 0 || t.spec.maxInFlight == 0) {
    ++t.stats.shed;
    metrics.add(simprof::metric::kServeShedTotal);
    if (tracer_) {
      tracer_->noteShedAtSubmit(t.spec.name, "suspended");
    }
    return Status::resourceExhausted("tenant '" + t.spec.name +
                                     "' is suspended (zero quota)");
  }
  // Deadline admission: if the modeled cost of just reaching a device
  // (everything queued ahead plus one dispatch) already blows the
  // budget, shed now instead of wasting the dispatch. A zero budget
  // can never be met (dispatch alone costs kDispatchCycles).
  const uint64_t deadline = deadlineCycles == kInheritDeadline
                                ? t.spec.deadlineCycles
                                : deadlineCycles;
  if (deadline != kNoDeadline) {
    const uint64_t ahead_cost =
        queuedCount_ * kQueueSlotCycles + kDispatchCycles;
    if (ahead_cost > deadline) {
      ++t.stats.deadlineShed;
      metrics.add(simprof::metric::kServeDeadlineShedTotal);
      if (tracer_) {
        tracer_->noteShedAtSubmit(t.spec.name, "deadline");
      }
      return Status::deadlineExceeded(
          "tenant '" + t.spec.name + "' deadline budget " +
          std::to_string(deadline) + " < modeled queue-ahead cost " +
          std::to_string(ahead_cost));
    }
  }
  if (t.queued >= t.spec.maxQueued) {
    ++t.stats.shed;
    metrics.add(simprof::metric::kServeShedTotal);
    if (tracer_) {
      tracer_->noteShedAtSubmit(t.spec.name, "tenant_quota");
    }
    return Status::resourceExhausted("tenant '" + t.spec.name +
                                     "' queue quota exceeded");
  }
  // Brownout: past the high-water mark, lowest-priority arrivals are
  // shed outright — graceful degradation ahead of the hard bound.
  if (brownoutActiveLocked() && t.spec.priority <= minPriority_) {
    ++t.stats.shed;
    ++t.stats.brownoutShed;
    metrics.add(simprof::metric::kServeShedTotal);
    metrics.add(simprof::metric::kServeBrownoutShedTotal);
    if (tracer_) {
      tracer_->noteShedAtSubmit(t.spec.name, "brownout");
    }
    return Status::resourceExhausted(
        "brownout: queue at " + std::to_string(queuedCount_) + " >= " +
        std::to_string(config_.brownoutHighWater) +
        "; lowest-priority arrival shed");
  }
  if (queuedCount_ >= config_.maxQueued) {
    // The global queue is full: RESOURCE_EXHAUSTED goes to the
    // lowest-priority newest request — the incoming one unless it
    // outranks the lowest queued priority class, in which case that
    // class's newest request is evicted to make room.
    auto lowest = classes_.rbegin();
    while (lowest != classes_.rend() && lowest->second.fifo.empty()) {
      ++lowest;
    }
    SIMTOMP_CHECK(lowest != classes_.rend(),
                  "full queue must have a nonempty priority class");
    if (t.spec.priority <= lowest->first) {
      ++t.stats.shed;
      metrics.add(simprof::metric::kServeShedTotal);
      if (tracer_) {
        tracer_->noteShedAtSubmit(t.spec.name, "queue_full");
      }
      return Status::resourceExhausted("service queue full (" +
                                       std::to_string(config_.maxQueued) +
                                       "); lowest-priority newest shed");
    }
    const uint64_t victim_id = lowest->second.fifo.back();
    lowest->second.fifo.pop_back();
    shedRequest(requests_[victim_id], /*evicted=*/true,
                "evicted by higher-priority arrival");
  }

  const uint64_t id = requests_.size();
  if (fingerprint.empty()) {
    if (!config.tuneKey.empty()) {
      fingerprint = config.tuneKey + "/t" + std::to_string(config.tripCount);
    } else {
      fingerprint = "anon/" + std::to_string(config.numTeams) + "x" +
                    std::to_string(config.threadsPerTeam) + "/s" +
                    std::to_string(config.simdlen) + "/t" +
                    std::to_string(config.tripCount);
    }
  }
  Request request;
  request.id = id;
  request.tenant = it->second;
  request.shard = static_cast<uint32_t>(fingerprintHash(fingerprint) %
                                        shardDevice_.size());
  request.fingerprint = std::move(fingerprint);
  request.config = std::move(config);
  request.region = std::move(region);
  request.aheadAtAdmission = queuedCount_;
  request.deadline = deadline;
  requests_.push_back(std::move(request));
  classes_[t.spec.priority].fifo.push_back(id);
  ++queuedCount_;
  ++t.queued;
  ++t.stats.accepted;
  metrics.add(simprof::metric::kServeAcceptedTotal);
  peakQueueDepth_ = std::max(peakQueueDepth_, queuedCount_);
  metrics.gaugeMax(simprof::metric::kServeQueueDepthPeak, peakQueueDepth_);
  if (tracer_) {
    const Request& admitted = requests_.back();
    tracer_->noteAdmitted(id, t.spec.name, admitted.fingerprint,
                          t.spec.priority, admitted.deadline,
                          admitted.aheadAtAdmission);
  }
  return id;
}

void LaunchService::shedRequest(Request& request, bool evicted,
                                std::string why) {
  request.state = RequestState::kShed;
  request.status = Status::resourceExhausted(std::move(why));
  Tenant& t = tenants_[request.tenant];
  ++t.stats.shed;
  if (evicted) ++t.stats.evicted;
  SIMTOMP_CHECK(queuedCount_ > 0 && t.queued > 0,
                "evicting a request that was not queued");
  --queuedCount_;
  --t.queued;
  auto& metrics = simprof::MetricsRegistry::global();
  metrics.add(simprof::metric::kServeShedTotal);
  if (tracer_ && evicted) tracer_->noteEvicted(request.id, t.spec.name);
}

size_t LaunchService::firstEligible(const PriorityClass& cls) const {
  for (size_t pos = 0; pos < cls.fifo.size(); ++pos) {
    if (tenantHasBudget(tenants_[requests_[cls.fifo[pos]].tenant])) {
      return pos;
    }
  }
  return kNpos;
}

void LaunchService::dispatchLocked(Request& request, size_t device,
                                   const omprt::TargetConfig& resolved,
                                   bool batch_follower) {
  request.future = mgr_->taskQueue(device).enqueue(
      withRequestKnobs(resolved, request.config), request.region);
  request.state = RequestState::kDispatched;
  request.device = static_cast<uint32_t>(device);
  request.batchFollower = batch_follower;
  request.modeledLatency =
      request.aheadAtAdmission * kQueueSlotCycles +
      (batch_follower ? kBatchFollowCycles : kDispatchCycles);
  Tenant& t = tenants_[request.tenant];
  SIMTOMP_CHECK(queuedCount_ > 0 && t.queued > 0,
                "dispatching a request that was not queued");
  --queuedCount_;
  --t.queued;
  ++t.dispatchedSinceDrain;
  if (batch_follower) ++t.stats.batchFollowers;
  ++dispatchedTotal_;
  dispatchOrder_.push_back(request.id);
  if (tracer_) {
    tracer_->noteDispatched(request.id, batch_follower,
                            request.aheadAtAdmission * kQueueSlotCycles,
                            request.device, request.shard);
  }
}

void LaunchService::notePumpWatermarksLocked() {
  peakInFlight_ = std::max(peakInFlight_, dispatchedTotal_ - retiredTotal_);
  simprof::MetricsRegistry::global().gaugeMax(
      simprof::metric::kServeInFlightPeak, peakInFlight_);
}

size_t LaunchService::pump() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dispatched = 0;
  if (!anyServingLocked()) {
    notePumpWatermarksLocked();
    return 0;
  }
  auto& metrics = simprof::MetricsRegistry::global();
  for (;;) {
    // Pick the highest-priority class that has round credits and an
    // eligible request (one whose tenant still has dispatch budget).
    auto pick = classes_.end();
    size_t pick_pos = 0;
    bool any_eligible = false;
    for (auto it = classes_.begin(); it != classes_.end(); ++it) {
      PriorityClass& cls = it->second;
      if (cls.fifo.empty()) continue;
      const size_t pos = firstEligible(cls);
      if (pos == kNpos) continue;
      any_eligible = true;
      if (cls.credits > 0) {
        pick = it;
        pick_pos = pos;
        break;
      }
    }
    if (!any_eligible) break;
    if (pick == classes_.end()) {
      // Every eligible class exhausted its round: replenish credits
      // proportionally to priority — the "weighted" in the round robin.
      for (auto& [priority, cls] : classes_) {
        if (!cls.fifo.empty() && firstEligible(cls) != kNpos) {
          cls.credits = priority;
        }
      }
      continue;
    }

    PriorityClass& cls = pick->second;
    Request& leader = requests_[cls.fifo[pick_pos]];
    const size_t device = shardDevice_[leader.shard];
    // One effective-config resolution (manager defaults, tune cache,
    // auto shape) serves the whole batch — the amortization batching
    // exists for.
    const omprt::TargetConfig resolved =
        mgr_->effectiveConfig(device, leader.config);
    cls.fifo.erase(cls.fifo.begin() + static_cast<ptrdiff_t>(pick_pos));
    --cls.credits;
    dispatchLocked(leader, device, resolved, /*batch_follower=*/false);
    ++dispatched;
    // Followers ride the leader's credit: a batch is one dispatch plan,
    // so it costs one scheduling slot however many requests it carries.
    // Brownout disables coalescing — a batch is one failure domain, and
    // under pressure stranding many requests on one faulting dispatch
    // costs more than the amortized resolution saves. Re-evaluated per
    // leader, so batching resumes as the pump works the queue down.
    const uint32_t max_batch = brownoutActiveLocked() ? 1 : kMaxBatch;
    uint32_t batch = 1;
    while (batch < max_batch && pick_pos < cls.fifo.size()) {
      Request& next = requests_[cls.fifo[pick_pos]];
      if (next.fingerprint != leader.fingerprint) break;
      if (!tenantHasBudget(tenants_[next.tenant])) break;
      cls.fifo.erase(cls.fifo.begin() + static_cast<ptrdiff_t>(pick_pos));
      dispatchLocked(next, device, resolved, /*batch_follower=*/true);
      ++batch;
      ++dispatched;
    }
    ++batches_;
    ++batchSizes_[batch - 1];
    amortized_ += batch - 1;
    metrics.add(simprof::metric::kServeBatchesTotal);
    if (tracer_) tracer_->noteBatch(leader.fingerprint, batch);
  }
  notePumpWatermarksLocked();
  return dispatched;
}

Status LaunchService::drain() {
  for (;;) {
    std::vector<uint64_t> to_retire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      to_retire.assign(
          dispatchOrder_.begin() + static_cast<ptrdiff_t>(retireCursor_),
          dispatchOrder_.end());
      retireCursor_ = dispatchOrder_.size();
    }
    if (to_retire.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      for (Tenant& t : tenants_) t.dispatchedSinceDrain = 0;
      // A completed drain is one tick of the logical clock the
      // breakers run on: cool-downs elapse here, and devices whose
      // breaker went half-open rejoin the shard map as probes.
      ++epoch_;
      advanceBreakersLocked();
      if (tracer_) tracer_->noteEpoch(epoch_);
      return Status::ok();
    }
    std::vector<Stranded> stranded;
    for (const uint64_t id : to_retire) {
      Request* request = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        request = &requests_[id];  // deque references are stable
      }
      // Blocking wait outside the service lock: submitters must stay
      // free while the device queues run down.
      const Result<gpusim::KernelStats> result = request->future.get();
      std::lock_guard<std::mutex> lock(mu_);
      auto& metrics = simprof::MetricsRegistry::global();
      Tenant& t = tenants_[request->tenant];
      if (result.isOk()) {
        request->cycles = result.value().cycles;
        request->modeledLatency += request->cycles;
        request->state = RequestState::kDone;
        ++t.stats.completed;
        t.stats.latency.observe(request->modeledLatency);
        metrics.observe(simprof::metric::kServeLatencyCycles,
                        request->modeledLatency);
        if (request->deadline != kNoDeadline) {
          // SLO scoring: the final modeled latency against the budget.
          if (request->modeledLatency <= request->deadline) {
            request->verdict = DeadlineVerdict::kHit;
            ++t.stats.deadlineHit;
            metrics.add(simprof::metric::kServeDeadlineHitTotal);
          } else {
            request->verdict = DeadlineVerdict::kMiss;
            ++t.stats.deadlineMiss;
            metrics.add(simprof::metric::kServeDeadlineMissTotal);
          }
        }
        // The first successful retirement from a half-open device closes
        // its breaker (the probe passed); a no-op in any other state.
        breakers_[request->device].noteProbeSuccess();
        ++retiredTotal_;
        if (tracer_) {
          tracer_->noteRetired(request->id, /*ok=*/true, StatusCode::kOk,
                               request->modeledLatency, request->cycles,
                               request->verdict);
        }
        continue;
      }
      const simfault::RetryDecision retry = simfault::decideRetry(
          result.status().code(),
          static_cast<uint32_t>(request->hops.size()) + 1, t.spec.maxRetries,
          kRetryBackoffCycles);
      if (retry.verdict != simfault::RetryVerdict::kPermanent) {
        // A transient failure is a lost device: migration happens once
        // this wave's futures are all in, so ordering is preserved.
        stranded.push_back(Stranded{id, retry});
        continue;
      }
      request->status = result.status();
      request->state = RequestState::kFailed;
      ++t.stats.failed;
      ++retiredTotal_;
      if (tracer_) {
        tracer_->noteRetired(request->id, /*ok=*/false, request->status.code(),
                             request->modeledLatency, 0,
                             DeadlineVerdict::kNone);
        tracer_->onFailureTrigger("failed_launch");
      }
    }
    if (!stranded.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      const Status migrated = migrateLocked(stranded);
      if (!migrated.isOk()) return migrated;
    }
    // Loop: the migrated re-dispatches appended to dispatchOrder_ and
    // are retired by the next pass.
  }
}

Status LaunchService::migrateLocked(const std::vector<Stranded>& stranded) {
  auto& metrics = simprof::MetricsRegistry::global();
  // Charge one breaker trip per stranded request, attributed to the
  // request's tenant — a shard-invariant count (how many requests hit
  // faults never depends on which physical device served the shard).
  // A breaker that crosses its threshold opens: its device leaves the
  // shard map until cool-down.
  std::vector<bool> lost(breakers_.size(), false);
  for (const Stranded& s : stranded) {
    Request& request = requests_[s.id];
    ++tenants_[request.tenant].stats.breakerTrips;
    metrics.add(simprof::metric::kServeBreakerTripsTotal);
    if (tracer_) {
      tracer_->noteBreakerTrip(tenants_[request.tenant].spec.name,
                               request.device);
    }
    const size_t d = request.device;
    lost[d] = true;
    if (breakers_[d].noteTrip(epoch_)) {
      if (tracer_) {
        tracer_->noteBreakerOpened(static_cast<uint32_t>(d), epoch_);
        tracer_->onFailureTrigger("breaker_open");
      }
    }
  }
  // Reset every device lost in this wave — its in-flight work was all
  // retired above, so this is the drain -> quiesce -> reset step of the
  // health machine — and every device whose breaker is open (a later
  // half-open probe must start from a clean device). Devices whose
  // breaker stayed closed keep serving: the loss was transient.
  for (size_t d = 0; d < breakers_.size(); ++d) {
    if (lost[d] || !servingLocked(d)) mgr_->resetDevice(d);
  }
  // Panic revival: never leave the serving set empty. Every breaker is
  // open here; the one nearest its reopen epoch (ties to the lowest
  // device number) is forced half-open so traffic keeps flowing.
  if (config_.panicRevival && !anyServingLocked()) {
    size_t pick = 0;
    for (size_t d = 1; d < breakers_.size(); ++d) {
      if (breakers_[d].reopenEpoch() < breakers_[pick].reopenEpoch()) {
        pick = d;
      }
    }
    breakers_[pick].forceHalfOpen();
    if (tracer_) {
      tracer_->notePanicRevival(static_cast<uint32_t>(pick), epoch_);
    }
  }
  rebuildShardMapLocked();
  if (!anyServingLocked()) {
    for (const Stranded& s : stranded) {
      Request& request = requests_[s.id];
      request.status =
          Status::unavailable("no healthy device left for migration");
      request.state = RequestState::kFailed;
      ++tenants_[request.tenant].stats.failed;
      ++retiredTotal_;
      if (tracer_) {
        tracer_->noteRetired(s.id, /*ok=*/false, StatusCode::kUnavailable,
                             request.modeledLatency, 0,
                             DeadlineVerdict::kNone);
      }
    }
    if (tracer_) tracer_->onFailureTrigger("all_devices_lost");
    return Status::unavailable("launch service lost every device");
  }
  for (const Stranded& s : stranded) {
    Request& request = requests_[s.id];
    Tenant& t = tenants_[request.tenant];
    const auto hops = static_cast<uint32_t>(request.hops.size());
    // Past its tenant's retry budget the request fails for good with a
    // definite status instead of bouncing between dying devices.
    if (s.retry.verdict == simfault::RetryVerdict::kExhausted) {
      request.status = Status::unavailable(
          "retry budget exhausted after " + std::to_string(hops) +
          " re-dispatches (tenant '" + t.spec.name + "' allows " +
          std::to_string(t.spec.maxRetries) + ")");
      request.state = RequestState::kFailed;
      ++t.stats.failed;
      ++t.stats.retriesExhausted;
      metrics.add(simprof::metric::kServeRetriesExhaustedTotal);
      ++retiredTotal_;
      if (tracer_) {
        tracer_->noteRetryExhausted(s.id, request.modeledLatency, hops);
        tracer_->noteRetired(s.id, /*ok=*/false, StatusCode::kUnavailable,
                             request.modeledLatency, 0,
                             DeadlineVerdict::kNone);
        tracer_->onFailureTrigger("retry_exhausted");
      }
      continue;
    }
    ++t.stats.migrated;
    metrics.add(simprof::metric::kServeMigrationsTotal);
    // The fault modeled the *device* dying, not the request being
    // poisonous — the migrated copy must not re-arm device loss on the
    // healthy device.
    request.config.fault.spec = "off";
    // Each hop is charged a dispatch plus the retry rule's backoff —
    // modeled cycles, never slept, so latency stays reproducible.
    const uint64_t backoff = s.retry.backoff;
    request.modeledLatency += kDispatchCycles + backoff;
    t.stats.retryBackoffCycles += backoff;
    metrics.observe(simprof::metric::kServeRetryBackoffCycles, backoff);
    const size_t device = shardDevice_[request.shard];
    const uint32_t from_device = request.device;
    request.future = mgr_->taskQueue(device).enqueue(
        withRequestKnobs(mgr_->effectiveConfig(device, request.config),
                         request.config),
        request.region);
    request.device = static_cast<uint32_t>(device);
    request.state = RequestState::kDispatched;
    request.hops.push_back(Hop{from_device, backoff, request.modeledLatency});
    dispatchOrder_.push_back(s.id);
    if (tracer_) {
      tracer_->noteMigrated(s.id, hops + 1, backoff, request.modeledLatency,
                            from_device, request.device);
    }
  }
  return Status::ok();
}

bool LaunchService::anyServingLocked() const {
  for (size_t d = 0; d < breakers_.size(); ++d) {
    if (servingLocked(d)) return true;
  }
  return false;
}

void LaunchService::advanceBreakersLocked() {
  bool changed = false;
  for (size_t d = 0; d < breakers_.size(); ++d) {
    if (breakers_[d].state() != simfault::BreakerState::kOpen) continue;
    breakers_[d].onEpoch(epoch_);
    if (breakers_[d].state() == simfault::BreakerState::kHalfOpen) {
      changed = true;
      if (tracer_) {
        tracer_->noteBreakerHalfOpen(static_cast<uint32_t>(d), epoch_);
      }
    }
  }
  if (changed) rebuildShardMapLocked();
}

void LaunchService::rebuildShardMapLocked() {
  std::vector<size_t> serving;
  for (size_t d = 0; d < breakers_.size(); ++d) {
    if (servingLocked(d)) serving.push_back(d);
  }
  if (serving.empty()) return;  // pump()/migrateLocked() guard on this
  for (size_t s = 0; s < shardDevice_.size(); ++s) {
    shardDevice_[s] = serving[s % serving.size()];
  }
}

Status LaunchService::runToCompletion() {
  for (;;) {
    const size_t pumped = pump();
    size_t retired_before = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      retired_before = retireCursor_;
    }
    const Status drained = drain();
    if (!drained.isOk()) return drained;
    std::lock_guard<std::mutex> lock(mu_);
    if (queuedCount_ == 0 && retireCursor_ == dispatchOrder_.size()) {
      return Status::ok();
    }
    // Retiring counts as progress: it resets in-flight budgets, so the
    // next pump can dispatch work this one could not.
    if (pumped == 0 && retireCursor_ == retired_before) {
      return Status::unavailable(
          "launch service stalled: queued work but nothing dispatchable");
    }
  }
}

void LaunchService::reviveDevice(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  SIMTOMP_CHECK(n < breakers_.size(), "device number out of range");
  // Manual revival outranks the breaker: close it, forgetting any
  // outstanding probe.
  breakers_[n].forceClose();
  if (tracer_) {
    tracer_->noteDeviceRevived(static_cast<uint32_t>(n), epoch_);
  }
  rebuildShardMapLocked();
}

uint64_t LaunchService::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

simfault::BreakerState LaunchService::breakerState(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  SIMTOMP_CHECK(n < breakers_.size(), "device number out of range");
  return breakers_[n].state();
}

uint64_t LaunchService::breakerTrips(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  SIMTOMP_CHECK(n < breakers_.size(), "device number out of range");
  return breakers_[n].trips();
}

uint64_t LaunchService::breakerOpens(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  SIMTOMP_CHECK(n < breakers_.size(), "device number out of range");
  return breakers_[n].opens();
}

bool LaunchService::brownoutActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return brownoutActiveLocked();
}

size_t LaunchService::queuedRequests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queuedCount_;
}

uint64_t LaunchService::dispatchedOutstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatchedTotal_ - retiredTotal_;
}

uint64_t LaunchService::peakInFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peakInFlight_;
}

uint64_t LaunchService::batchesDispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

uint64_t LaunchService::amortizedResolutions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return amortized_;
}

RequestOutcome LaunchService::outcome(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  SIMTOMP_CHECK(id < requests_.size(), "request id out of range");
  const Request& request = requests_[id];
  RequestOutcome out;
  out.state = request.state;
  out.status = request.status;
  out.cycles = request.cycles;
  out.modeledLatencyCycles = request.modeledLatency;
  out.deadlineCycles = request.deadline;
  out.device = request.device;
  out.shard = request.shard;
  out.retries = static_cast<uint32_t>(request.hops.size());
  out.batchFollower = request.batchFollower;
  out.migrated = !request.hops.empty();
  return out;
}

std::vector<uint64_t> LaunchService::dispatchOrder() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatchOrder_;
}

size_t LaunchService::shardCount() const { return shardDevice_.size(); }

size_t LaunchService::shardDevice(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  SIMTOMP_CHECK(shard < shardDevice_.size(), "shard out of range");
  return shardDevice_[shard];
}

bool LaunchService::deviceServing(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  SIMTOMP_CHECK(n < breakers_.size(), "device number out of range");
  return servingLocked(n);
}

TenantStats LaunchService::tenantStats(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenantByName_.find(name);
  SIMTOMP_CHECK(it != tenantByName_.end(), "unknown tenant");
  return tenants_[it->second].stats;
}

void LaunchService::dumpStats(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  TenantStats totals;
  for (const Tenant& t : tenants_) {
    totals.submitted += t.stats.submitted;
    totals.accepted += t.stats.accepted;
    totals.shed += t.stats.shed;
    totals.evicted += t.stats.evicted;
    totals.brownoutShed += t.stats.brownoutShed;
    totals.deadlineShed += t.stats.deadlineShed;
    totals.completed += t.stats.completed;
    totals.failed += t.stats.failed;
    totals.migrated += t.stats.migrated;
    totals.batchFollowers += t.stats.batchFollowers;
    totals.deadlineHit += t.stats.deadlineHit;
    totals.deadlineMiss += t.stats.deadlineMiss;
    totals.retriesExhausted += t.stats.retriesExhausted;
    totals.retryBackoffCycles += t.stats.retryBackoffCycles;
    totals.breakerTrips += t.stats.breakerTrips;
  }
  out << "simserve stats v1\n";
  out << "service: submitted=" << totals.submitted
      << " accepted=" << totals.accepted << " shed=" << totals.shed
      << " deadline_shed=" << totals.deadlineShed
      << " brownout_shed=" << totals.brownoutShed
      << " completed=" << totals.completed << " failed=" << totals.failed
      << " migrated=" << totals.migrated << " batches=" << batches_
      << " amortized_resolutions=" << amortized_
      << " peak_queue_depth=" << peakQueueDepth_
      << " peak_inflight=" << peakInFlight_
      << " deadline_hit=" << totals.deadlineHit
      << " deadline_miss=" << totals.deadlineMiss
      << " retries_exhausted=" << totals.retriesExhausted
      << " retry_backoff_cycles=" << totals.retryBackoffCycles
      << " breaker_trips=" << totals.breakerTrips << "\n";
  // tenantByName_ is name-sorted, which makes the dump order stable.
  for (const auto& [name, id] : tenantByName_) {
    const Tenant& t = tenants_[id];
    out << "tenant " << name << ": priority=" << t.spec.priority << " "
        << t.stats.toString() << "\n";
  }
}

void LaunchService::writeTimelineLocked(std::ostream& out, const Request& r,
                                        bool physical) const {
  const TenantSpec& spec = tenants_[r.tenant].spec;
  out << "req " << r.id << " tenant=" << spec.name << " fp=" << r.fingerprint
      << " prio=" << spec.priority << " deadline=" << deadlineText(r.deadline)
      << " ahead=" << r.aheadAtAdmission << "\n";
  out << "  +0 admitted\n";
  // Only eviction sheds an admitted request.
  if (r.state == RequestState::kShed) {
    out << "  +0 evicted status=" << statusCodeName(r.status.code()) << "\n";
    return;
  }
  if (r.state == RequestState::kQueued) return;
  out << "  +" << r.aheadAtAdmission * kQueueSlotCycles
      << " dispatched role=" << (r.batchFollower ? "follower" : "leader");
  if (physical) {
    // The first dispatch went to the device the first hop left.
    out << " device=" << (r.hops.empty() ? r.device : r.hops[0].fromDevice)
        << " shard=" << r.shard;
  }
  out << "\n";
  for (size_t h = 0; h < r.hops.size(); ++h) {
    out << "  +" << r.hops[h].latency << " migrated hop=" << h + 1
        << " backoff=" << r.hops[h].backoffCycles;
    if (physical) {
      const uint32_t to =
          h + 1 < r.hops.size() ? r.hops[h + 1].fromDevice : r.device;
      out << " from_device=" << r.hops[h].fromDevice << " to_device=" << to;
    }
    out << "\n";
  }
  if (r.state == RequestState::kDone || r.state == RequestState::kFailed) {
    out << "  +" << r.modeledLatency << " retired outcome="
        << (r.state == RequestState::kDone ? "done" : "failed")
        << " status=" << statusCodeName(r.status.code())
        << " latency=" << r.modeledLatency << " cycles=" << r.cycles
        << " verdict=" << deadlineVerdictName(r.verdict) << "\n";
  }
}

void LaunchService::dumpTimelines(std::ostream& out, bool physical) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "# simserve trace v1 requests=" << requests_.size() << "\n";
  for (const Request& request : requests_) {
    writeTimelineLocked(out, request, physical);
  }
}

Status LaunchService::dumpTimeline(std::ostream& out, uint64_t id,
                                   bool physical) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= requests_.size()) {
    return Status::invalidArgument("no trace for request id " +
                                   std::to_string(id));
  }
  writeTimelineLocked(out, requests_[id], physical);
  return Status::ok();
}

void LaunchService::dumpTenantSummary(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "# simserve slo burn v1\n";
  for (const auto& [name, id] : tenantByName_) {
    const TenantStats& s = tenants_[id].stats;
    if (s.submitted == 0) continue;
    // Burn: of everything the SLO covered (scored completions plus
    // deadline-carrying arrivals shed at admission), how much did the
    // tenant lose? Integer permille keeps the line byte-stable.
    const uint64_t covered = s.deadlineHit + s.deadlineMiss + s.deadlineShed;
    const uint64_t lost = s.deadlineMiss + s.deadlineShed;
    const uint64_t permille = covered == 0 ? 0 : (1000 * lost) / covered;
    // `shed` counts evictions too; shed at submit is the rest of it
    // plus the deadline sheds.
    out << "tenant " << name << ": admitted=" << s.accepted
        << " shed_at_submit=" << s.shed - s.evicted + s.deadlineShed
        << " deadline_shed=" << s.deadlineShed << " evicted=" << s.evicted
        << " completed=" << s.completed << " failed=" << s.failed
        << " migrated_hops=" << s.migrated
        << " deadline_hit=" << s.deadlineHit
        << " deadline_miss=" << s.deadlineMiss
        << " burn_permille=" << permille << "\n";
  }
}

void LaunchService::dumpHistograms(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  LatencyHistogram queueDelay;
  for (const Request& r : requests_) {
    if (r.state == RequestState::kQueued || r.state == RequestState::kShed) {
      continue;
    }
    queueDelay.observe(r.aheadAtAdmission * kQueueSlotCycles);
  }
  out << "# simserve trace histograms v1\n";
  out << "queue_delay " << queueDelay.toString() << "\n";
  out << "batch_size total=" << batches_;
  for (size_t i = 0; i < batchSizes_.size(); ++i) {
    if (batchSizes_[i] == 0) continue;
    out << " " << (i + 1) << (i + 1 == batchSizes_.size() ? "+" : "") << "="
        << batchSizes_[i];
  }
  out << "\n";
}

void LaunchService::exportPerfetto(gpusim::TraceRecorder& recorder) const {
  // One track per tenant (named after it, numbered in order of first
  // admission), one span per dispatched request. The span's start is a
  // deterministic function of the admission sequence — requests are
  // laid out per tenant without overlap so Perfetto renders a readable
  // lane — and its duration is the request's modeled latency;
  // migrations become instants and the queue depth at admission a
  // counter track. Every coordinate is logical or modeled, so the
  // exported JSON is itself byte-identical across reruns, worker
  // counts and shard counts.
  std::lock_guard<std::mutex> lock(mu_);
  constexpr uint32_t kNoTrack = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> tenantTrack(tenants_.size(), kNoTrack);
  std::vector<uint64_t> cursor;  ///< per track: end of its last span
  for (const Request& r : requests_) {
    uint32_t& track = tenantTrack[r.tenant];
    if (track == kNoTrack) {
      track = static_cast<uint32_t>(cursor.size());
      cursor.push_back(0);
      recorder.nameTrack(track, tenants_[r.tenant].spec.name);
    }
    recorder.recordCounter("queued", r.id * kQueueSlotCycles,
                           r.aheadAtAdmission + 1);
    if (r.state == RequestState::kQueued || r.state == RequestState::kShed) {
      continue;
    }
    const bool retired =
        r.state == RequestState::kDone || r.state == RequestState::kFailed;
    const uint64_t start = std::max(cursor[track], r.id * kQueueSlotCycles);
    const uint64_t duration =
        std::max<uint64_t>(retired ? r.modeledLatency : 0, 1);
    cursor[track] = start + duration;
    std::string name = "req " + std::to_string(r.id) + " " + r.fingerprint;
    if (r.state == RequestState::kFailed) {
      name += " [failed " + std::string(statusCodeName(r.status.code())) + "]";
    }
    recorder.recordSpan(track, std::move(name), start, duration);
    for (size_t h = 0; h < r.hops.size(); ++h) {
      recorder.recordInstant("migrate req " + std::to_string(r.id) + " hop " +
                                 std::to_string(h + 1),
                             start + r.hops[h].latency);
    }
  }
}

}  // namespace simtomp::simserve
