// simserve: a multi-tenant launch service in front of DeviceManager.
//
// The runtime below this layer executes one launch per call; simserve
// treats launches as *requests* from named tenants and serves many of
// them across the manager's simulated devices:
//
//   - sharded submission: requests are hashed by kernel fingerprint
//     onto shards, and each shard maps to a device, so same-kernel
//     requests co-locate (tune-cache and dispatch-plan reuse).
//   - admission control: per-tenant quotas (maxQueued, maxInFlight)
//     and a global queue bound, with deterministic shedding — on
//     overflow the lowest-priority newest queued request (possibly the
//     incoming one) gets RESOURCE_EXHAUSTED.
//   - deterministic weighted scheduling: requests are queued in
//     priority classes; classes are served by deficit-weighted round
//     robin (a class with priority p gets p dispatches per round) and
//     *within* a class strictly by arrival sequence — so all-equal
//     priorities degrade to global arrival order.
//   - same-kernel batching: adjacent queued requests with one
//     fingerprint dispatch as a batch that resolves the effective
//     config (defaults, tune cache, auto shape) once.
//   - fault handling: a launch failing with UNAVAILABLE quiesces its
//     device (simfault health machine: faulted -> reset), reassigns
//     the device's shards to healthy devices, and re-dispatches the
//     failed requests in their original dispatch order — accepted
//     requests are never lost or reordered within their shard.
//   - SLOs: per-request modeled deadline budgets checked at admission
//     (shed DEADLINE_EXCEEDED when the queue-ahead cost alone blows
//     the budget) and scored at retirement (deadline hit/miss).
//   - resilience: simfault::decideRetry (DeviceManager's retry rule)
//     decides re-dispatch under per-tenant retry budgets. Each device
//     carries a circuit breaker (simfault::CircuitBreaker on a logical
//     epoch clock = completed drains), the service's only per-device
//     state: an open breaker takes its device out of the shard map
//     until a cool-down, then the device probes while half-open.
//   - brownout: past a queue high-water mark the service sheds
//     lowest-priority arrivals and disables batching before the hard
//     bound refuses work outright.
//
// Determinism contract: given the same submission sequence and the
// same pump()/drain() call structure, every published statistic —
// per-tenant counts and modeled-latency histograms, batch and
// migration counters — is byte-identical for any SIMTOMP_HOST_WORKERS
// and any shard count (over homogeneous devices). This holds because
// every decision that feeds a statistic is a pure function of logical
// state (arrival sequence, tenant, priority, queue contents) and of
// modeled cycles, never of wall-clock or thread interleaving. The
// physical interleaving of executions varies freely; the stats do not.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "hostrt/device_manager.h"
#include "omprt/target.h"
#include "simfault/breaker.h"
#include "simfault/resilience.h"
#include "simserve/trace.h"
#include "support/status.h"

namespace simtomp::gpusim {
class TraceRecorder;
}  // namespace simtomp::gpusim

namespace simtomp::simserve {

/// A named client of the launch service.
struct TenantSpec {
  std::string name;
  /// Scheduling weight: a priority-p class receives p dispatches per
  /// round for each 1 a priority-1 class receives. Must be >= 1.
  uint32_t priority = 1;
  /// Dispatch budget between drains (caps device-queue occupancy per
  /// wave). 0 suspends the tenant: every submission is shed.
  uint32_t maxInFlight = 64;
  /// Admitted-but-undispatched cap. 0 suspends the tenant.
  uint32_t maxQueued = 256;
  /// Default modeled-latency deadline budget (cycles) for this
  /// tenant's requests; admission sheds a request (DEADLINE_EXCEEDED)
  /// when the modeled queue-ahead cost alone already exceeds it, and
  /// retirement scores the final modeled latency against it
  /// (deadlineHit / deadlineMiss). kNoDeadline = no SLO.
  uint64_t deadlineCycles = kNoDeadline;
  /// Re-dispatch budget after device loss: a request may migrate at
  /// most this many times before it fails with UNAVAILABLE ("retry
  /// budget exhausted"). 0 = fail on the first loss.
  uint32_t maxRetries = 3;
};

struct ServiceConfig {
  /// Submission shards (kernel fingerprints hash onto shards, shards
  /// map onto devices). 0 = one shard per device.
  uint32_t shardCount = 0;
  /// Global logical-queue bound; beyond it the shedding rule applies.
  uint64_t maxQueued = 4096;
  /// Brownout high-water mark on the global logical queue. While
  /// queue occupancy is at or past it, arrivals from the lowest
  /// registered priority are shed and same-kernel batching is
  /// disabled — graceful degradation before the hard maxQueued bound
  /// refuses work outright. 0 derives (maxQueued * 3) / 4; any value
  /// > maxQueued disables brownout.
  uint64_t brownoutHighWater = 0;
  /// Per-device circuit breaker (logical-epoch trip window; epochs are
  /// counted drain() completions). tripThreshold 0 disables breakers,
  /// restoring unconditional post-reset re-admission.
  simfault::BreakerPolicy breaker{};
  /// Never let the serving set empty: when every device's breaker is
  /// open, the breaker closest to its reopen epoch is forced
  /// half-open so traffic keeps flowing (panic revival). Disable to
  /// make total device loss fail pending work instead.
  bool panicRevival = true;
  /// Flight-recorder rings (see simserve/trace.h). Purely
  /// observational: enabling them changes no modeled statistic, and
  /// the request renderers below work with them off.
  TraceConfig trace{};
};

enum class RequestState : uint8_t {
  kQueued = 0,  ///< admitted, awaiting dispatch
  kShed,        ///< refused (or evicted) by admission control
  kDispatched,  ///< handed to a device task queue
  kDone,        ///< completed successfully
  kFailed,      ///< completed with a non-ok status
};

[[nodiscard]] std::string_view requestStateName(RequestState state);

// Modeled-latency constants (cycles). A request's modeled latency is
//   aheadAtAdmission * kQueueSlotCycles        (queueing model)
// + kDispatchCycles or kBatchFollowCycles      (dispatch; followers
//                                               amortize the batch
//                                               leader's resolution)
// + kDispatchCycles per migration              (re-dispatch overhead)
// + its own KernelStats.cycles                 (execution).
// Every term is logical or modeled, hence reproducible.
inline constexpr uint64_t kQueueSlotCycles = 16;
inline constexpr uint64_t kDispatchCycles = 256;
inline constexpr uint64_t kBatchFollowCycles = 32;
// Hop h is charged kDispatchCycles + min(64 << (h-1), 4096) backoff.
inline constexpr simfault::BackoffSchedule kRetryBackoffCycles{64, 4096};
/// Same-fingerprint coalescing bound per dispatch.
inline constexpr uint32_t kMaxBatch = 16;

/// Per-tenant service counters; toString() is a byte-identity surface.
/// Every field is a pure function of logical state and modeled cycles
/// (never of which physical device served a shard), so the dump stays
/// byte-identical across worker counts, shard counts and reruns.
/// Conservation: submitted == accepted + (shed - evicted) + deadlineShed
/// (an evicted request was accepted first, then counted shed+evicted).
struct TenantStats {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t shed = 0;      ///< refused at submit or evicted later
  uint64_t evicted = 0;   ///< subset of shed: displaced after admission
  uint64_t brownoutShed = 0;  ///< subset of shed: brownout arrivals
  uint64_t deadlineShed = 0;  ///< DEADLINE_EXCEEDED at admission
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t migrated = 0;  ///< re-dispatched off a faulted device
  uint64_t batchFollowers = 0;
  // SLO surface (PR 9): deadline scoring at retirement, retry-budget
  // accounting and breaker trips charged to the faulting request.
  uint64_t deadlineHit = 0;   ///< completed within the deadline budget
  uint64_t deadlineMiss = 0;  ///< completed past the deadline budget
  uint64_t retriesExhausted = 0;  ///< failed: retry budget ran out
  uint64_t retryBackoffCycles = 0;  ///< modeled backoff charged in total
  uint64_t breakerTrips = 0;  ///< faults this tenant's requests hit
  LatencyHistogram latency;

  [[nodiscard]] std::string toString() const;
};

/// Snapshot of one request's lifecycle.
struct RequestOutcome {
  RequestState state = RequestState::kQueued;
  Status status;
  uint64_t cycles = 0;                ///< KernelStats.cycles when done
  uint64_t modeledLatencyCycles = 0;  ///< final only when done
  uint64_t deadlineCycles = kNoDeadline;  ///< resolved budget
  uint32_t device = 0;                ///< last device dispatched to
  uint32_t shard = 0;
  uint32_t retries = 0;               ///< re-dispatch hops taken
  bool batchFollower = false;
  bool migrated = false;
};

/// The launch service. submit() is safe from any thread; pump(),
/// drain() and runToCompletion() must be driven by one service thread
/// (they are the scheduler, and the deterministic dispatch order is
/// defined by that single consumer).
class LaunchService {
 public:
  explicit LaunchService(hostrt::DeviceManager& manager,
                         ServiceConfig config = {});

  LaunchService(const LaunchService&) = delete;
  LaunchService& operator=(const LaunchService&) = delete;

  /// Register a tenant before it submits. Rejects duplicates, empty
  /// names and priority 0.
  Status registerTenant(TenantSpec spec);

  /// Admit (or deterministically shed) one launch request. Returns the
  /// request id on admission; RESOURCE_EXHAUSTED when this request was
  /// shed (quota, brownout or global bound); DEADLINE_EXCEEDED when
  /// the modeled queue-ahead cost already exceeds its deadline budget;
  /// INVALID_ARGUMENT for unknown tenants. `fingerprint` keys sharding
  /// and batching ("" derives one from tuneKey/shape — callers wanting
  /// co-location should pass a stable kernel name). `deadlineCycles`
  /// overrides the tenant's default budget (kInheritDeadline keeps it;
  /// kNoDeadline opts this request out of SLO scoring).
  Result<uint64_t> submit(std::string_view tenant,
                          omprt::TargetConfig config,
                          omprt::TargetRegionFn region,
                          std::string fingerprint = "",
                          uint64_t deadlineCycles = kInheritDeadline);

  /// Dispatch every eligible queued request into the device task
  /// queues, in the deterministic weighted order, forming same-kernel
  /// batches. Returns the number dispatched.
  size_t pump();

  /// Retire every dispatched request (blocking on the device queues),
  /// migrating UNAVAILABLE failures to healthy devices. Resets the
  /// per-tenant in-flight budgets. Non-ok only when no healthy device
  /// remains for work that still needs one.
  Status drain();

  /// pump()/drain() cycles until the logical queue is empty and every
  /// dispatched request retired.
  Status runToCompletion();

  /// Manually re-admit a quiesced device or one whose breaker is open:
  /// force-close its breaker and restore the canonical shard mapping
  /// over the serving devices.
  void reviveDevice(size_t n);

  /// Logical clock: completed drain() calls. Breaker windows and
  /// cool-downs are measured in these epochs.
  [[nodiscard]] uint64_t epoch() const;
  /// Device n's breaker state / lifetime trip count / open count.
  /// (Trip totals are shard-invariant; states and open counts depend
  /// on which physical device accumulated the faults, so they stay off
  /// the byte-identity surfaces.)
  [[nodiscard]] simfault::BreakerState breakerState(size_t n) const;
  [[nodiscard]] uint64_t breakerTrips(size_t n) const;
  [[nodiscard]] uint64_t breakerOpens(size_t n) const;
  /// True while global queue occupancy is at or past the brownout
  /// high-water mark.
  [[nodiscard]] bool brownoutActive() const;

  [[nodiscard]] size_t queuedRequests() const;
  [[nodiscard]] uint64_t dispatchedOutstanding() const;
  /// High-water mark of dispatched-not-retired requests, measured at
  /// pump boundaries (logical, hence deterministic).
  [[nodiscard]] uint64_t peakInFlight() const;
  [[nodiscard]] uint64_t batchesDispatched() const;
  /// Tune-cache/config resolutions saved by batching (batch sizes - 1).
  [[nodiscard]] uint64_t amortizedResolutions() const;
  [[nodiscard]] RequestOutcome outcome(uint64_t id) const;
  /// Request ids in dispatch order (re-dispatches append again).
  [[nodiscard]] std::vector<uint64_t> dispatchOrder() const;
  [[nodiscard]] size_t shardCount() const;
  [[nodiscard]] size_t shardDevice(size_t shard) const;
  /// Whether device n takes traffic: its breaker is not open.
  [[nodiscard]] bool deviceServing(size_t n) const;
  /// Copy of a tenant's stats (aborts on unknown name).
  [[nodiscard]] TenantStats tenantStats(std::string_view name) const;

  /// Deterministic stats dump: service totals plus per-tenant lines,
  /// tenants sorted by name. The byte-compare surface for CI.
  void dumpStats(std::ostream& out) const;

  // Request renderers (simserve/trace.h). They read the request table
  // and tenant stats, so they cover every admitted request whether or
  // not the flight rings are on. `physical` adds device/shard detail,
  // which is off the canonical (byte-compare) bytes.
  /// Every admitted request's span timeline, in admission order.
  void dumpTimelines(std::ostream& out, bool physical) const;
  /// One request's timeline; non-ok for ids never admitted.
  [[nodiscard]] Status dumpTimeline(std::ostream& out, uint64_t id,
                                    bool physical) const;
  /// Per-tenant SLO burn summary: tenants that submitted, by name.
  void dumpTenantSummary(std::ostream& out) const;
  /// Queue-delay and batch-size histograms.
  void dumpHistograms(std::ostream& out) const;
  /// Export per-tenant tracks (one span per request on the modeled
  /// clock, migration instants, a queue-depth counter) into a
  /// TraceRecorder for Perfetto/chrome://tracing.
  void exportPerfetto(gpusim::TraceRecorder& recorder) const;

  /// The flight rings, or nullptr when ServiceConfig::trace.enabled
  /// is false. Read its dump surfaces only between pump()/drain()
  /// waves (the hooks run under the service lock; the dumps do not).
  [[nodiscard]] ServiceTracer* tracer() const { return tracer_.get(); }

 private:
  struct Tenant {
    TenantSpec spec;
    TenantStats stats;
    uint64_t queued = 0;
    uint64_t dispatchedSinceDrain = 0;
  };

  /// One migration hop: the device the request left, the modeled
  /// backoff charged and the modeled latency after the hop.
  struct Hop {
    uint32_t fromDevice = 0;
    uint64_t backoffCycles = 0;
    uint64_t latency = 0;
  };

  struct Request {
    uint64_t id = 0;
    uint32_t tenant = 0;
    uint32_t shard = 0;
    std::string fingerprint;
    omprt::TargetConfig config;
    omprt::TargetRegionFn region;
    RequestState state = RequestState::kQueued;
    uint64_t aheadAtAdmission = 0;
    uint64_t modeledLatency = 0;
    uint64_t cycles = 0;
    uint64_t deadline = kNoDeadline;  ///< resolved at admission
    uint32_t device = 0;  ///< current (last) device
    bool batchFollower = false;
    DeadlineVerdict verdict = DeadlineVerdict::kNone;  ///< set when done
    /// Migrations in order; empty (and unallocated) unless migrated.
    /// The next retry is number hops.size() + 1.
    std::vector<Hop> hops;
    Status status;
    std::future<Result<gpusim::KernelStats>> future;
  };

  /// One priority class: a global-FIFO deque of request ids plus the
  /// class's remaining round credits.
  struct PriorityClass {
    std::deque<uint64_t> fifo;
    uint32_t credits = 0;
  };

  [[nodiscard]] bool tenantHasBudget(const Tenant& t) const {
    return t.dispatchedSinceDrain < t.spec.maxInFlight;
  }
  /// First fifo position whose tenant still has dispatch budget, or
  /// npos.
  [[nodiscard]] size_t firstEligible(const PriorityClass& cls) const;
  void shedRequest(Request& request, bool evicted, std::string why);
  void dispatchLocked(Request& request, size_t device,
                      const omprt::TargetConfig& resolved,
                      bool batch_follower);
  void rebuildShardMapLocked();
  void writeTimelineLocked(std::ostream& out, const Request& request,
                           bool physical) const;
  /// A request stranded by a lost device, and the retry rule's verdict.
  struct Stranded {
    uint64_t id = 0;
    simfault::RetryDecision retry;
  };
  [[nodiscard]] Status migrateLocked(const std::vector<Stranded>& stranded);
  void notePumpWatermarksLocked();
  [[nodiscard]] bool servingLocked(size_t d) const {
    return breakers_[d].state() != simfault::BreakerState::kOpen;
  }
  [[nodiscard]] bool anyServingLocked() const;
  [[nodiscard]] bool brownoutActiveLocked() const {
    return queuedCount_ >= config_.brownoutHighWater;
  }
  /// Advance breakers to epoch_: open breakers whose cool-down elapsed
  /// go half-open and their devices rejoin the shard map as probes.
  void advanceBreakersLocked();

  hostrt::DeviceManager* mgr_;
  ServiceConfig config_;
  /// Created once in the constructor when tracing is enabled; every
  /// hook call is guarded by `if (tracer_)`.
  std::unique_ptr<ServiceTracer> tracer_;

  mutable std::mutex mu_;
  std::vector<Tenant> tenants_;
  std::map<std::string, uint32_t, std::less<>> tenantByName_;
  std::deque<Request> requests_;  ///< id == index; references stable
  /// Priority classes, highest priority first.
  std::map<uint32_t, PriorityClass, std::greater<uint32_t>> classes_;
  std::vector<uint64_t> dispatchOrder_;
  size_t retireCursor_ = 0;  ///< next dispatchOrder_ entry to retire
  std::vector<size_t> shardDevice_;
  /// Per-device circuit breakers driven by the logical epoch clock.
  std::vector<simfault::CircuitBreaker> breakers_;
  uint64_t epoch_ = 0;  ///< completed drain() calls
  /// Lowest priority among registered tenants (brownout shed target).
  uint32_t minPriority_ = std::numeric_limits<uint32_t>::max();
  uint64_t queuedCount_ = 0;
  uint64_t dispatchedTotal_ = 0;
  uint64_t retiredTotal_ = 0;
  uint64_t peakInFlight_ = 0;
  uint64_t peakQueueDepth_ = 0;
  uint64_t batches_ = 0;
  /// Batch-size counts, sizes 1..kMaxBatch (index size-1).
  std::array<uint64_t, kMaxBatch> batchSizes_{};
  uint64_t amortized_ = 0;
};

/// FNV-1a over the fingerprint — stable across platforms (std::hash is
/// not), so shard placement is part of the reproducibility contract.
[[nodiscard]] uint64_t fingerprintHash(std::string_view fingerprint);

}  // namespace simtomp::simserve
