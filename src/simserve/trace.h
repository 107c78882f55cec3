// Request-scoped serving traces: a deterministic observability layer
// for the launch service.
//
// Every admitted request carries an implicit trace context — its id
// (the admission sequence), tenant, fingerprint and causal hop count
// across retries/migrations — and its life is a span timeline on the
// modeled clock:
//
//   admitted -> queued(shard) -> batched(leader/follower)
//            -> dispatched(device) -> [migrated]*
//            -> retired(status, deadline verdict)
//
// Two stores, one per kind of fact:
//
//   request table    LaunchService's own `Request` records (kept for
//                    the service's lifetime, id == index) and tenant
//                    stats. The on-demand renderers — timelines, SLO
//                    burn, histograms, the Perfetto export — are
//                    LaunchService members that read only these, so
//                    they cover every request and give the same bytes
//                    with tracing off or on.
//   flight rings     the ServiceTracer below: bounded simprof::
//                    FlightRecorder rings of the service's decisions,
//                    in decision order. Rings evict, so they are the
//                    post-mortem window, never the source of a
//                    timeline.
//
// The rings are split by invariance class:
//
//   canonical ring   events whose order and content are pure functions
//                    of logical state (admission order, priorities,
//                    fingerprints, modeled cycles). Its dump is a
//                    byte-compare surface: identical across reruns,
//                    SIMTOMP_HOST_WORKERS and shard counts. Device and
//                    shard identities ride along as *physical detail*
//                    that only the physical dump mode prints — they
//                    are recorded per device/shard but kept off the
//                    canonical bytes because `hash % shardCount` and
//                    the shard->device map change with the shard
//                    count.
//   physical ring    device-lifecycle events (breaker open/half-open,
//                    panic revival, manual revival) whose very
//                    existence depends on which physical device
//                    accumulated the trips. Keeping them in their own
//                    ring keeps canonical sequence numbers and ring
//                    eviction shard-invariant — one shared bounded
//                    ring would evict different canonical events for
//                    different shard counts.
//
// Tick semantics: request-scoped events carry the request's modeled
// latency so far (admitted = +0, dispatched = queue delay, each
// migration = latency including its backoff, retired = final
// latency); epoch/breaker events carry the logical epoch. Nothing
// reads a wall clock.
//
// Zero perturbation: the tracer only observes. No modeled quantity,
// tenant stat or chaos report changes with tracing on or off — the
// service never branches on tracer state beyond the `if (tracer_)`
// null checks.
//
// The flight dump is written automatically (to TraceConfig::
// autoDumpPath) on failed launches and breaker opens, and by the
// chaos harness on invariant violations; `simtomp serve trace` prints
// the service's renderers and the rings, and exports per-tenant
// Perfetto tracks through gpusim::TraceRecorder.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

#include "simprof/recorder.h"
#include "support/status.h"

namespace simtomp::simserve {

/// Deadline sentinels. kNoDeadline = no budget (never shed or counted
/// against SLOs); kInheritDeadline (submit()'s default) = use the
/// tenant's TenantSpec::deadlineCycles.
inline constexpr uint64_t kNoDeadline =
    std::numeric_limits<uint64_t>::max();
inline constexpr uint64_t kInheritDeadline = kNoDeadline - 1;

/// A resolved deadline as trace text: the budget, or "none".
[[nodiscard]] std::string deadlineText(uint64_t deadline);

/// Power-of-4 bucket histogram (4^1 .. 4^14, +Inf) mirroring the
/// simprof registry's layout, with deterministic quantile bounds.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 15;

  void observe(uint64_t value);

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] uint64_t sum() const { return sum_; }
  /// Upper bound of the bucket containing the q-quantile observation
  /// (0 when empty; UINT64_MAX for the +Inf bucket).
  [[nodiscard]] uint64_t quantileUpperBound(double q) const;
  /// "count=N sum=S p50<=X p99<=Y" (X/Y print "inf" for +Inf).
  [[nodiscard]] std::string toString() const;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// Tracing knobs on ServiceConfig. Off by default: the flight rings
/// format and retain a string per event, and while they never perturb
/// modeled stats, a service nobody will post-mortem should not pay
/// that host-side cost. The renderers on LaunchService work either way.
struct TraceConfig {
  bool enabled = false;
  /// Canonical/physical flight-ring capacity (events retained).
  size_t ringCapacity = 8192;
  /// When non-empty: rewrite this file with the canonical flight dump
  /// on every failure trigger (failed launch, breaker open, chaos
  /// invariant violation). Diagnostic output — the on-demand dumps are
  /// the byte-compare surfaces, because *when* the last trigger fired
  /// can depend on physical device state.
  std::string autoDumpPath;
};

/// Deadline verdicts in retirement events and timelines.
enum class DeadlineVerdict : int8_t { kNone = -1, kMiss = 0, kHit = 1 };

[[nodiscard]] std::string_view deadlineVerdictName(DeadlineVerdict verdict);

/// The serving-layer flight recorder: two rings and nothing else.
/// Every note*() hook formats exactly one ring line. Hooks are called
/// by LaunchService under its lock, in the deterministic logical order
/// the service makes its decisions — the tracer itself is not
/// separately synchronized, and the dump surfaces must only be read
/// when no pump()/drain() is in flight.
class ServiceTracer {
 public:
  explicit ServiceTracer(TraceConfig config);

  ServiceTracer(const ServiceTracer&) = delete;
  ServiceTracer& operator=(const ServiceTracer&) = delete;

  // --- hooks (service-lock order) --------------------------------
  void noteAdmitted(uint64_t id, const std::string& tenant,
                    const std::string& fingerprint, uint32_t priority,
                    uint64_t deadline, uint64_t queueAhead);
  /// A request refused at submit() (no id was assigned).
  void noteShedAtSubmit(const std::string& tenant, std::string_view reason);
  /// A queued request displaced by a higher-priority arrival.
  void noteEvicted(uint64_t id, const std::string& tenant);
  void noteDispatched(uint64_t id, bool batchFollower,
                      uint64_t queueDelayCycles, uint32_t device,
                      uint32_t shard);
  /// A same-fingerprint batch left the pump (size includes the leader).
  void noteBatch(const std::string& fingerprint, uint32_t size);
  /// Hop `hop` (1-based) moved the request off a lost device.
  void noteMigrated(uint64_t id, uint32_t hop, uint64_t backoffCycles,
                    uint64_t latencySoFar, uint32_t fromDevice,
                    uint32_t toDevice);
  /// The request ran out of retries at `tick` after `hops` migrations.
  void noteRetryExhausted(uint64_t id, uint64_t tick, uint32_t hops);
  /// One stranded request charged one trip to its device's breaker.
  void noteBreakerTrip(const std::string& tenant, uint32_t device);
  void noteRetired(uint64_t id, bool ok, StatusCode code, uint64_t latency,
                   uint64_t cycles, DeadlineVerdict verdict);
  void noteEpoch(uint64_t epoch);
  // Physical-ring events (device lifecycle; see the header comment on
  // why these must not share the canonical ring).
  void noteBreakerOpened(uint32_t device, uint64_t epoch);
  void noteBreakerHalfOpen(uint32_t device, uint64_t epoch);
  void notePanicRevival(uint32_t device, uint64_t epoch);
  void noteDeviceRevived(uint32_t device, uint64_t epoch);

  /// Failure trigger (failed launch, breaker open, chaos violation):
  /// rewrite TraceConfig::autoDumpPath with the flight dump, when set.
  void onFailureTrigger(std::string_view reason);

  // --- dump surfaces ---------------------------------------------
  /// Flight-recorder dump: canonical ring, plus the physical ring in
  /// physical mode.
  void dumpFlight(std::ostream& out, bool physical,
                  std::string_view trigger = "on_demand") const;
  /// dumpFlight() into `path`, rewriting it.
  [[nodiscard]] Status dumpFlightToFile(const std::string& path,
                                        bool physical,
                                        std::string_view trigger) const;

  [[nodiscard]] const simprof::FlightRecorder& canonicalRing() const {
    return canonical_;
  }
  [[nodiscard]] const simprof::FlightRecorder& physicalRing() const {
    return physical_;
  }

 private:
  void recordCanonical(uint64_t tick, std::string category,
                       std::string detail, std::string physicalDetail = "");
  void recordPhysical(uint64_t tick, std::string category,
                      std::string detail);

  TraceConfig config_;
  simprof::FlightRecorder canonical_;
  simprof::FlightRecorder physical_;
};

}  // namespace simtomp::simserve
