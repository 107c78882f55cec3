// simprof metrics: process-wide named counters, gauges and histograms.
//
// A fixed catalog of runtime metrics (launches, tune-cache hits, fault
// injections, resilience retries, sharing-space high-water mark, ...)
// with Prometheus text exposition and a sorted-key JSON snapshot. All
// values derive from deterministic quantities (modeled ones, or host
// work counted per block) and every update is a commutative atomic
// add / max, so snapshots are byte-identical for any
// SIMTOMP_HOST_WORKERS.
//
// The catalog is the single source of truth: `simtomp info metrics`
// lists it, the registry allocates from it, and the writers iterate it
// — names cannot drift.
//
// SIMTOMP_METRICS=<path> arranges a dual dump of the global registry
// at process exit (for long fault/tune runs): Prometheus text at
// <path> and the JSON snapshot at <path>.json. `simtomp info
// metrics=prom|json` prints either format on demand.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <span>
#include <string_view>

namespace simtomp::simprof {

enum class MetricType : uint8_t { kCounter = 0, kGauge, kHistogram };

[[nodiscard]] std::string_view metricTypeName(MetricType type);

/// One catalog entry: stable name (Prometheus conventions), kind and a
/// one-line description shared with `simtomp info metrics`.
struct MetricDef {
  std::string_view name;
  MetricType type = MetricType::kCounter;
  std::string_view help;
};

/// The full metric catalog, in exposition order.
[[nodiscard]] std::span<const MetricDef> allMetricDefs();

// Metric names (use these with the registry; typos become link errors
// at the call site instead of silently minting new series).
namespace metric {
inline constexpr std::string_view kLaunchesTotal = "simtomp_launches_total";
inline constexpr std::string_view kLaunchFailuresTotal =
    "simtomp_launch_failures_total";
inline constexpr std::string_view kLaunchCycles = "simtomp_launch_cycles";
inline constexpr std::string_view kCheckFindingsTotal =
    "simtomp_check_findings_total";
inline constexpr std::string_view kFaultInjectionsTotal =
    "simtomp_fault_injections_total";
inline constexpr std::string_view kWatchdogTimeoutsTotal =
    "simtomp_watchdog_timeouts_total";
inline constexpr std::string_view kTuneCacheHitsTotal =
    "simtomp_tune_cache_hits_total";
inline constexpr std::string_view kTuneCacheMissesTotal =
    "simtomp_tune_cache_misses_total";
inline constexpr std::string_view kTuneTrialsTotal =
    "simtomp_tune_trials_total";
inline constexpr std::string_view kResilienceRetriesTotal =
    "simtomp_resilience_retries_total";
inline constexpr std::string_view kResilienceModeFallbacksTotal =
    "simtomp_resilience_mode_fallbacks_total";
inline constexpr std::string_view kResilienceHostSerialTotal =
    "simtomp_resilience_host_serial_total";
inline constexpr std::string_view kSharingHighWaterBytes =
    "simtomp_sharing_space_high_water_bytes";
inline constexpr std::string_view kSharingOverflowsTotal =
    "simtomp_sharing_overflows_total";
// Host work: what the simulator did on the host to run a launch.
inline constexpr std::string_view kFiberSwitchesTotal =
    "simtomp_fiber_switches_total";
inline constexpr std::string_view kFibersSpawnedTotal =
    "simtomp_fibers_spawned_total";
// simserve launch-service metrics (service-level; per-tenant breakdowns
// live in simserve::TenantStats, which the fixed catalog cannot hold).
inline constexpr std::string_view kServeRequestsTotal =
    "simtomp_serve_requests_total";
inline constexpr std::string_view kServeAcceptedTotal =
    "simtomp_serve_accepted_total";
inline constexpr std::string_view kServeShedTotal =
    "simtomp_serve_shed_total";
inline constexpr std::string_view kServeBatchesTotal =
    "simtomp_serve_batches_total";
inline constexpr std::string_view kServeMigrationsTotal =
    "simtomp_serve_migrations_total";
inline constexpr std::string_view kServeQueueDepthPeak =
    "simtomp_serve_queue_depth_peak";
inline constexpr std::string_view kServeInFlightPeak =
    "simtomp_serve_inflight_peak";
inline constexpr std::string_view kServeLatencyCycles =
    "simtomp_serve_latency_cycles";
// simserve SLO / resilience metrics (PR 9): deadline admission, retry
// budgets, circuit breakers, brownout shedding and chaos campaigns.
inline constexpr std::string_view kServeDeadlineShedTotal =
    "simtomp_serve_deadline_shed_total";
inline constexpr std::string_view kServeDeadlineHitTotal =
    "simtomp_serve_deadline_hit_total";
inline constexpr std::string_view kServeDeadlineMissTotal =
    "simtomp_serve_deadline_miss_total";
inline constexpr std::string_view kServeRetryBackoffCycles =
    "simtomp_serve_retry_backoff_cycles";
inline constexpr std::string_view kServeRetriesExhaustedTotal =
    "simtomp_serve_retries_exhausted_total";
inline constexpr std::string_view kServeBreakerTripsTotal =
    "simtomp_serve_breaker_trips_total";
inline constexpr std::string_view kServeBrownoutShedTotal =
    "simtomp_serve_brownout_shed_total";
inline constexpr std::string_view kServeChaosViolationsTotal =
    "simtomp_serve_chaos_violations_total";
// simserve request-scoped tracing (PR 10): flight-recorder volume.
inline constexpr std::string_view kServeTraceEventsTotal =
    "simtomp_serve_trace_events_total";
inline constexpr std::string_view kServeTraceDroppedTotal =
    "simtomp_serve_trace_dropped_total";
// simfuzz differential-fuzzing metrics.
inline constexpr std::string_view kFuzzProgramsTotal =
    "simtomp_fuzz_programs_total";
inline constexpr std::string_view kFuzzRunsTotal = "simtomp_fuzz_runs_total";
inline constexpr std::string_view kFuzzDivergencesTotal =
    "simtomp_fuzz_divergences_total";
inline constexpr std::string_view kFuzzMinimizeStepsTotal =
    "simtomp_fuzz_minimize_steps_total";
}  // namespace metric

/// Process-wide registry over the fixed catalog. Thread-safe: counters
/// and histogram cells are atomic adds, gauges are atomic fetch-max.
class MetricsRegistry {
 public:
  /// Histogram buckets: upper bounds 4^1 .. 4^14 cycles, plus +Inf.
  static constexpr size_t kHistogramBuckets = 15;
  /// Catalog size (static_asserted against allMetricDefs()).
  static constexpr size_t kNumMetrics = 38;

  static MetricsRegistry& global();

  /// Counter increment (no-op with a warning for unknown names).
  void add(std::string_view name, uint64_t delta = 1);
  /// Gauge high-water update (atomic max).
  void gaugeMax(std::string_view name, uint64_t value);
  /// Histogram observation.
  void observe(std::string_view name, uint64_t value);

  /// Current counter/gauge value, or a histogram's observation count.
  [[nodiscard]] uint64_t value(std::string_view name) const;
  /// A histogram's sum of observations.
  [[nodiscard]] uint64_t histogramSum(std::string_view name) const;

  /// Prometheus text exposition (HELP/TYPE + samples, catalog order).
  void writePrometheus(std::ostream& out) const;
  /// JSON snapshot, keys sorted (catalog names are already sorted per
  /// section; the writer sorts globally to guarantee it).
  void writeJson(std::ostream& out) const;

  /// Zero every value (tests; not thread-safe against concurrent use).
  void reset();

 private:
  MetricsRegistry();

  struct Cell {
    std::atomic<uint64_t> value{0};
    // Histogram-only state (unused for counters/gauges).
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };

  [[nodiscard]] int indexOf(std::string_view name) const;

  std::array<Cell, kNumMetrics> cells_;
};

}  // namespace simtomp::simprof
