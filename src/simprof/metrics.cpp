#include "simprof/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "support/log.h"

namespace simtomp::simprof {

namespace {

constexpr MetricDef kCatalog[] = {
    {metric::kLaunchesTotal, MetricType::kCounter,
     "Kernel launches attempted on any simulated device"},
    {metric::kLaunchFailuresTotal, MetricType::kCounter,
     "Kernel launches that returned a non-ok status"},
    {metric::kLaunchCycles, MetricType::kHistogram,
     "Modeled end-to-end cycles of successful launches"},
    {metric::kCheckFindingsTotal, MetricType::kCounter,
     "simcheck diagnostics reported across all launches"},
    {metric::kFaultInjectionsTotal, MetricType::kCounter,
     "Fault specs that armed on a launch attempt, counted per attempt"},
    {metric::kWatchdogTimeoutsTotal, MetricType::kCounter,
     "Launches killed by the per-block watchdog step budget"},
    {metric::kTuneCacheHitsTotal, MetricType::kCounter,
     "simtune cache lookups that found a usable entry"},
    {metric::kTuneCacheMissesTotal, MetricType::kCounter,
     "simtune cache lookups that missed"},
    {metric::kTuneTrialsTotal, MetricType::kCounter,
     "Trial launches executed by simtune search strategies"},
    {metric::kResilienceRetriesTotal, MetricType::kCounter,
     "Same-shape retry attempts by the resilient launch path"},
    {metric::kResilienceModeFallbacksTotal, MetricType::kCounter,
     "SIMD -> generic mode fallbacks by the resilient launch path"},
    {metric::kResilienceHostSerialTotal, MetricType::kCounter,
     "Host-serial reference executions (last resilience rung)"},
    {metric::kSharingHighWaterBytes, MetricType::kGauge,
     "High-water mark of bytes staged through any sharing space"},
    {metric::kSharingOverflowsTotal, MetricType::kCounter,
     "Sharing-space overflows to global memory"},
    {metric::kFiberSwitchesTotal, MetricType::kCounter,
     "Fiber switches (scheduler steps) of successful launches"},
    {metric::kFibersSpawnedTotal, MetricType::kCounter,
     "Fibers (simulated GPU threads) spawned by successful launches"},
    {metric::kServeRequestsTotal, MetricType::kCounter,
     "Launch requests submitted to any simserve LaunchService"},
    {metric::kServeAcceptedTotal, MetricType::kCounter,
     "Launch requests admitted past quota and queue bounds"},
    {metric::kServeShedTotal, MetricType::kCounter,
     "Launch requests shed (RESOURCE_EXHAUSTED) by admission control"},
    {metric::kServeBatchesTotal, MetricType::kCounter,
     "Same-kernel batches dispatched by the launch service"},
    {metric::kServeMigrationsTotal, MetricType::kCounter,
     "Requests migrated off a faulted device to a healthy shard"},
    {metric::kServeQueueDepthPeak, MetricType::kGauge,
     "High-water mark of the launch service's logical queue depth"},
    {metric::kServeInFlightPeak, MetricType::kGauge,
     "High-water mark of dispatched-not-retired launch requests"},
    {metric::kServeLatencyCycles, MetricType::kHistogram,
     "Modeled request latency (queue model + execution cycles)"},
    {metric::kServeDeadlineShedTotal, MetricType::kCounter,
     "Requests shed at admission because the modeled queue-ahead cost "
     "exceeded their deadline budget"},
    {metric::kServeDeadlineHitTotal, MetricType::kCounter,
     "Completed requests whose modeled latency met their deadline"},
    {metric::kServeDeadlineMissTotal, MetricType::kCounter,
     "Completed requests whose modeled latency exceeded their deadline"},
    {metric::kServeRetryBackoffCycles, MetricType::kHistogram,
     "Modeled backoff cycles charged to re-dispatched requests"},
    {metric::kServeRetriesExhaustedTotal, MetricType::kCounter,
     "Requests failed because their tenant retry budget ran out"},
    {metric::kServeBreakerTripsTotal, MetricType::kCounter,
     "Circuit-breaker trips (one per request stranded by a fault)"},
    {metric::kServeBrownoutShedTotal, MetricType::kCounter,
     "Requests shed by brownout (queue past its high-water mark)"},
    {metric::kServeChaosViolationsTotal, MetricType::kCounter,
     "Service invariant violations found by chaos campaigns"},
    {metric::kServeTraceEventsTotal, MetricType::kCounter,
     "Structured events appended to serving flight-recorder rings"},
    {metric::kServeTraceDroppedTotal, MetricType::kCounter,
     "Flight-recorder events evicted by the ring capacity bound"},
    {metric::kFuzzProgramsTotal, MetricType::kCounter,
     "Random kernel programs produced by the simfuzz generator"},
    {metric::kFuzzRunsTotal, MetricType::kCounter,
     "Simulator executions performed by the simfuzz differential matrix"},
    {metric::kFuzzDivergencesTotal, MetricType::kCounter,
     "Generated programs whose differential matrix flagged a divergence"},
    {metric::kFuzzMinimizeStepsTotal, MetricType::kCounter,
     "Accepted shrink steps across all simfuzz minimizations"},
};

static_assert(std::size(kCatalog) == MetricsRegistry::kNumMetrics,
              "metric catalog and registry cell count out of sync");

/// Histogram bucket upper bounds: 4^1 .. 4^(kHistogramBuckets-1), +Inf.
uint64_t bucketBound(size_t i) { return uint64_t{1} << (2 * (i + 1)); }

size_t bucketFor(uint64_t value) {
  for (size_t i = 0; i + 1 < MetricsRegistry::kHistogramBuckets; ++i) {
    if (value <= bucketBound(i)) return i;
  }
  return MetricsRegistry::kHistogramBuckets - 1;
}

}  // namespace

std::string_view metricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

std::span<const MetricDef> allMetricDefs() { return kCatalog; }

MetricsRegistry::MetricsRegistry() {
  // SIMTOMP_METRICS=<path>: dual dump at exit so long fault/tune runs
  // keep their metrics without code changes — Prometheus exposition at
  // <path> plus the sorted-key JSON snapshot at <path>.json.
  if (const char* path = std::getenv("SIMTOMP_METRICS")) {
    static std::string g_dump_path;
    g_dump_path = path;
    std::atexit([] {
      std::ofstream out(g_dump_path);
      if (!out) {
        SIMTOMP_WARN("simprof: cannot write SIMTOMP_METRICS file %s",
                     g_dump_path.c_str());
        return;
      }
      MetricsRegistry::global().writePrometheus(out);
      std::ofstream json(g_dump_path + ".json");
      if (!json) {
        SIMTOMP_WARN("simprof: cannot write SIMTOMP_METRICS file %s.json",
                     g_dump_path.c_str());
        return;
      }
      MetricsRegistry::global().writeJson(json);
    });
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

int MetricsRegistry::indexOf(std::string_view name) const {
  for (size_t i = 0; i < std::size(kCatalog); ++i) {
    if (kCatalog[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void MetricsRegistry::add(std::string_view name, uint64_t delta) {
  const int i = indexOf(name);
  if (i < 0) {
    SIMTOMP_WARN("simprof: unknown metric %.*s",
                 static_cast<int>(name.size()), name.data());
    return;
  }
  cells_[static_cast<size_t>(i)].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
}

void MetricsRegistry::gaugeMax(std::string_view name, uint64_t value) {
  const int i = indexOf(name);
  if (i < 0) return;
  std::atomic<uint64_t>& cell = cells_[static_cast<size_t>(i)].value;
  uint64_t seen = cell.load(std::memory_order_relaxed);
  while (seen < value &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::observe(std::string_view name, uint64_t value) {
  const int i = indexOf(name);
  if (i < 0) return;
  Cell& cell = cells_[static_cast<size_t>(i)];
  cell.value.fetch_add(1, std::memory_order_relaxed);
  cell.sum.fetch_add(value, std::memory_order_relaxed);
  cell.buckets[bucketFor(value)].fetch_add(1, std::memory_order_relaxed);
}

uint64_t MetricsRegistry::value(std::string_view name) const {
  const int i = indexOf(name);
  if (i < 0) return 0;
  return cells_[static_cast<size_t>(i)].value.load(std::memory_order_relaxed);
}

uint64_t MetricsRegistry::histogramSum(std::string_view name) const {
  const int i = indexOf(name);
  if (i < 0) return 0;
  return cells_[static_cast<size_t>(i)].sum.load(std::memory_order_relaxed);
}

void MetricsRegistry::writePrometheus(std::ostream& out) const {
  for (size_t i = 0; i < std::size(kCatalog); ++i) {
    const MetricDef& def = kCatalog[i];
    const Cell& cell = cells_[i];
    out << "# HELP " << def.name << " " << def.help << "\n";
    out << "# TYPE " << def.name << " " << metricTypeName(def.type) << "\n";
    if (def.type == MetricType::kHistogram) {
      uint64_t cumulative = 0;
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        cumulative += cell.buckets[b].load(std::memory_order_relaxed);
        out << def.name << "_bucket{le=\"";
        if (b + 1 < kHistogramBuckets) {
          out << bucketBound(b);
        } else {
          out << "+Inf";
        }
        out << "\"} " << cumulative << "\n";
      }
      out << def.name << "_sum " << cell.sum.load(std::memory_order_relaxed)
          << "\n";
      out << def.name << "_count "
          << cell.value.load(std::memory_order_relaxed) << "\n";
    } else {
      out << def.name << " " << cell.value.load(std::memory_order_relaxed)
          << "\n";
    }
  }
}

void MetricsRegistry::writeJson(std::ostream& out) const {
  // Sorted-key snapshot: collect "name": value fragments and sort.
  std::vector<std::string> entries;
  entries.reserve(std::size(kCatalog));
  for (size_t i = 0; i < std::size(kCatalog); ++i) {
    const MetricDef& def = kCatalog[i];
    const Cell& cell = cells_[i];
    std::string entry = "\"";
    entry += def.name;
    entry += "\": ";
    if (def.type == MetricType::kHistogram) {
      entry += "{\"count\": ";
      entry += std::to_string(cell.value.load(std::memory_order_relaxed));
      entry += ", \"sum\": ";
      entry += std::to_string(cell.sum.load(std::memory_order_relaxed));
      entry += ", \"buckets\": [";
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        if (b > 0) entry += ", ";
        entry += std::to_string(cell.buckets[b].load(std::memory_order_relaxed));
      }
      entry += "]}";
    } else {
      entry += std::to_string(cell.value.load(std::memory_order_relaxed));
    }
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end());
  out << "{\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    out << "  " << entries[i];
    if (i + 1 < entries.size()) out << ",";
    out << "\n";
  }
  out << "}\n";
}

void MetricsRegistry::reset() {
  for (Cell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
    cell.sum.store(0, std::memory_order_relaxed);
    for (auto& b : cell.buckets) b.store(0, std::memory_order_relaxed);
  }
}

}  // namespace simtomp::simprof
