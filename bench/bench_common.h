// Shared helpers for the benchmark harnesses.
//
// The metric of interest is *simulated device cycles*, not host wall
// time, so every benchmark runs its kernel once and reports cycles (and
// derived speedups) through google-benchmark counters. Each binary also
// prints a paper-style summary table so the series can be compared to
// the corresponding figure directly (see EXPERIMENTS.md), and — so the
// perf trajectory can be tracked across PRs by machines, not eyeballs —
// every printed series is mirrored into BENCH_<name>.json via
// writeBenchJson(). Host wall time appears as an extra column/field
// when a series records it (Row::hostMs), which is how the
// host-parallel block executor's wall-clock wins are measured without
// disturbing the cycle numbers.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "gpusim/stats.h"
#include "support/json.h"
#include "support/status.h"

namespace simtomp::bench {

/// One printed row: label + cycles + speedup vs the series baseline.
/// hostMs is optional host wall-clock for the run (0 = not measured).
struct Row {
  std::string label;
  uint64_t cycles = 0;
  double speedup = 1.0;
  double hostMs = 0.0;
};

namespace detail {

struct Series {
  std::string title;
  std::string baselineLabel;
  uint64_t baselineCycles = 0;
  std::vector<Row> rows;
};

/// Every series printed by this binary, in print order.
inline std::vector<Series>& seriesLog() {
  static std::vector<Series> log;
  return log;
}

}  // namespace detail

inline void printTable(const char* title, const char* baseline_label,
                       uint64_t baseline_cycles,
                       const std::vector<Row>& rows) {
  bool have_host_ms = false;
  for (const Row& row : rows) have_host_ms |= row.hostMs > 0.0;

  std::printf("\n=== %s ===\n", title);
  std::printf("%-28s %14s %10s%s\n", "configuration", "sim cycles", "speedup",
              have_host_ms ? "    host ms" : "");
  std::printf("%-28s %14llu %10s\n", baseline_label,
              static_cast<unsigned long long>(baseline_cycles), "1.00x");
  for (const Row& row : rows) {
    if (have_host_ms) {
      std::printf("%-28s %14llu %9.2fx %10.2f\n", row.label.c_str(),
                  static_cast<unsigned long long>(row.cycles), row.speedup,
                  row.hostMs);
    } else {
      std::printf("%-28s %14llu %9.2fx\n", row.label.c_str(),
                  static_cast<unsigned long long>(row.cycles), row.speedup);
    }
  }
  std::fflush(stdout);
  detail::seriesLog().push_back(
      {title, baseline_label, baseline_cycles, rows});
}

/// Write every series printed so far to BENCH_<name>.json in the
/// working directory (label → sim cycles, host wall time, speedup,
/// modeled-cycles-per-host-second throughput). Call once at the end of
/// each benchmark binary's main().
inline Status writeBenchJson(const char* name) {
  std::string out = "{\n  \"bench\": \"";
  out += jsonEscaped(name);
  out += "\",\n  \"series\": [\n";
  const auto& log = detail::seriesLog();
  char buf[256];
  for (size_t s = 0; s < log.size(); ++s) {
    const detail::Series& series = log[s];
    out += "    {\"title\": \"";
    out += jsonEscaped(series.title);
    out += "\",\n     \"baseline\": {\"label\": \"";
    out += jsonEscaped(series.baselineLabel);
    std::snprintf(buf, sizeof(buf), "\", \"sim_cycles\": %llu},\n",
                  static_cast<unsigned long long>(series.baselineCycles));
    out += buf;
    out += "     \"rows\": [\n";
    for (size_t r = 0; r < series.rows.size(); ++r) {
      const Row& row = series.rows[r];
      const double host_s = row.hostMs / 1000.0;
      const double cycles_per_host_s =
          host_s > 0.0 ? static_cast<double>(row.cycles) / host_s : 0.0;
      out += "       {\"label\": \"";
      out += jsonEscaped(row.label);
      std::snprintf(buf, sizeof(buf),
                    "\", \"sim_cycles\": %llu, \"speedup\": %.6f, "
                    "\"host_ms\": %.3f, \"host_s\": %.6f, "
                    "\"cycles_per_host_s\": %.1f}%s\n",
                    static_cast<unsigned long long>(row.cycles), row.speedup,
                    row.hostMs, host_s, cycles_per_host_s,
                    r + 1 < series.rows.size() ? "," : "");
      out += buf;
    }
    out += "     ]}";
    out += s + 1 < log.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";

  const std::string path = std::string("BENCH_") + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::internal("cannot open " + path + " for writing");
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu series)\n", path.c_str(), log.size());
  return Status::ok();
}

/// Host wall-clock stopwatch for Row::hostMs.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Abort the benchmark binary on a failed run — a bench that silently
/// reports garbage is worse than one that fails loudly.
template <typename T>
const T& checkOk(const Result<T>& result, const char* what) {
  if (!result.isOk()) {
    std::fprintf(stderr, "FATAL: %s failed: %s\n", what,
                 result.status().toString().c_str());
    std::abort();
  }
  return result.value();
}

inline void checkVerified(bool verified, const char* what) {
  if (!verified) {
    std::fprintf(stderr, "FATAL: %s failed verification\n", what);
    std::abort();
  }
}

}  // namespace simtomp::bench
