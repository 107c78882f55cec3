// e2e_bench: one workload per process, closed loop, end-to-end host
// metrics (untraced run) or per-layer metrics (traced run).
//
//   e2e_bench --workload W [--seed N] [--trace 0|1]
//
// Prints "<workload> <metric> <value> <unit>" lines, then one JSON
// object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any op failed, 2 on bad arguments. The traced run starts
// this binary again with --probes for the calibration probes.
// bench/e2e/run.sh builds this binary and drives it; README.md explains
// every metric.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "e2e.h"

namespace simtomp::e2e {

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.op = op;
  span.startNs = (Clock::now() - tracer_->epoch_).count();
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].endNs =
      (Clock::now() - tracer_->epoch_).count();
  tracer_->open_.pop_back();
}

std::vector<Tracer::SelfTime> Tracer::selfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t duration = spans_[i].endNs - spans_[i].startNs;
    self[i] += duration;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= duration;
    }
  }
  std::map<std::string, SelfTime> byName;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& entry = byName[spans_[i].name];
    entry.name = spans_[i].name;
    entry.selfNs += self[i];
    ++entry.count;
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : byName) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.selfNs > b.selfNs;
  });
  return out;
}

int64_t Tracer::childCoveredNs() const {
  int64_t covered = 0;
  for (const Span& span : spans_) {
    if (span.parent >= 0 &&
        spans_[static_cast<size_t>(span.parent)].parent < 0) {
      covered += span.endNs - span.startNs;
    }
  }
  return covered;
}

Status Tracer::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::internal("cannot open " + path);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const char* parent =
        span.parent >= 0 ? spans_[static_cast<size_t>(span.parent)].name : "";
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %llu, \"parent\": \"%s\"}}%s\n",
                 span.name, static_cast<double>(span.startNs) / 1e3,
                 static_cast<double>(span.endNs - span.startNs) / 1e3,
                 static_cast<unsigned long long>(span.op), parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::ok() : Status::internal("cannot write " + path);
}

// ---------------------------------------------------------------------
// Samples, usage, modeled statistics
// ---------------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.userS = static_cast<double>(ru.ru_utime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sysS = static_cast<double>(ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.minorFaults = ru.ru_minflt;
  u.ctxSwitches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.maxRssKb = ru.ru_maxrss;
  return u;
}

void StatsSum::add(const gpusim::KernelStats& stats) {
  cycles += stats.cycles;
  waves += stats.waves;
  counters.merge(stats.counters);
}

uint64_t StatsSum::syncEvents() const {
  using gpusim::Counter;
  return counters.get(Counter::kBlockSync) + counters.get(Counter::kWarpSync) +
         counters.get(Counter::kStatePoll);
}

namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool probes = false;  ///< run only the calibration probes
};

/// Times set-up is repeated in one run; setup_s is their median.
constexpr int kSetups = 5;

void usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload W [--seed N] [--trace 0|1]\n"
               "       e2e_bench --probes [--seed N]\n"
               "workloads:");
  for (const std::string_view name : kWorkloadNames) {
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
}

bool parseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--probes") {
      opt.probes = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt.trace = value[0] == '1';
      continue;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  return opt.probes ||
         std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                   opt.workload) != std::end(kWorkloadNames);
}

/// Run the calibration probes in a fresh process of this binary, so that
/// allocator and runtime state the workload left behind cannot change
/// what they read. The child prints "name value unit" lines and a final
/// "tally attempted failed" line.
Status runProbesInChild(uint64_t seed, std::vector<Metric>& out,
                        ProbeTally& tally) {
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return Status::internal("cannot resolve /proc/self/exe");
  std::string quoted = "'";
  for (const char c : std::string_view(self, static_cast<size_t>(n))) {
    quoted += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  quoted += "'";
  const std::string command =
      quoted + " --probes --seed " + std::to_string(seed);
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return Status::internal("cannot start " + command);
  char line[512];
  bool tallied = false;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name == "tally") {
      tallied = static_cast<bool>(fields >> tally.attempted >> tally.failed);
      continue;
    }
    Metric m;
    m.name = name;
    if (fields >> m.value >> m.unit) out.push_back(m);
  }
  const int status = pclose(pipe);
  if (status != 0 || !tallied) {
    return Status::internal("probe process failed: " + command);
  }
  return Status::ok();
}

int runProbesOnly(const Options& opt, uint32_t workers) {
  std::vector<Metric> metrics;
  ProbeTally tally;
  runProbes(opt.seed, workers, metrics, tally);
  for (const Metric& m : metrics) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("tally %llu %llu\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  return 0;
}

/// Pin every knob the launch layers read from the environment, so the
/// measured configuration does not depend on the caller's shell.
void pinEnvironment(uint32_t workers) {
  setenv("SIMTOMP_HOST_WORKERS", std::to_string(workers).c_str(), 1);
  setenv("SIMTOMP_CHECK", "off", 1);
  setenv("SIMTOMP_PROF", "off", 1);
  setenv("SIMTOMP_FAST", "on", 1);
  for (const char* name : {"SIMTOMP_FAULT", "SIMTOMP_WATCHDOG",
                           "SIMTOMP_TUNE", "SIMTOMP_TUNE_CACHE",
                           "SIMTOMP_RESILIENCE", "SIMTOMP_METRICS"}) {
    unsetenv(name);
  }
}

/// Latency quantile q of each op kind, combined by geometric mean. The
/// kinds of one workload differ in cost by up to 10x, so a quantile of
/// the pooled samples falls in a gap between two kinds and reads a
/// single extreme sample of each; per kind it reads many like samples.
double perKindQuantile(const std::vector<OpSample>& samples, double q) {
  std::map<uint32_t, std::vector<double>> byKind;
  for (const OpSample& s : samples) byKind[s.kind].push_back(s.ms);
  double logSum = 0.0;
  for (auto& [kind, ms] : byKind) logSum += std::log(quantile(std::move(ms), q));
  return std::exp(logSum / static_cast<double>(byKind.size()));
}

void print(const std::string& workload, const Metric& m) {
  std::printf("%s %s %.17g %s\n", workload.c_str(), m.name.c_str(), m.value,
              m.unit.c_str());
}

/// Per-layer metrics of the workload itself: exact modeled counters of
/// its warm-up ops, and host usage and trace coverage of the timed phase.
void workloadLayerMetrics(const Workload& wl, const Usage& u0,
                          const Usage& u1, double wallS, size_t ops,
                          std::vector<Metric>& out) {
  using gpusim::Counter;
  const StatsSum& w = wl.warmup();
  const auto count = [&w](Counter c) {
    return static_cast<double>(w.counters.get(c));
  };
  const double laneRounds = count(Counter::kSimdLaneRounds);
  const double laneUtil =
      laneRounds > 0 ? 1.0 - count(Counter::kSimdIdleLaneRounds) / laneRounds
                     : 0.0;
  out.push_back({"modeled_cycles", static_cast<double>(w.cycles), "cycles"});
  out.push_back({"omprt.simd_lane_util", laneUtil, "fraction"});
  out.push_back({"omprt.state_polls", count(Counter::kStatePoll), "count"});
  out.push_back({"omprt.dispatch_cascade", count(Counter::kDispatchCascade),
                 "count"});
  out.push_back({"omprt.dispatch_indirect", count(Counter::kDispatchIndirect),
                 "count"});
  out.push_back({"omprt.sharing_overflows",
                 count(Counter::kSharingSpaceOverflow), "count"});
  out.push_back({"gpusim.waves", static_cast<double>(w.waves), "count"});
  out.push_back({"gpusim.block_syncs", count(Counter::kBlockSync), "count"});
  out.push_back({"gpusim.warp_syncs", count(Counter::kWarpSync), "count"});

  const double user = u1.userS - u0.userS;
  const double sys = u1.sysS - u0.sysS;
  const double n = static_cast<double>(std::max<size_t>(ops, 1));
  out.push_back({"process.sys_cpu_frac",
                 user + sys > 0 ? sys / (user + sys) : 0.0, "fraction"});
  out.push_back({"process.cpu_per_wall", (user + sys) / wallS, "ratio"});
  out.push_back({"process.minor_faults_per_op",
                 static_cast<double>(u1.minorFaults - u0.minorFaults) / n,
                 "1/op"});
  out.push_back({"process.ctx_switches_per_op",
                 static_cast<double>(u1.ctxSwitches - u0.ctxSwitches) / n,
                 "1/op"});
}

int run(const Options& opt, Clock::time_point mainStart, uint32_t workers) {
  const std::string& name = opt.workload;

  // Set-up, repeated; the first one counts from main().
  std::vector<double> setupS;
  std::unique_ptr<Workload> wl;
  for (int k = 0; k < kSetups; ++k) {
    wl.reset();
    const Clock::time_point start = k == 0 ? mainStart : Clock::now();
    wl = makeWorkload(name, opt.seed, workers);
    setupS.push_back(msBetween(start, Clock::now()) / 1e3);
  }

  // Timed phase: the workload's fixed round count. The traced run runs
  // each round untraced and then traced, so the pair gives the tracing
  // overhead under equal load. ops_per_s is a median over rounds, so a
  // stall of the host that covers less than half the phase does not
  // move it.
  Tracer tracer;
  std::vector<OpSample> samples;
  std::vector<double> roundOpsPerS;
  double untracedMs = 0.0;
  double tracedMs = 0.0;
  const Usage u0 = Usage::now();
  const Clock::time_point t0 = Clock::now();
  for (uint64_t round = 0; round < wl->rounds(); ++round) {
    const size_t first = samples.size();
    const Clock::time_point a = Clock::now();
    wl->runRound(round, tracer, samples);
    const Clock::time_point b = Clock::now();
    if (opt.trace) {
      tracer.setEnabled(true);
      wl->runRound(round, tracer, samples);
      tracer.setEnabled(false);
      untracedMs += msBetween(a, b);
      tracedMs += msBetween(b, Clock::now());
    } else {
      roundOpsPerS.push_back(static_cast<double>(samples.size() - first) /
                             (msBetween(a, b) / 1e3));
    }
  }
  const double wallS = msBetween(t0, Clock::now()) / 1e3;
  const Usage u1 = Usage::now();

  uint64_t attempted = samples.size();
  uint64_t failed = 0;
  double cycles = 0.0;
  for (const OpSample& s : samples) {
    failed += s.ok ? 0 : 1;
    cycles += static_cast<double>(s.cycles);
  }

  std::vector<Metric> metrics;
  std::vector<Metric> info;  // printed, not part of the JSON result
  info.push_back({"op_samples", static_cast<double>(samples.size()), "count"});
  info.push_back({"timed_s", wallS, "s"});
  if (!opt.trace) {
    const double opsPerS = quantile(roundOpsPerS, 0.5);
    metrics.push_back({"setup_s", quantile(setupS, 0.5), "s"});
    metrics.push_back({"ops_per_s", opsPerS, "op/s"});
    metrics.push_back({"op_ms_p50", perKindQuantile(samples, 0.5), "ms"});
    metrics.push_back({"op_ms_p90", perKindQuantile(samples, 0.9), "ms"});
    // Σ cycles ÷ timed wall, the wall taken as ops ÷ ops_per_s so that a
    // short stall does not move it. Rounds of fuzz-matrix and serve-waves
    // differ in modeled cycles, so a median of per-round cycle rates
    // would jump from round to round.
    metrics.push_back({"sim_cycles_per_host_s",
                       cycles * opsPerS / static_cast<double>(samples.size()),
                       "cycles/s"});
    metrics.push_back(
        {"peak_rss_mb", static_cast<double>(Usage::now().maxRssKb) / 1024.0,
         "MB"});
  } else {
    const double tracedNs = tracedMs * 1e6;
    workloadLayerMetrics(*wl, u0, u1, wallS, samples.size(), metrics);
    metrics.push_back(
        {"trace.overhead_frac", tracedMs / untracedMs - 1.0, "fraction"});
    metrics.push_back(
        {"trace.coverage",
         static_cast<double>(tracer.childCoveredNs()) / tracedNs, "fraction"});
    std::fprintf(stderr, "self time over %.2f s of traced rounds:\n",
                 tracedMs / 1e3);
    std::fprintf(stderr, "  %-40s %9s %11s %7s\n", "span", "calls",
                 "self ms", "share");
    for (const Tracer::SelfTime& s : tracer.selfTimes()) {
      const double share = static_cast<double>(s.selfNs) / tracedNs;
      std::fprintf(stderr, "  %-40s %9llu %11.1f %6.1f%%\n", s.name.c_str(),
                   static_cast<unsigned long long>(s.count),
                   static_cast<double>(s.selfNs) / 1e6, share * 100.0);
      info.push_back({"span." + s.name + ".self_frac", share, "fraction"});
    }
    const std::string tracePath = "TRACE_e2e_" + name + ".json";
    const Status written = tracer.writeChromeTrace(tracePath);
    if (!written.isOk()) {
      std::fprintf(stderr, "e2e_bench: %s\n", written.toString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu spans)\n", tracePath.c_str(),
                 tracer.spans().size());

    wl.reset();  // free the workload's memory before the probes run
    ProbeTally tally;
    const Status probed = runProbesInChild(opt.seed, metrics, tally);
    if (!probed.isOk()) {
      std::fprintf(stderr, "e2e_bench: %s\n", probed.toString().c_str());
      return 1;
    }
    attempted += tally.attempted;
    failed += tally.failed;
  }
  // A metric that cannot be measured is a failed run, not a JSON error.
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "e2e_bench: %s is not finite\n", m.name.c_str());
      m.value = 0.0;
      ++failed;
    }
  }
  info.push_back({"fail_ratio",
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  "fraction"});

  for (const Metric& m : info) print(name, m);
  for (const Metric& m : metrics) print(name, m);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace simtomp::e2e

int main(int argc, char** argv) {
  using namespace simtomp::e2e;
  const Clock::time_point mainStart = Clock::now();
  Options opt;
  if (!parseArgs(argc, argv, opt)) {
    usage();
    return 2;
  }
  const uint32_t workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  pinEnvironment(workers);
  try {
    return opt.probes ? runProbesOnly(opt, workers)
                      : run(opt, mainStart, workers);
  } catch (const simtomp::StatusException& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.status().toString().c_str());
    return 1;
  }
}
