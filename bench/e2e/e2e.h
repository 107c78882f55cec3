// Shared pieces of the end-to-end benchmark: the span tracer, sample
// statistics, process usage, and the four workloads.
//
// Everything here measures the layers from outside, by timing calls
// into their public functions; nothing under src/ is instrumented.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/stats.h"
#include "hostrt/device_manager.h"
#include "omprt/convergence.h"
#include "omprt/dispatcher.h"
#include "simserve/mix.h"
#include "simserve/service.h"
#include "support/status.h"

namespace simtomp::e2e {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// In-memory span recorder for the traced run. One client thread opens
/// and closes spans strictly nested, so a stack gives each span its
/// parent. Disabled, a span costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;  ///< index into spans(), -1 for a root
    uint64_t op = 0;      ///< op id (request id on serve-waves)
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  struct SelfTime {
    std::string name;
    int64_t selfNs = 0;
    uint64_t count = 0;
  };

  void setEnabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] Scope span(const char* name, uint64_t op) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time (duration minus the children's durations) per span
  /// name, largest first.
  [[nodiscard]] std::vector<SelfTime> selfTimes() const;
  /// Total duration of the spans directly under a root span.
  [[nodiscard]] int64_t childCoveredNs() const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  [[nodiscard]] Status writeChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
};

// ---------------------------------------------------------------------
// Samples and process usage
// ---------------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

struct Usage {
  double userS = 0.0;
  double sysS = 0.0;
  long minorFaults = 0;
  long ctxSwitches = 0;  ///< voluntary + involuntary
  long maxRssKb = 0;

  static Usage now();
};

/// Exact sums of modeled statistics over a set of launches.
struct StatsSum {
  uint64_t cycles = 0;
  uint64_t waves = 0;
  gpusim::CounterSet counters;

  void add(const gpusim::KernelStats& stats);
  /// kBlockSync + kWarpSync + kStatePoll: the events that park or wake
  /// fibers.
  [[nodiscard]] uint64_t syncEvents() const;
};

/// One timed op. `kind` names the op within its workload (kernel, app
/// variant or fuzz cell); latency quantiles are taken per kind.
struct OpSample {
  double ms = 0.0;
  uint64_t cycles = 0;
  uint32_t kind = 0;
  bool ok = false;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// A closed-loop workload: one client, next op after the previous one
/// finished. Constructing one is the set-up phase (devices, inputs and
/// one warm-up op of each kind); the timed phase then calls runRound
/// for rounds 0 .. rounds()-1.
class Workload {
 public:
  /// The dispatch cascade is process-wide and append-only, and a
  /// region's modeled dispatch cost depends on its position in it. Every
  /// set-up starts from an empty cascade, so the modeled statistics of a
  /// workload do not depend on what the process ran before.
  explicit Workload(uint64_t rounds) : rounds_(rounds) {
    omprt::Dispatcher::global().clear();
  }
  virtual ~Workload() = default;

  /// Run round `round` of the op list and append one sample per op.
  virtual void runRound(uint64_t round, Tracer& tracer,
                        std::vector<OpSample>& out) = 0;

  /// Rounds in the timed phase. The count is fixed per workload, not
  /// set by elapsed time, so every run measures the same ops however
  /// fast the code is (catalog.json records the counts).
  [[nodiscard]] uint64_t rounds() const { return rounds_; }

  /// Modeled statistics of the warm-up ops (a pure function of the
  /// seed, hence identical across runs and machines).
  [[nodiscard]] const StatsSum& warmup() const { return warmup_; }

 protected:
  StatsSum warmup_;

 private:
  uint64_t rounds_;
};

/// fuzz-matrix's programs: Generator(0).generate(0 .. kFuzzPrograms-1),
/// one per round.
inline constexpr uint64_t kFuzzPrograms = 8;

inline constexpr std::string_view kWorkloadNames[] = {
    "spmd-convergent", "paper-apps", "serve-waves", "fuzz-matrix"};

/// Set up a workload by name (nullptr for an unknown name). `workers`
/// is the host worker count of launches that set one explicitly; the
/// others read SIMTOMP_HOST_WORKERS.
std::unique_ptr<Workload> makeWorkload(std::string_view name, uint64_t seed,
                                       uint32_t workers);

/// spmd-convergent with an explicit fast-path mode (probe use).
std::unique_ptr<Workload> makeSpmdConvergent(uint64_t seed, uint32_t workers,
                                             omprt::FastPathMode fastPath);

/// Modeled speedups of the paper-apps anchor pairs over their paper
/// values: mean |modeled/paper - 1|. Only valid on a paper-apps
/// workload.
double paperSpeedupError(const Workload& paperApps);

/// The serve-waves client loop over a caller-owned DeviceManager:
/// submit 64 requests, pump(), drain(), verify, release.
class ServeLoop {
 public:
  static constexpr uint32_t kWaveSize = 64;
  /// Waves in the generated mix (122880 requests).
  static constexpr uint64_t kMixWaves = 1920;

  ServeLoop(hostrt::DeviceManager& manager, uint64_t seed);

  /// One wave; appends one sample per request.
  void runWave(uint64_t wave, Tracer& tracer, std::vector<OpSample>& out);

  // Per-call timings of every wave run so far.
  std::vector<double> submitUs;
  std::vector<double> pumpMs;
  std::vector<double> drainMs;
  std::vector<double> queueWaitMs;

  // Service statistics over every wave run so far.
  [[nodiscard]] uint64_t admitted() const { return admitted_; }
  /// LaunchService::amortizedResolutions() summed over services.
  [[nodiscard]] uint64_t amortized() const;
  [[nodiscard]] uint64_t peakInFlight() const;
  /// Worst per-tenant p99 modeled latency.
  [[nodiscard]] uint64_t latencyP99Cycles() const;

 private:
  void startService();
  void retireService();

  hostrt::DeviceManager& manager_;
  simserve::Mix mix_;
  std::vector<size_t> requestOps_;  ///< indices of the mix's request ops
  std::vector<simserve::TenantSpec> tenants_;
  std::unique_ptr<simserve::LaunchService> service_;
  uint64_t service_waves_ = 0;
  uint64_t admitted_ = 0;
  uint64_t amortized_ = 0;
  uint64_t peak_in_flight_ = 0;
  uint64_t p99_cycles_ = 0;
};

// ---------------------------------------------------------------------
// Calibration probes (traced run only)
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ops the probes ran and how many of them failed verification.
struct ProbeTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Run every per-layer calibration probe; each appends its metrics.
void runProbes(uint64_t seed, uint32_t workers, std::vector<Metric>& out,
               ProbeTally& tally);

}  // namespace simtomp::e2e
