// simtomp_prof: profile a built-in workload under a directive you type.
//
//   simtomp_prof <kernel> "<directive>" [--folded] [--json]
//                [--trace <path>] [--metrics <path|->]
//
//   kernels: spmv | su3 | ideal | laplace3d | transpose | interpol | gemm
//
// Runs the kernel exactly like simtomp_run, but with simprof enabled
// (the tool sets SIMTOMP_PROF=1, so the app adapter's internal launch
// resolves profiling on), then renders the construct tree:
//
//   default    nvprof-style per-construct table — inclusive/exclusive
//              thread-cycles, visits, SIMD lane efficiency
//   --folded   folded-stack lines (pipe into flamegraph.pl)
//   --json     nested JSON of the same tree
//   --trace P  deep Perfetto/Chrome trace (nested construct spans on
//              the SM tracks, counter tracks, instant events) to P
//   --metrics  Prometheus text exposition of the process-wide metrics
//              registry to the given path ("-" = stdout)
//
// Profiling observes the cost model without perturbing it, so the
// cycles printed here are bit-identical to an unprofiled simtomp_run
// of the same directive; the tool verifies that the profile root
// equals KernelStats.cycles and fails (exit 8) if not.
//
// Exit codes 0-7 match simtomp_run (see docs/FAULTS.md); 8 = profile
// invariant violated.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "apps/batched_gemm.h"
#include "apps/ideal_kernel.h"
#include "apps/laplace3d.h"
#include "apps/muram.h"
#include "apps/sparse_matvec.h"
#include "apps/su3.h"
#include "front/directive.h"
#include "gpusim/trace.h"
#include "simprof/metrics.h"
#include "simprof/profile.h"

using namespace simtomp;

namespace {

constexpr int kExitVerifyFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBuildError = 3;
constexpr int kExitLaunchFailure = 4;
constexpr int kExitWatchdog = 5;
constexpr int kExitCheckFatal = 6;
constexpr int kExitFaultUnrecovered = 7;
constexpr int kExitProfileInvariant = 8;

int usage() {
  std::fprintf(stderr,
               "usage: simtomp_prof <spmv|su3|ideal|laplace3d|transpose|"
               "interpol|gemm> \"<directive>\" [--folded] [--json] "
               "[--trace <path>] [--metrics <path|->]\n");
  return kExitUsage;
}

bool knownKernel(const std::string& kernel) {
  static const char* const kKernels[] = {"spmv",      "su3",       "ideal",
                                         "laplace3d", "transpose", "interpol",
                                         "gemm"};
  for (const char* name : kKernels) {
    if (kernel == name) return true;
  }
  return false;
}

/// Triage a failed launch into its documented exit code (simtomp_run's
/// scheme, so CI can treat the two tools interchangeably).
int exitCodeFor(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) return kExitWatchdog;
  if (status.message().find("simcheck") != std::string::npos) {
    return kExitCheckFatal;
  }
  if (status.message().find("[simfault]") != std::string::npos) {
    return kExitFaultUnrecovered;
  }
  return kExitLaunchFailure;
}

apps::SimdMode modeFromSpec(const dsl::LaunchSpec& launch) {
  if (launch.simdlen <= 1) return apps::SimdMode::kNoSimd;
  return launch.parallelMode == omprt::ExecMode::kGeneric
             ? apps::SimdMode::kGenericSimd
             : apps::SimdMode::kSpmdSimd;
}

Result<apps::AppRunResult> runKernel(const std::string& kernel,
                                     gpusim::Device& device,
                                     const dsl::LaunchSpec& launch) {
  if (kernel == "spmv") {
    apps::CsrGenConfig config;
    config.numRows = 4096;
    config.meanRowLength = 8;
    config.maxRowLength = 64;
    const apps::CsrMatrix A = apps::generateCsr(config);
    apps::SpmvOptions options;
    options.variant = launch.simdlen > 1
                          ? apps::SpmvVariant::kThreeLevelAtomic
                          : apps::SpmvVariant::kTwoLevel;
    options.numTeams = launch.numTeams;
    options.threadsPerTeam = launch.threadsPerTeam;
    options.simdlen = launch.simdlen;
    options.parallelMode = launch.parallelMode;
    return apps::runSpmv(device, A, options);
  }
  if (kernel == "su3") {
    const apps::Su3Workload w = apps::generateSu3(5120, 3);
    apps::Su3Options options;
    options.numTeams = launch.numTeams;
    options.threadsPerTeam = launch.threadsPerTeam;
    options.simdlen = launch.simdlen;
    return apps::runSu3(device, w, options);
  }
  if (kernel == "ideal") {
    const apps::IdealWorkload w = apps::generateIdeal(432, 32, 5);
    apps::IdealOptions options;
    options.numTeams = launch.numTeams;
    options.threadsPerTeam = launch.threadsPerTeam;
    options.simdlen = launch.simdlen;
    return apps::runIdeal(device, w, options);
  }
  if (kernel == "laplace3d") {
    const apps::Laplace3dWorkload w = apps::generateLaplace3d(34, 34, 258, 9);
    apps::Laplace3dOptions options;
    options.mode = modeFromSpec(launch);
    options.numTeams = launch.numTeams;
    options.threadsPerTeam = launch.threadsPerTeam;
    options.simdlen = launch.simdlen;
    return apps::runLaplace3d(device, w, options);
  }
  if (kernel == "transpose" || kernel == "interpol") {
    const apps::MuramWorkload w = apps::generateMuram(32, 32, 256, 11);
    apps::MuramOptions options;
    options.mode = modeFromSpec(launch);
    options.numTeams = launch.numTeams;
    options.threadsPerTeam = launch.threadsPerTeam;
    options.simdlen = launch.simdlen;
    return kernel == "transpose" ? apps::runMuramTranspose(device, w, options)
                                 : apps::runMuramInterpol(device, w, options);
  }
  if (kernel == "gemm") {
    const apps::BatchedGemmWorkload w = apps::generateBatchedGemm(2048, 4, 7);
    apps::BatchedGemmOptions options;
    options.numTeams = launch.numTeams;
    options.threadsPerTeam = launch.threadsPerTeam;
    options.simdlen = launch.simdlen;
    options.parallelMode = launch.parallelMode;
    return apps::runBatchedGemm(device, w, options);
  }
  return Status::invalidArgument("unknown kernel '" + kernel + "'");
}

/// Counter-name adapter for the renderer: simprof speaks raw ids, the
/// names live in gpusim's counter table.
std::string_view profCounterName(uint32_t id) {
  if (id >= gpusim::kNumCounters) return "?";
  return gpusim::counterName(static_cast<gpusim::Counter>(id));
}

simprof::RenderOptions renderOptions() {
  simprof::RenderOptions opts;
  opts.counterName = &profCounterName;
  opts.laneRoundsCounter =
      static_cast<uint32_t>(gpusim::Counter::kSimdLaneRounds);
  opts.idleLaneRoundsCounter =
      static_cast<uint32_t>(gpusim::Counter::kSimdIdleLaneRounds);
  return opts;
}

bool writeMetrics(const std::string& path) {
  if (path == "-") {
    simprof::MetricsRegistry::global().writePrometheus(std::cout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open metrics path '%s'\n", path.c_str());
    return false;
  }
  simprof::MetricsRegistry::global().writePrometheus(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string kernel = argv[1];
  if (!knownKernel(kernel)) return usage();
  const std::string directive = argv[2];

  bool folded = false;
  bool json = false;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--folded") == 0) {
      folded = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      return usage();
    }
  }

  auto parsed = front::parseDirective(directive);
  if (!parsed.isOk()) {
    std::fprintf(stderr, "directive error: %s\n",
                 parsed.status().toString().c_str());
    return kExitBuildError;
  }
  gpusim::Device device;
  const dsl::LaunchSpec launch = parsed.value().toLaunchSpec(device.arch());
  // The app adapters build their launches internally, so profiling (and
  // any fault/watchdog clauses) reach them through the environment
  // knobs the launch path consults — unless the directive pinned
  // profiling off explicitly.
  if (launch.profile.mode != simprof::ProfileMode::kOff) {
    setenv("SIMTOMP_PROF", "1", 1);
  }
  if (!launch.fault.spec.empty()) {
    setenv("SIMTOMP_FAULT", launch.fault.spec.c_str(), 1);
  }
  if (launch.watchdogSteps != 0) {
    setenv("SIMTOMP_WATCHDOG",
           gpusim::knobValueName(gpusim::kWatchdogKnob, launch.watchdogSteps)
               .c_str(),
           1);
  }

  gpusim::TraceRecorder recorder;
  if (!trace_path.empty()) device.setTraceRecorder(&recorder);

  auto result = runKernel(kernel, device, launch);
  if (!result.isOk()) {
    std::fprintf(stderr, "run error: %s\n",
                 result.status().toString().c_str());
    return exitCodeFor(result.status());
  }
  const apps::AppRunResult& r = result.value();
  if (!r.verified) {
    std::fprintf(stderr, "VERIFICATION FAILED (max error %g)\n", r.maxError);
    return kExitVerifyFailed;
  }

  const simprof::LaunchProfile& profile = device.lastProfile();
  if (launch.profile.mode != simprof::ProfileMode::kOff) {
    if (!profile.enabled) {
      std::fprintf(stderr, "profile missing: launch did not profile\n");
      return kExitProfileInvariant;
    }
    // The contract the whole subsystem hangs on: profiling observed the
    // launch without perturbing it, and the tree accounts for it all.
    if (profile.root.inclusiveCycles != r.stats.cycles) {
      std::fprintf(stderr,
                   "profile invariant violated: root %llu != cycles %llu\n",
                   static_cast<unsigned long long>(profile.root.inclusiveCycles),
                   static_cast<unsigned long long>(r.stats.cycles));
      return kExitProfileInvariant;
    }
  }

  if (!trace_path.empty()) {
    const Status wrote = recorder.writeChromeJson(trace_path);
    if (!wrote.isOk()) {
      std::fprintf(stderr, "trace error: %s\n", wrote.toString().c_str());
      return kExitLaunchFailure;
    }
  }
  if (!metrics_path.empty() && !writeMetrics(metrics_path)) {
    return kExitLaunchFailure;
  }

  if (folded) {
    std::fputs(profile.folded().c_str(), stdout);
    return 0;
  }
  if (json) {
    profile.writeJson(std::cout, renderOptions());
    std::printf("\n");
    return 0;
  }
  std::printf("%s: verified (max error %.2e), %llu cycles\n", kernel.c_str(),
              r.maxError, static_cast<unsigned long long>(r.stats.cycles));
  std::fputs(profile.table(renderOptions()).c_str(), stdout);
  return 0;
}
