// simtomp_run: run a built-in workload under a directive you type.
//
//   simtomp_run <kernel> "<directive>" [--csv]
//
//   kernels: spmv | su3 | ideal | laplace3d | transpose | interpol | gemm
//
// Examples:
//   simtomp_run spmv "target teams distribute parallel for simd \
//                     num_teams(64) thread_limit(256) simdlen(8)"
//   simtomp_run su3  "target teams distribute parallel for simd simdlen(4)"
//   simtomp_run laplace3d "target teams distribute parallel for \
//                          parallel_mode(generic) simdlen(32)"
//
// The directive's constructs pick the execution modes via the
// tightly-nested => SPMD rule (override with teams_mode/parallel_mode);
// num_teams/thread_limit/simdlen shape the launch. The tool runs the
// kernel on the A100-like device, verifies against the host reference,
// and prints cycles plus the interesting counters (or a CSV row).
//
// Autotuning: a `tune(key)` clause (or per-clause `auto` arguments)
// defers the unpinned launch-shape fields to simtune, honouring
// SIMTOMP_TUNE / SIMTOMP_TUNE_CACHE:
//   SIMTOMP_TUNE=2 simtomp_run spmv
//     "target teams distribute parallel for simd tune(spmv_main)"
//
// Fault injection: a `fault(plan)` clause (SIMTOMP_FAULT grammar, see
// docs/FAULTS.md) and `watchdog(steps|off)` apply to the launch:
//   simtomp_run ideal "target teams distribute parallel for \
//                      fault(trap:step=100) watchdog(100000)"
// The app adapters launch on a plain device (no DeviceManager), so no
// resilience chain runs here: an injected fault surfaces with its exit
// class below instead of recovering. Use simtomp_fault for the
// recovery matrix.
//
// Exit codes (documented for CI triage; see docs/FAULTS.md):
//   0  success (results verified)
//   1  verification failure (kernel ran, wrong results)
//   2  usage error
//   3  build error (directive did not parse / tuning setup failed)
//   4  launch failure (any class not listed below)
//   5  watchdog timeout (DEADLINE_EXCEEDED)
//   6  simcheck-fatal (checking failed the launch)
//   7  fault injected and not recovered
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/batched_gemm.h"
#include "apps/ideal_kernel.h"
#include "apps/laplace3d.h"
#include "apps/muram.h"
#include "apps/sparse_matvec.h"
#include "apps/su3.h"
#include "apps/tunable.h"
#include "front/directive.h"
#include "simtune/tuner.h"

using namespace simtomp;

namespace {

// Exit codes per failure class (see the header comment).
constexpr int kExitVerifyFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBuildError = 3;
constexpr int kExitLaunchFailure = 4;
constexpr int kExitWatchdog = 5;
constexpr int kExitCheckFatal = 6;
constexpr int kExitFaultUnrecovered = 7;

int usage() {
  std::fprintf(stderr,
               "usage: simtomp_run <spmv|su3|ideal|laplace3d|transpose|"
               "interpol|gemm> \"<directive>\" [--csv]\n");
  return kExitUsage;
}

bool knownKernel(const std::string& kernel) {
  static const char* const kKernels[] = {"spmv",      "su3",      "ideal",
                                         "laplace3d", "transpose", "interpol",
                                         "gemm"};
  for (const char* name : kKernels) {
    if (kernel == name) return true;
  }
  return false;
}

/// Triage a failed launch into its documented exit code. The watchdog
/// check comes first: its message also carries the [simfault] marker.
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

/// The corpus adapter matching a CLI kernel name (the muram kernels
/// share one workload but tune separately).
const char* corpusNameFor(const std::string& kernel) {
  if (kernel == "transpose") return "muram_transpose";
  if (kernel == "interpol") return "muram_interpol";
  if (kernel == "gemm") return "batched_gemm";
  return kernel.c_str();
}

/// Resolve the launch's auto fields through simtune when the directive
/// asked for it (tune(key) or auto clause arguments) and SIMTOMP_TUNE
/// enables it. Cache-only under SIMTOMP_TUNE=1; SIMTOMP_TUNE=2 runs a
/// budgeted hill-climb over the app's own trial adapter on a miss and
/// persists the winner (SIMTOMP_TUNE_CACHE).
Status resolveLaunchTuning(const std::string& kernel, gpusim::Device& device,
                           dsl::LaunchSpec& launch) {
  const bool wants_tuning = !launch.tuneKey.empty() || launch.numTeams == 0 ||
                            launch.threadsPerTeam == 0 || launch.simdlen == 0 ||
                            launch.teamsModeAuto || launch.parallelModeAuto;
  if (!wants_tuning) return Status::ok();
  const gpusim::Resolved<simtune::TuneMode> mode =
      gpusim::resolveKnob(gpusim::kTuneKnob, simtune::TuneMode::kAuto);
  if (mode.value == simtune::TuneMode::kOff) return Status::ok();

  apps::TunableApp app =
      apps::tunableByName(corpusNameFor(kernel), device.arch(), false);
  omprt::TargetConfig config = launch.targetConfig();
  if (config.tuneKey.empty()) config.tuneKey = app.name;
  config.tripCount = app.tripCount;

  simtune::Tuner tuner;
  if (tuner.resolveConfig(device.arch(), device.costModel(), config)) {
    std::printf("  tuning     : key %s resolved from cache (%s=%s)\n",
                config.tuneKey.c_str(), mode.source, mode.envValue.c_str());
  } else if (mode.value == simtune::TuneMode::kTune) {
    simtune::TuneRequest request;
    request.strategy = simtune::TuneStrategy::kHillClimb;
    request.maxTrials = 64;
    request.tripCount = app.tripCount;
    const Result<simtune::TuneOutcome> tuned =
        tuner.tune(config.tuneKey, device.arch(), device.costModel(), app.axes,
                   app.trial, request);
    if (!tuned.isOk()) return tuned.status();
    simtune::applyShape(tuned.value().shape, config);
    std::printf("  tuning     : key %s searched (%u trials, winner %llu "
                "cycles)\n",
                config.tuneKey.c_str(), tuned.value().trialsRun,
                static_cast<unsigned long long>(tuned.value().shape.cycles));
  } else {
    std::printf("  tuning     : key %s missed the cache; heuristics apply\n",
                config.tuneKey.c_str());
    return Status::ok();
  }
  static_cast<omprt::TargetConfig&>(launch) = config;
  return Status::ok();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string kernel = argv[1];
  if (!knownKernel(kernel)) return usage();
  const std::string directive = argv[2];
  const bool csv = argc >= 4 && std::strcmp(argv[3], "--csv") == 0;

  auto parsed = front::parseDirective(directive);
  if (!parsed.isOk()) {
    std::fprintf(stderr, "directive error: %s\n",
                 parsed.status().toString().c_str());
    return kExitBuildError;
  }
  gpusim::Device device;
  dsl::LaunchSpec launch = parsed.value().toLaunchSpec(device.arch());
  // The app adapters build their launches internally, so the fault and
  // watchdog clauses reach them through the environment knobs the
  // launch path already consults.
  if (!launch.fault.spec.empty()) {
    setenv("SIMTOMP_FAULT", launch.fault.spec.c_str(), 1);
  }
  if (launch.watchdogSteps != 0) {
    setenv("SIMTOMP_WATCHDOG",
           gpusim::knobValueName(gpusim::kWatchdogKnob, launch.watchdogSteps)
               .c_str(),
           1);
  }
  const Status tuned = resolveLaunchTuning(kernel, device, launch);
  if (!tuned.isOk()) {
    std::fprintf(stderr, "tuning error: %s\n", tuned.toString().c_str());
    return kExitBuildError;
  }

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

  if (csv) {
    std::printf("kernel,%s\n", gpusim::KernelStats::csvHeader().c_str());
    std::printf("%s,%s\n", kernel.c_str(), r.stats.csvRow().c_str());
    return 0;
  }
  std::printf("%s: verified (max error %.2e)\n", kernel.c_str(), r.maxError);
  std::printf("  launch     : %u teams x %u threads, teams %s, parallel %s, "
              "simdlen %u\n",
              launch.numTeams, launch.threadsPerTeam,
              omprt::execModeName(launch.teamsMode).data(),
              omprt::execModeName(launch.parallelMode).data(),
              launch.simdlen);
  std::printf("  cycles     : %llu (%u waves, occupancy %.0f%%)\n",
              static_cast<unsigned long long>(r.stats.cycles), r.stats.waves,
              r.stats.occupancy.warpOccupancy * 100.0);
  const auto& c = r.stats.counters;
  using gpusim::Counter;
  std::printf("  simd loops : %llu (lane rounds %llu, idle %llu)\n",
              static_cast<unsigned long long>(c.get(Counter::kSimdLoop)),
              static_cast<unsigned long long>(c.get(Counter::kSimdLaneRounds)),
              static_cast<unsigned long long>(
                  c.get(Counter::kSimdIdleLaneRounds)));
  std::printf("  syncs      : %llu warp, %llu block, %llu state polls\n",
              static_cast<unsigned long long>(c.get(Counter::kWarpSync)),
              static_cast<unsigned long long>(c.get(Counter::kBlockSync)),
              static_cast<unsigned long long>(c.get(Counter::kStatePoll)));
  std::printf("  memory     : %llu global loads, %llu stores, %llu atomics, "
              "%llu shared accesses\n",
              static_cast<unsigned long long>(c.get(Counter::kGlobalLoad)),
              static_cast<unsigned long long>(c.get(Counter::kGlobalStore)),
              static_cast<unsigned long long>(c.get(Counter::kAtomicRmw)),
              static_cast<unsigned long long>(c.get(Counter::kSharedLoad) +
                                              c.get(Counter::kSharedStore)));
  return 0;
}
