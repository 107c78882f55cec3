#include "apps/tunable.h"

#include <memory>
#include <utility>

#include "apps/batched_gemm.h"
#include "apps/csr.h"
#include "apps/ideal_kernel.h"
#include "apps/laplace3d.h"
#include "apps/muram.h"
#include "apps/sparse_matvec.h"
#include "apps/su3.h"
#include "support/parse.h"

namespace simtomp::apps {
namespace {

using gpusim::Device;
using Knobs = gpusim::LaunchOptions;
using omprt::ExecMode;
using simtune::TuneCandidate;

std::vector<uint32_t> simdlenAxis(const gpusim::ArchSpec& arch, bool small) {
  if (small) return {1, 2, 8, std::min(32u, arch.warpSize)};
  std::vector<uint32_t> lens;
  for (uint32_t len = 1; len <= arch.warpSize; len *= 2) lens.push_back(len);
  return lens;
}

/// Map a candidate onto the SimdMode-style apps (laplace3d, muram):
/// simdlen 1 is the 2-level No-SIMD baseline, otherwise the parallel
/// mode selects SPMD-SIMD vs generic-SIMD.
SimdMode candidateSimdMode(const TuneCandidate& c) {
  if (c.simdlen <= 1) return SimdMode::kNoSimd;
  return c.parallelMode == ExecMode::kSPMD ? SimdMode::kSpmdSimd
                                           : SimdMode::kGenericSimd;
}

/// The app options for a candidate: the launch's knobs plus the three
/// shape fields every app takes.
template <typename Options>
Options shapedOptions(const TuneCandidate& c, const Knobs& knobs) {
  Options options;
  static_cast<Knobs&>(options) = knobs;
  options.numTeams = c.numTeams;
  options.threadsPerTeam = c.threadsPerTeam;
  options.simdlen = c.simdlen;
  return options;
}

/// Give the app its launcher, and derive its trial from it.
void setRun(TunableApp& app, AppRunFn run) {
  app.trial = [run, name = app.name](Device& scratch, const TuneCandidate& c) {
    return verifiedStats(run(scratch, c, Knobs{}), name);
  };
  app.run = std::move(run);
}

TunableApp tunableSpmv(const gpusim::ArchSpec& arch, bool small) {
  CsrGenConfig gen;
  gen.numRows = small ? 512 : 4096;
  gen.numCols = gen.numRows;
  gen.meanRowLength = 8;
  gen.maxRowLength = 64;
  gen.seed = 42;
  const auto A = std::make_shared<const CsrMatrix>(generateCsr(gen));

  TunableApp app;
  app.name = "spmv";
  app.tripCount = A->numRows;
  // The teams mode doubles as the paper's structural axis: generic
  // teams select the 2-level variant, SPMD teams the 3-level one
  // (combined directives are SPMD, paper 3.2). The parallel region is
  // generic, as the paper runs sparse_matvec.
  app.axes.teamsModes = {ExecMode::kSPMD, ExecMode::kGeneric};
  app.axes.parallelModes = {ExecMode::kGeneric};
  app.axes.numTeams = small ? std::vector<uint32_t>{64}
                            : std::vector<uint32_t>{64, arch.numSMs};
  app.axes.threadsPerTeam = small ? std::vector<uint32_t>{128, 256}
                                  : std::vector<uint32_t>{32, 128, 256};
  app.axes.simdlens = simdlenAxis(arch, small);
  app.axes.scheduleChunks = {0};
  app.handPicked = {ExecMode::kSPMD, ExecMode::kGeneric, 64, 256, 8, 0};
  setRun(app, [A](Device& device, const TuneCandidate& c, const Knobs& knobs) {
    auto options = shapedOptions<SpmvOptions>(c, knobs);
    options.variant = c.teamsMode == ExecMode::kGeneric
                          ? SpmvVariant::kTwoLevel
                          : SpmvVariant::kThreeLevelAtomic;
    options.parallelMode = c.parallelMode;
    return runSpmv(device, *A, options);
  });
  return app;
}

TunableApp tunableSu3(const gpusim::ArchSpec& arch, bool small) {
  const auto w = std::make_shared<const Su3Workload>(
      generateSu3(small ? 256 : 5120, /*seed=*/3));

  TunableApp app;
  app.name = "su3";
  app.tripCount = w->numSites;
  // runSu3 fixes both teams and parallel to SPMD (paper 6.3).
  app.axes.teamsModes = {ExecMode::kSPMD};
  app.axes.parallelModes = {ExecMode::kSPMD};
  app.axes.numTeams = small ? std::vector<uint32_t>{32}
                            : std::vector<uint32_t>{32, 64, arch.numSMs};
  app.axes.threadsPerTeam = small ? std::vector<uint32_t>{128}
                                  : std::vector<uint32_t>{128, 256};
  app.axes.simdlens = simdlenAxis(arch, small);
  app.axes.scheduleChunks = {0};
  app.handPicked = {ExecMode::kSPMD, ExecMode::kSPMD, 32, 128, 1, 0};
  setRun(app, [w](Device& device, const TuneCandidate& c, const Knobs& knobs) {
    return runSu3(device, *w, shapedOptions<Su3Options>(c, knobs));
  });
  return app;
}

TunableApp tunableIdeal(const gpusim::ArchSpec& arch, bool small) {
  const auto w = std::make_shared<const IdealWorkload>(
      generateIdeal(small ? 128 : 432, 32, /*seed=*/5));

  TunableApp app;
  app.name = "ideal";
  app.tripCount = w->outerTrip;
  // runIdeal fixes SPMD teams + generic-SIMD inner loop (paper 6.3).
  app.axes.teamsModes = {ExecMode::kSPMD};
  app.axes.parallelModes = {ExecMode::kGeneric};
  app.axes.numTeams = small ? std::vector<uint32_t>{arch.numSMs}
                            : std::vector<uint32_t>{arch.numSMs,
                                                    2 * arch.numSMs};
  app.axes.threadsPerTeam = small ? std::vector<uint32_t>{128}
                                  : std::vector<uint32_t>{128, 256};
  app.axes.simdlens = simdlenAxis(arch, small);
  app.axes.scheduleChunks = {0};
  app.handPicked = {ExecMode::kSPMD, ExecMode::kGeneric, arch.numSMs, 128, 1,
                    0};
  setRun(app, [w](Device& device, const TuneCandidate& c, const Knobs& knobs) {
    auto options = shapedOptions<IdealOptions>(c, knobs);
    options.flopsPerElement = 2;  // the Fig. 9 setting
    return runIdeal(device, *w, options);
  });
  return app;
}

/// A Fig. 10 kernel (laplace3d, both muram kernels): teams always SPMD,
/// the simd level one SimdMode variant per parallel mode, hand-picked
/// as the No-SIMD baseline.
template <typename Workload, typename Options>
TunableApp fig10App(std::string name, uint64_t tripCount,
                    const gpusim::ArchSpec& arch, bool small,
                    std::shared_ptr<const Workload> w,
                    Result<AppRunResult> (*launch)(Device&, const Workload&,
                                                   const Options&)) {
  TunableApp app;
  app.name = std::move(name);
  app.tripCount = tripCount;
  app.axes.teamsModes = {ExecMode::kSPMD};
  app.axes.parallelModes = {ExecMode::kSPMD, ExecMode::kGeneric};
  app.axes.numTeams = small ? std::vector<uint32_t>{32}
                            : std::vector<uint32_t>{32, arch.numSMs};
  app.axes.threadsPerTeam = small ? std::vector<uint32_t>{128}
                                  : std::vector<uint32_t>{128, 256};
  app.axes.simdlens = small ? std::vector<uint32_t>{1, 8, 32}
                            : simdlenAxis(arch, false);
  app.axes.scheduleChunks = {0};
  app.handPicked = {ExecMode::kSPMD, ExecMode::kSPMD, 32, 128, 1, 0};
  setRun(app, [w, launch](Device& device, const TuneCandidate& c,
                          const Knobs& knobs) {
    auto options = shapedOptions<Options>(c, knobs);
    options.mode = candidateSimdMode(c);
    return launch(device, *w, options);
  });
  return app;
}

TunableApp tunableBatchedGemm(const gpusim::ArchSpec& arch, bool small) {
  const auto w = std::make_shared<const BatchedGemmWorkload>(
      generateBatchedGemm(small ? 256 : 1024, 4, /*seed=*/17));

  TunableApp app;
  app.name = "batched_gemm";
  app.tripCount = w->batch;
  app.axes.teamsModes = {ExecMode::kSPMD};  // runBatchedGemm: SPMD teams
  app.axes.parallelModes = {ExecMode::kSPMD, ExecMode::kGeneric};
  app.axes.numTeams = small ? std::vector<uint32_t>{32}
                            : std::vector<uint32_t>{32, arch.numSMs};
  app.axes.threadsPerTeam = small ? std::vector<uint32_t>{128}
                                  : std::vector<uint32_t>{128, 256};
  app.axes.simdlens = small ? std::vector<uint32_t>{1, 4, 8}
                            : std::vector<uint32_t>{1, 2, 4, 8, 16};
  app.axes.scheduleChunks = {0};
  app.handPicked = {ExecMode::kSPMD, ExecMode::kGeneric, 32, 128, 1, 0};
  setRun(app, [w](Device& device, const TuneCandidate& c, const Knobs& knobs) {
    auto options = shapedOptions<BatchedGemmOptions>(c, knobs);
    options.parallelMode = c.parallelMode;
    return runBatchedGemm(device, *w, options);
  });
  return app;
}

}  // namespace

Result<gpusim::KernelStats> verifiedStats(Result<AppRunResult> run,
                                          const std::string& app) {
  if (!run.isOk()) return run.status();
  if (!run.value().verified) {
    return Status::internal(app + " trial produced wrong results");
  }
  return run.value().stats;
}

std::vector<TunableApp> tunableCorpus(const gpusim::ArchSpec& arch,
                                      bool small) {
  // At full size, the Fig. 10 grids: long in the simd dimension.
  const auto grid = std::make_shared<const Laplace3dWorkload>(
      small ? generateLaplace3d(18, /*seed=*/11)
            : generateLaplace3d(34, 34, 258, /*seed=*/9));
  const auto muram = std::make_shared<const MuramWorkload>(
      small ? generateMuram(16, 16, 16, /*seed=*/13)
            : generateMuram(32, 32, 256, /*seed=*/11));
  const uint64_t grid_trip = uint64_t{grid->nx - 2} * (grid->ny - 2);
  const uint64_t muram_trip = uint64_t{muram->nx} * muram->ny;
  return {tunableSpmv(arch, small),
          tunableSu3(arch, small),
          tunableIdeal(arch, small),
          fig10App("laplace3d", grid_trip, arch, small, grid, &runLaplace3d),
          fig10App("muram_transpose", muram_trip, arch, small, muram,
                   &runMuramTranspose),
          fig10App("muram_interpol", muram_trip, arch, small, muram,
                   &runMuramInterpol),
          tunableBatchedGemm(arch, small)};
}

Result<TunableApp> tunableByName(const std::string& name,
                                 const gpusim::ArchSpec& arch, bool small) {
  std::string have;
  for (TunableApp& app : tunableCorpus(arch, small)) {
    if (app.name == name) return std::move(app);
    have += " " + app.name;
  }
  return Status::invalidArgument("unknown app " + quoted(name) + " (have:" +
                                 have + ")");
}

}  // namespace simtomp::apps
