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

namespace simtomp::apps {
namespace {

using omprt::ExecMode;
using simtune::TuneAxes;
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

Result<gpusim::KernelStats> finish(Result<AppRunResult> run,
                                   const char* app) {
  if (!run.isOk()) return run.status();
  if (!run.value().verified) {
    return Status::internal(std::string(app) +
                            " trial produced wrong results");
  }
  return run.value().stats;
}

}  // namespace

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
  app.trial = [A](gpusim::Device& scratch, const TuneCandidate& c) {
    SpmvOptions options;
    options.variant = c.teamsMode == ExecMode::kGeneric
                          ? SpmvVariant::kTwoLevel
                          : SpmvVariant::kThreeLevelAtomic;
    options.numTeams = c.numTeams;
    options.threadsPerTeam = c.threadsPerTeam;
    options.simdlen = c.simdlen;
    options.parallelMode = c.parallelMode;
    options.hostWorkers = 1;  // trials are already fanned out
    return finish(runSpmv(scratch, *A, options), "spmv");
  };
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
  app.trial = [w](gpusim::Device& scratch, const TuneCandidate& c) {
    Su3Options options;
    options.numTeams = c.numTeams;
    options.threadsPerTeam = c.threadsPerTeam;
    options.simdlen = c.simdlen;
    return finish(runSu3(scratch, *w, options), "su3");
  };
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
  app.trial = [w](gpusim::Device& scratch, const TuneCandidate& c) {
    IdealOptions options;
    options.numTeams = c.numTeams;
    options.threadsPerTeam = c.threadsPerTeam;
    options.simdlen = c.simdlen;
    options.flopsPerElement = 2;  // the Fig. 9 setting
    return finish(runIdeal(scratch, *w, options), "ideal");
  };
  return app;
}

TunableApp tunableLaplace3d(const gpusim::ArchSpec& arch, bool small) {
  const auto w = std::make_shared<const Laplace3dWorkload>(
      generateLaplace3d(small ? 18 : 34, /*seed=*/11));

  TunableApp app;
  app.name = "laplace3d";
  app.tripCount =
      static_cast<uint64_t>(w->nx - 2) * static_cast<uint64_t>(w->ny - 2);
  app.axes.teamsModes = {ExecMode::kSPMD};  // Fig. 10: teams always SPMD
  app.axes.parallelModes = {ExecMode::kSPMD, ExecMode::kGeneric};
  app.axes.numTeams = small ? std::vector<uint32_t>{32}
                            : std::vector<uint32_t>{32, arch.numSMs};
  app.axes.threadsPerTeam = small ? std::vector<uint32_t>{128}
                                  : std::vector<uint32_t>{128, 256};
  app.axes.simdlens = small ? std::vector<uint32_t>{1, 8, 32}
                            : simdlenAxis(arch, false);
  app.axes.scheduleChunks = {0};
  app.handPicked = {ExecMode::kSPMD, ExecMode::kSPMD, 32, 128, 1, 0};
  app.trial = [w](gpusim::Device& scratch, const TuneCandidate& c) {
    Laplace3dOptions options;
    options.mode = candidateSimdMode(c);
    options.numTeams = c.numTeams;
    options.threadsPerTeam = c.threadsPerTeam;
    options.simdlen = c.simdlen;
    return finish(runLaplace3d(scratch, *w, options), "laplace3d");
  };
  return app;
}

namespace {

TunableApp tunableMuram(const gpusim::ArchSpec& arch, bool small,
                        bool interpol) {
  const uint32_t n = small ? 16 : 32;
  const auto w = std::make_shared<const MuramWorkload>(
      generateMuram(n, n, n, /*seed=*/13));

  TunableApp app;
  app.name = interpol ? "muram_interpol" : "muram_transpose";
  app.tripCount = static_cast<uint64_t>(w->nx) * w->ny;
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
  app.trial = [w, interpol](gpusim::Device& scratch, const TuneCandidate& c) {
    MuramOptions options;
    options.mode = candidateSimdMode(c);
    options.numTeams = c.numTeams;
    options.threadsPerTeam = c.threadsPerTeam;
    options.simdlen = c.simdlen;
    return finish(interpol ? runMuramInterpol(scratch, *w, options)
                           : runMuramTranspose(scratch, *w, options),
                  "muram");
  };
  return app;
}

}  // namespace

TunableApp tunableMuramTranspose(const gpusim::ArchSpec& arch, bool small) {
  return tunableMuram(arch, small, /*interpol=*/false);
}

TunableApp tunableMuramInterpol(const gpusim::ArchSpec& arch, bool small) {
  return tunableMuram(arch, small, /*interpol=*/true);
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
  app.trial = [w](gpusim::Device& scratch, const TuneCandidate& c) {
    BatchedGemmOptions options;
    options.numTeams = c.numTeams;
    options.threadsPerTeam = c.threadsPerTeam;
    options.simdlen = c.simdlen;
    options.parallelMode = c.parallelMode;
    return finish(runBatchedGemm(scratch, *w, options), "batched_gemm");
  };
  return app;
}

std::vector<TunableApp> tunableCorpus(const gpusim::ArchSpec& arch,
                                      bool small) {
  std::vector<TunableApp> corpus;
  corpus.push_back(tunableSpmv(arch, small));
  corpus.push_back(tunableSu3(arch, small));
  corpus.push_back(tunableIdeal(arch, small));
  corpus.push_back(tunableLaplace3d(arch, small));
  corpus.push_back(tunableMuramTranspose(arch, small));
  corpus.push_back(tunableMuramInterpol(arch, small));
  corpus.push_back(tunableBatchedGemm(arch, small));
  return corpus;
}

TunableApp tunableByName(const std::string& name,
                         const gpusim::ArchSpec& arch, bool small) {
  for (TunableApp& app : tunableCorpus(arch, small)) {
    if (app.name == name) return std::move(app);
  }
  SIMTOMP_CHECK(false, "unknown tunable app: " + name);
  return {};
}

}  // namespace simtomp::apps
