// spmv_tuning: the paper's developer guidance (section 6.5) as a tool.
//
// "For choosing a simdlen, or SIMD group size, our best results were
//  when we focused on reducing thread waste ... It is likely best to
//  experiment with the different options to see which fits the
//  specific scenario best."
//
// This example generates CSR matrices with different sparsity profiles
// and picks a simdlen for each in two ways:
//
//   1. the manual sweep an application developer would write by hand
//      (every SIMD group size plus the 2-level baseline), and
//   2. the simtune autotuner pointed at the *same* search space.
//
// The two must agree — the tuner is exactly this experiment, automated
// and cached — and the example exits non-zero if they ever disagree.
// A final wider search then lets the tuner roam the full launch space
// (team counts, widths, both spmv structures) to show what the manual
// sweep leaves on the table.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "apps/csr.h"
#include "apps/sparse_matvec.h"
#include "gpusim/device.h"
#include "simtune/tuner.h"

using namespace simtomp;

namespace {

struct Profile {
  const char* name;
  const char* key;  ///< cache kernel key (stable, per profile)
  uint32_t meanRowLength;
  uint32_t maxRowLength;
};

uint64_t measure(const apps::CsrMatrix& A, const apps::SpmvOptions& options) {
  gpusim::Device device;
  auto result = apps::runSpmv(device, A, options);
  if (!result.isOk() || !result.value().verified) {
    std::fprintf(stderr, "spmv run failed\n");
    std::exit(1);
  }
  return result.value().stats.cycles;
}

/// TrialFn over a fixed matrix: teams mode selects the spmv structure
/// (generic = 2-level, SPMD = 3-level), the rest maps field-for-field.
simtune::TrialFn spmvTrial(std::shared_ptr<const apps::CsrMatrix> A) {
  return [A = std::move(A)](gpusim::Device& scratch,
                            const simtune::TuneCandidate& c)
             -> Result<gpusim::KernelStats> {
    apps::SpmvOptions options;
    options.variant = c.teamsMode == omprt::ExecMode::kGeneric
                          ? apps::SpmvVariant::kTwoLevel
                          : apps::SpmvVariant::kThreeLevelAtomic;
    options.numTeams = c.numTeams;
    options.threadsPerTeam = c.threadsPerTeam;
    options.simdlen = c.simdlen;
    options.parallelMode = c.parallelMode;
    options.hostWorkers = 1;  // trials are already fanned out
    auto result = apps::runSpmv(scratch, *A, options);
    if (!result.isOk()) return result.status();
    if (!result.value().verified) {
      return Status::internal("spmv trial produced wrong results");
    }
    return result.value().stats;
  };
}

simtune::TunedShape tuneOrDie(simtune::Tuner& tuner, const std::string& key,
                              const gpusim::ArchSpec& arch,
                              const simtune::TuneAxes& axes,
                              const simtune::TrialFn& trial,
                              uint64_t tripCount) {
  simtune::TuneRequest request;
  request.tripCount = tripCount;
  const auto result =
      tuner.tune(key, arch, gpusim::CostModel{}, axes, trial, request);
  if (!result.isOk()) {
    std::fprintf(stderr, "tuning %s failed: %s\n", key.c_str(),
                 result.status().message().c_str());
    std::exit(1);
  }
  return result.value().shape;
}

}  // namespace

int main() {
  const Profile profiles[] = {
      {"very sparse (mean 4)", "spmv_tuning/sparse4", 4, 16},
      {"paper-like (mean 8)", "spmv_tuning/mean8", 8, 64},
      {"denser rows (mean 24)", "spmv_tuning/dense24", 24, 96},
  };
  const gpusim::ArchSpec arch = gpusim::ArchSpec::nvidiaA100();
  simtune::Tuner tuner;  // in-memory unless SIMTOMP_TUNE_CACHE is set

  for (const Profile& profile : profiles) {
    apps::CsrGenConfig config;
    config.numRows = 2048;
    config.numCols = 2048;
    config.meanRowLength = profile.meanRowLength;
    config.maxRowLength = profile.maxRowLength;
    const auto A =
        std::make_shared<const apps::CsrMatrix>(apps::generateCsr(config));

    std::printf("\nmatrix: %s, %u rows, %u nnz\n", profile.name, A->numRows,
                A->nnz());

    apps::SpmvOptions baseline;
    baseline.variant = apps::SpmvVariant::kTwoLevel;
    baseline.numTeams = 128;
    baseline.threadsPerTeam = 32;
    const uint64_t base_cycles = measure(*A, baseline);
    std::printf("  %-24s %12llu cycles\n", "2-level baseline",
                static_cast<unsigned long long>(base_cycles));

    // The manual sweep from the paper's guidance: fixed 64x256 3-level
    // launch, every SIMD group size.
    uint32_t best_group = 0;
    uint64_t best_cycles = ~uint64_t{0};
    for (uint32_t group : {2u, 4u, 8u, 16u, 32u}) {
      apps::SpmvOptions options;
      options.variant = apps::SpmvVariant::kThreeLevelAtomic;
      options.numTeams = 64;
      options.threadsPerTeam = 256;
      options.simdlen = group;
      const uint64_t cycles = measure(*A, options);
      std::printf("  simd group %-13u %12llu cycles  (%.2fx)\n", group,
                  static_cast<unsigned long long>(cycles),
                  static_cast<double>(base_cycles) /
                      static_cast<double>(cycles));
      if (cycles < best_cycles) {
        best_cycles = cycles;
        best_group = group;
      }
    }
    std::printf("  -> manual sweep picks simdlen(%u), %.2fx over 2-level\n",
                best_group,
                static_cast<double>(base_cycles) /
                    static_cast<double>(best_cycles));

    // The same search space handed to simtune. The tuner must agree
    // with the hand-written sweep — it is the same experiment.
    simtune::TuneAxes sweep;
    sweep.teamsModes = {omprt::ExecMode::kSPMD};
    sweep.parallelModes = {omprt::ExecMode::kGeneric};
    sweep.numTeams = {64};
    sweep.threadsPerTeam = {256};
    sweep.simdlens = {2, 4, 8, 16, 32};
    sweep.scheduleChunks = {0};
    const simtune::TunedShape tuned =
        tuneOrDie(tuner, std::string(profile.key) + "/sweep", arch, sweep,
                  spmvTrial(A), A->numRows);
    std::printf("  -> simtune picks      simdlen(%u)  [%u trials]\n",
                tuned.candidate.simdlen, tuned.trials);
    if (tuned.candidate.simdlen != best_group ||
        tuned.cycles != best_cycles) {
      std::fprintf(stderr,
                   "FATAL: tuner disagrees with the manual sweep "
                   "(simdlen %u @ %llu cycles vs %u @ %llu)\n",
                   tuned.candidate.simdlen,
                   static_cast<unsigned long long>(tuned.cycles), best_group,
                   static_cast<unsigned long long>(best_cycles));
      return 1;
    }

    // Now let the tuner roam: both spmv structures, several team
    // shapes. This is the part a manual sweep rarely covers.
    simtune::TuneAxes wide;
    wide.teamsModes = {omprt::ExecMode::kSPMD, omprt::ExecMode::kGeneric};
    wide.parallelModes = {omprt::ExecMode::kGeneric};
    wide.numTeams = {64, 128};
    wide.threadsPerTeam = {32, 128, 256};
    wide.simdlens = {1, 2, 4, 8, 16, 32};
    wide.scheduleChunks = {0};
    const simtune::TunedShape roam =
        tuneOrDie(tuner, std::string(profile.key) + "/wide", arch, wide,
                  spmvTrial(A), A->numRows);
    std::printf("  -> full-space winner: %s  (%.2fx over 2-level)\n",
                roam.toString().c_str(),
                static_cast<double>(base_cycles) /
                    static_cast<double>(roam.cycles));
  }

  std::printf("\ntuner agreed with the manual sweep on all %zu profiles\n",
              std::size(profiles));
  return 0;
}
