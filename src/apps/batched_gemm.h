// Batched small dense matrix multiply: C[b] = A[b] * B[b] for a batch
// of M x M matrices (M ~ 4..8, thousands of batch items).
//
// This is the classic "three explicit layers of parallelism" shape the
// paper's introduction motivates: the batch dimension feeds teams and
// parallel threads, while the M*M output elements of one matrix are a
// small, non-collapsible inner loop (each output needs the whole k
// row/column, so fusing it with the batch loop changes the access
// pattern) that fits a SIMD group.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"
#include "gpusim/device.h"
#include "gpusim/knobs.h"
#include "omprt/modes.h"
#include "support/status.h"

namespace simtomp::apps {

struct BatchedGemmWorkload {
  uint32_t batch = 1024;
  uint32_t m = 4;           ///< matrix dimension (M x M)
  std::vector<double> a;    ///< batch * m * m
  std::vector<double> b;    ///< batch * m * m
};

BatchedGemmWorkload generateBatchedGemm(uint32_t batch, uint32_t m,
                                        uint64_t seed);

std::vector<double> batchedGemmReference(const BatchedGemmWorkload& w);

struct BatchedGemmOptions : gpusim::LaunchOptions {
  uint32_t numTeams = 32;
  uint32_t threadsPerTeam = 128;
  /// 1 = two-level baseline (serial M*M loop per thread).
  uint32_t simdlen = 1;
  /// Generic or SPMD parallel regions (teams are always SPMD here).
  omprt::ExecMode parallelMode = omprt::ExecMode::kGeneric;
};

Result<AppRunResult> runBatchedGemm(gpusim::Device& device,
                                    const BatchedGemmWorkload& w,
                                    const BatchedGemmOptions& options);

}  // namespace simtomp::apps
