// The paper's synthetic benchmarking kernel (section 6.3): "a small
// inner loop that fits into a single warp, but is not collapsible with
// the outer-loop nest", built to gauge the best-case benefit of the
// third level of parallelism.
//
// Non-collapsibility is realized by a per-row sequential preamble: a
// scalar s_i derived from the row's first element must exist before any
// inner iteration can run, so the two loops cannot be fused into one
// flat iteration space. The outer loop is `teams distribute parallel
// for` (SPMD teams), the inner loop `simd` (generic parallel), matching
// the paper's setup.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"
#include "gpusim/device.h"
#include "gpusim/knobs.h"
#include "support/status.h"

namespace simtomp::apps {

struct IdealWorkload {
  uint32_t outerTrip = 3456;
  uint32_t innerTrip = 32;  ///< fits a single warp
  std::vector<double> input;  ///< outerTrip * innerTrip
};

IdealWorkload generateIdeal(uint32_t outerTrip, uint32_t innerTrip,
                            uint64_t seed);

std::vector<double> idealReference(const IdealWorkload& w,
                                   uint32_t flopsPerElement = 8);

struct IdealOptions : gpusim::LaunchOptions {
  uint32_t numTeams = 108;
  uint32_t threadsPerTeam = 128;
  /// 1 = baseline (serial inner loop on each OpenMP thread).
  uint32_t simdlen = 1;
  /// Extra arithmetic per inner iteration (models kernel intensity).
  uint32_t flopsPerElement = 8;
};

Result<AppRunResult> runIdeal(gpusim::Device& device, const IdealWorkload& w,
                              const IdealOptions& options);

}  // namespace simtomp::apps
