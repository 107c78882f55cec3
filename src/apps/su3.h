// SU3_bench (paper section 6.3, ref [13]): lattice-QCD SU(3) complex
// 3x3 matrix-matrix multiply microbenchmark.
//
// Per lattice site there are 4 link directions, each needing a 3x3
// complex matrix product C = A*B: 4 * 9 = 36 independent output
// elements — the paper's "small inner-loop with 36 total iterations"
// that each GPU thread originally executed serially. The 3-level
// variant puts `simd` on that loop; both `teams` and `parallel` regions
// execute in SPMD mode, as the paper states.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"
#include "gpusim/device.h"
#include "gpusim/knobs.h"
#include "support/status.h"

namespace simtomp::apps {

inline constexpr uint32_t kSu3Dirs = 4;
inline constexpr uint32_t kSu3Dim = 3;
/// Complex doubles per site: 4 dirs * 3x3 * (re,im).
inline constexpr uint32_t kSu3DoublesPerSite =
    kSu3Dirs * kSu3Dim * kSu3Dim * 2;
/// Inner-loop trip count per site (one iteration per output element).
inline constexpr uint32_t kSu3InnerTrip = kSu3Dirs * kSu3Dim * kSu3Dim;

struct Su3Workload {
  uint32_t numSites = 512;
  std::vector<double> a;  ///< numSites * kSu3DoublesPerSite
  std::vector<double> b;  ///< numSites * kSu3DoublesPerSite
};

Su3Workload generateSu3(uint32_t numSites, uint64_t seed);

/// Host reference C = A*B per site/direction.
std::vector<double> su3Reference(const Su3Workload& w);

struct Su3Options : gpusim::LaunchOptions {
  uint32_t numTeams = 32;
  uint32_t threadsPerTeam = 128;
  /// SIMD group size; 1 = the serial-inner-loop baseline.
  uint32_t simdlen = 1;
};

Result<AppRunResult> runSu3(gpusim::Device& device, const Su3Workload& w,
                            const Su3Options& options);

}  // namespace simtomp::apps
