// MURaM-derived kernels (paper section 6.4, ref [30]): two kernels
// adapted from the MPS/University of Chicago radiative MHD code's
// OpenACC port, used to compare SIMD execution modes.
//
//   muram_transpose — 3-D array transpose out[k][j][i] = in[i][j][k];
//   muram_interpol  — staggered-grid interpolation along the fastest
//                     axis: out[i][j][k] = (in[i][j][k]+in[i][j][k+1])/2.
//
// Parallelization mirrors laplace3d: collapsed (i,j) across
// teams+threads, the k loop as the simd level (group size 32), teams
// always SPMD.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"
#include "gpusim/device.h"
#include "gpusim/knobs.h"
#include "support/status.h"

namespace simtomp::apps {

struct MuramWorkload {
  uint32_t nx = 32;
  uint32_t ny = 32;
  uint32_t nz = 32;
  std::vector<double> input;  ///< nx*ny*nz, row-major (i*ny + j)*nz + k
};

MuramWorkload generateMuram(uint32_t nx, uint32_t ny, uint32_t nz,
                            uint64_t seed);

std::vector<double> muramTransposeReference(const MuramWorkload& w);
std::vector<double> muramInterpolReference(const MuramWorkload& w);

struct MuramOptions : gpusim::LaunchOptions {
  SimdMode mode = SimdMode::kNoSimd;
  uint32_t numTeams = 32;
  uint32_t threadsPerTeam = 128;
  uint32_t simdlen = 32;
};

Result<AppRunResult> runMuramTranspose(gpusim::Device& device,
                                       const MuramWorkload& w,
                                       const MuramOptions& options);
Result<AppRunResult> runMuramInterpol(gpusim::Device& device,
                                      const MuramWorkload& w,
                                      const MuramOptions& options);

}  // namespace simtomp::apps
