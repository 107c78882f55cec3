#include "apps/laplace3d.h"

#include "dsl/dsl.h"
#include "support/rng.h"

namespace simtomp::apps {

namespace {

using gpusim::GlobalSpan;
using omprt::OmpContext;

inline uint64_t idx3(const Laplace3dWorkload& w, uint64_t i, uint64_t j,
                     uint64_t k) {
  return (i * w.ny + j) * w.nz + k;
}

/// Six-point average at an interior point: 6 loads + 1 store.
inline void laplacePoint(OmpContext& ctx, const GlobalSpan<double>& u,
                         const GlobalSpan<double>& out,
                         const Laplace3dWorkload& w, uint64_t i, uint64_t j,
                         uint64_t k) {
  gpusim::ThreadCtx& t = ctx.gpu();
  const double sum = u.get(t, idx3(w, i - 1, j, k)) +
                     u.get(t, idx3(w, i + 1, j, k)) +
                     u.get(t, idx3(w, i, j - 1, k)) +
                     u.get(t, idx3(w, i, j + 1, k)) +
                     u.get(t, idx3(w, i, j, k - 1)) +
                     u.get(t, idx3(w, i, j, k + 1));
  t.fma(3);  // 5 adds + 1 multiply
  out.set(t, idx3(w, i, j, k), sum * (1.0 / 6.0));
}

/// The host reference, streamed: calls f(index, value) once per grid
/// point, in memory order. Boundary points keep their old values.
template <typename F>
void forEachLaplace3dExpected(const Laplace3dWorkload& w, F&& f) {
  for (uint64_t i = 0; i < w.nx; ++i) {
    for (uint64_t j = 0; j < w.ny; ++j) {
      for (uint64_t k = 0; k < w.nz; ++k) {
        const uint64_t p = idx3(w, i, j, k);
        const bool interior = i > 0 && i + 1 < w.nx && j > 0 &&
                              j + 1 < w.ny && k > 0 && k + 1 < w.nz;
        f(p, interior
                 ? (w.u[idx3(w, i - 1, j, k)] + w.u[idx3(w, i + 1, j, k)] +
                    w.u[idx3(w, i, j - 1, k)] + w.u[idx3(w, i, j + 1, k)] +
                    w.u[idx3(w, i, j, k - 1)] + w.u[idx3(w, i, j, k + 1)]) *
                       (1.0 / 6.0)
                 : w.u[p]);
      }
    }
  }
}

}  // namespace

Laplace3dWorkload generateLaplace3d(uint32_t n, uint64_t seed) {
  return generateLaplace3d(n, n, n, seed);
}

Laplace3dWorkload generateLaplace3d(uint32_t nx, uint32_t ny, uint32_t nz,
                                    uint64_t seed) {
  Rng rng(seed);
  Laplace3dWorkload w;
  w.nx = nx;
  w.ny = ny;
  w.nz = nz;
  w.u.resize(static_cast<size_t>(nx) * ny * nz);
  for (double& v : w.u) v = rng.nextDouble(0.0, 100.0);
  return w;
}

std::vector<double> laplace3dReference(const Laplace3dWorkload& w) {
  std::vector<double> out(w.u.size(), 0.0);
  forEachLaplace3dExpected(w, [&out](uint64_t index, double value) {
    out[index] = value;
  });
  return out;
}

Result<AppRunResult> runLaplace3d(gpusim::Device& device,
                                  const Laplace3dWorkload& w,
                                  const Laplace3dOptions& options) {
  auto dev_u = toDevice<double>(device, w.u);
  if (!dev_u.isOk()) return dev_u.status();
  // Output starts as a copy so boundary values carry over.
  auto dev_out = toDevice<double>(device, w.u);
  if (!dev_out.isOk()) return dev_out.status();
  const GlobalSpan<double> u = dev_u.value();
  const GlobalSpan<double> out = dev_out.value();
  const uint64_t planes_i = w.nx - 2;
  const uint64_t planes_j = w.ny - 2;
  const uint64_t inner = w.nz - 2;

  dsl::LaunchSpec spec;
  spec.numTeams = options.numTeams;
  spec.threadsPerTeam = options.threadsPerTeam;
  spec.teamsMode = omprt::ExecMode::kSPMD;  // all Fig. 10 teams are SPMD
  spec.parallelMode = options.mode == SimdMode::kGenericSimd
                          ? omprt::ExecMode::kGeneric
                          : omprt::ExecMode::kSPMD;
  spec.simdlen = options.mode == SimdMode::kNoSimd ? 1 : options.simdlen;

  // Collapsed (i,j) plane across teams+threads; k line is the simd level.
  auto run = dsl::targetTeamsDistributeParallelFor(
      device, spec, planes_i * planes_j,
      [&](OmpContext& ctx, uint64_t plane) {
        const uint64_t i = plane / planes_j + 1;
        const uint64_t j = plane % planes_j + 1;
        ctx.gpu().work(3);  // index arithmetic
        if (options.mode == SimdMode::kNoSimd) {
          for (uint64_t kk = 0; kk < inner; ++kk) {
            ctx.gpu().work(2);
            laplacePoint(ctx, u, out, w, i, j, kk + 1);
          }
        } else {
          // Loads, stores and FMAs only: hazard-free.
          dsl::simd(ctx, inner,
                    dsl::convergent(
                        [&u, &out, &w, i, j](OmpContext& c, uint64_t kk) {
                          laplacePoint(c, u, out, w, i, j, kk + 1);
                        }));
        }
      });

  AppRunResult result;
  if (run.isOk()) {
    result.stats = run.value();
    const Verification check = verifyInPlace(
        out, 1e-12, [&w](auto& f) { forEachLaplace3dExpected(w, f); });
    result.maxError = check.maxError;
    result.verified = check.verified;
  }
  (void)device.freeArray(u.data());
  (void)device.freeArray(out.data());
  if (!run.isOk()) return run.status();
  return result;
}

}  // namespace simtomp::apps
