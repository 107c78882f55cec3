#include "apps/muram.h"

#include "dsl/dsl.h"
#include "support/rng.h"

namespace simtomp::apps {

namespace {

using gpusim::GlobalSpan;
using omprt::OmpContext;

dsl::LaunchSpec specFor(const MuramOptions& options) {
  dsl::LaunchSpec spec;
  spec.numTeams = options.numTeams;
  spec.threadsPerTeam = options.threadsPerTeam;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = options.mode == SimdMode::kGenericSimd
                          ? omprt::ExecMode::kGeneric
                          : omprt::ExecMode::kSPMD;
  spec.simdlen = options.mode == SimdMode::kNoSimd ? 1 : options.simdlen;
  return spec;
}

/// Run one "collapsed (i,j), k-line inner" kernel in the requested
/// SIMD mode; `point(ctx, i, j, k)` handles one element and must be
/// hazard-free (the simd body is declared dsl::convergent).
template <typename Point>
Result<gpusim::KernelStats> launchPlaneKernel(gpusim::Device& device,
                                              const MuramWorkload& w,
                                              const MuramOptions& options,
                                              uint64_t kTrip, Point point) {
  const dsl::LaunchSpec spec = specFor(options);
  const uint64_t planes = static_cast<uint64_t>(w.nx) * w.ny;
  return dsl::targetTeamsDistributeParallelFor(
      device, spec, planes, [&](OmpContext& ctx, uint64_t plane) {
        const uint64_t i = plane / w.ny;
        const uint64_t j = plane % w.ny;
        ctx.gpu().work(3);
        if (options.mode == SimdMode::kNoSimd) {
          for (uint64_t k = 0; k < kTrip; ++k) {
            ctx.gpu().work(2);
            point(ctx, i, j, k);
          }
        } else {
          dsl::simd(ctx, kTrip,
                    dsl::convergent([&point, i, j](OmpContext& c, uint64_t k) {
                      point(c, i, j, k);
                    }));
        }
      });
}

/// Upload the input, run `kernel(in, out)`, and check `out` in place
/// against the reference streamed by `forEachExpected` (verifyInPlace).
template <typename ForEachExpected, typename Kernel>
Result<AppRunResult> runWithVerify(gpusim::Device& device,
                                   const MuramWorkload& w, size_t outSize,
                                   ForEachExpected forEachExpected,
                                   Kernel kernel) {
  auto dev_in = toDevice<double>(device, w.input);
  if (!dev_in.isOk()) return dev_in.status();
  auto dev_out = zeroDevice<double>(device, outSize);
  if (!dev_out.isOk()) return dev_out.status();
  const GlobalSpan<double> in = dev_in.value();
  const GlobalSpan<double> out = dev_out.value();

  auto run = kernel(in, out);

  AppRunResult result;
  if (run.isOk()) {
    result.stats = run.value();
    const Verification check = verifyInPlace(out, 1e-12, forEachExpected);
    result.maxError = check.maxError;
    result.verified = check.verified;
  }
  (void)device.freeArray(in.data());
  (void)device.freeArray(out.data());
  if (!run.isOk()) return run.status();
  return result;
}

/// The transpose reference, streamed: calls f(index, value) once per
/// output element.
template <typename F>
void forEachMuramTransposeExpected(const MuramWorkload& w, F&& f) {
  for (uint64_t i = 0; i < w.nx; ++i) {
    for (uint64_t j = 0; j < w.ny; ++j) {
      for (uint64_t k = 0; k < w.nz; ++k) {
        f((k * w.ny + j) * w.nx + i, w.input[(i * w.ny + j) * w.nz + k]);
      }
    }
  }
}

/// The k-line interpolation reference, streamed: calls f(index, value)
/// once per output element, in memory order.
template <typename F>
void forEachMuramInterpolExpected(const MuramWorkload& w, F&& f) {
  for (uint64_t i = 0; i < w.nx; ++i) {
    for (uint64_t j = 0; j < w.ny; ++j) {
      for (uint64_t k = 0; k + 1 < w.nz; ++k) {
        const double a = w.input[(i * w.ny + j) * w.nz + k];
        const double b = w.input[(i * w.ny + j) * w.nz + k + 1];
        f((i * w.ny + j) * (w.nz - 1) + k, 0.5 * (a + b));
      }
    }
  }
}

}  // namespace

MuramWorkload generateMuram(uint32_t nx, uint32_t ny, uint32_t nz,
                            uint64_t seed) {
  Rng rng(seed);
  MuramWorkload w;
  w.nx = nx;
  w.ny = ny;
  w.nz = nz;
  w.input.resize(static_cast<size_t>(nx) * ny * nz);
  for (double& v : w.input) v = rng.nextDouble(-10.0, 10.0);
  return w;
}

std::vector<double> muramTransposeReference(const MuramWorkload& w) {
  std::vector<double> out(w.input.size(), 0.0);
  forEachMuramTransposeExpected(w, [&out](uint64_t index, double value) {
    out[index] = value;
  });
  return out;
}

std::vector<double> muramInterpolReference(const MuramWorkload& w) {
  std::vector<double> out(
      static_cast<size_t>(w.nx) * w.ny * (w.nz - 1), 0.0);
  forEachMuramInterpolExpected(w, [&out](uint64_t index, double value) {
    out[index] = value;
  });
  return out;
}

Result<AppRunResult> runMuramTranspose(gpusim::Device& device,
                                       const MuramWorkload& w,
                                       const MuramOptions& options) {
  return runWithVerify(
      device, w, w.input.size(),
      [&w](auto& f) { forEachMuramTransposeExpected(w, f); },
      [&](const GlobalSpan<double>& in, const GlobalSpan<double>& out) {
        return launchPlaneKernel(
            device, w, options, w.nz,
            [&in, &out, &w](OmpContext& ctx, uint64_t i, uint64_t j,
                            uint64_t k) {
              gpusim::ThreadCtx& t = ctx.gpu();
              const double v = in.get(t, (i * w.ny + j) * w.nz + k);
              t.work(4);  // index remap arithmetic
              out.set(t, (k * w.ny + j) * w.nx + i, v);
            });
      });
}

Result<AppRunResult> runMuramInterpol(gpusim::Device& device,
                                      const MuramWorkload& w,
                                      const MuramOptions& options) {
  return runWithVerify(
      device, w, static_cast<size_t>(w.nx) * w.ny * (w.nz - 1),
      [&w](auto& f) { forEachMuramInterpolExpected(w, f); },
      [&](const GlobalSpan<double>& in, const GlobalSpan<double>& out) {
        return launchPlaneKernel(
            device, w, options, w.nz - 1,
            [&in, &out, &w](OmpContext& ctx, uint64_t i, uint64_t j,
                            uint64_t k) {
              gpusim::ThreadCtx& t = ctx.gpu();
              const double a = in.get(t, (i * w.ny + j) * w.nz + k);
              const double b = in.get(t, (i * w.ny + j) * w.nz + k + 1);
              t.fma(1);
              out.set(t, (i * w.ny + j) * (w.nz - 1) + k, 0.5 * (a + b));
            });
      });
}

}  // namespace simtomp::apps
