#include "apps/ideal_kernel.h"

#include "dsl/dsl.h"
#include "support/rng.h"

namespace simtomp::apps {

namespace {

using gpusim::GlobalSpan;
using omprt::OmpContext;

inline double rowScalar(double first, uint64_t row) {
  return 0.5 * first + static_cast<double>(row % 17);
}

inline double elementValue(double s, double in, uint64_t k,
                           uint32_t flops) {
  double v = s * in + static_cast<double>(k);
  for (uint32_t f = 0; f < flops; ++f) v = v * 1.0000001 + 0.5;
  return v;
}

/// The host reference, streamed: calls f(index, value) once per output
/// element, in memory order.
template <typename F>
void forEachIdealExpected(const IdealWorkload& w, uint32_t flopsPerElement,
                          F&& f) {
  for (uint64_t i = 0; i < w.outerTrip; ++i) {
    const double s = rowScalar(w.input[i * w.innerTrip], i);
    for (uint64_t k = 0; k < w.innerTrip; ++k) {
      f(i * w.innerTrip + k,
        elementValue(s, w.input[i * w.innerTrip + k], k, flopsPerElement));
    }
  }
}

}  // namespace

IdealWorkload generateIdeal(uint32_t outerTrip, uint32_t innerTrip,
                            uint64_t seed) {
  Rng rng(seed);
  IdealWorkload w;
  w.outerTrip = outerTrip;
  w.innerTrip = innerTrip;
  w.input.resize(static_cast<size_t>(outerTrip) * innerTrip);
  for (double& v : w.input) v = rng.nextDouble(-1.0, 1.0);
  return w;
}

std::vector<double> idealReference(const IdealWorkload& w,
                                   uint32_t flopsPerElement) {
  std::vector<double> out(w.input.size(), 0.0);
  forEachIdealExpected(w, flopsPerElement, [&out](uint64_t index,
                                                  double value) {
    out[index] = value;
  });
  return out;
}

Result<AppRunResult> runIdeal(gpusim::Device& device, const IdealWorkload& w,
                              const IdealOptions& options) {
  auto dev_in = toDevice<double>(device, w.input);
  if (!dev_in.isOk()) return dev_in.status();
  auto dev_out = zeroDevice<double>(device, w.input.size());
  if (!dev_out.isOk()) return dev_out.status();
  const GlobalSpan<double> in = dev_in.value();
  const GlobalSpan<double> out = dev_out.value();
  const uint32_t inner = w.innerTrip;
  const uint32_t flops = options.flopsPerElement;

  dsl::LaunchSpec spec;
  spec.numTeams = options.numTeams;
  spec.threadsPerTeam = options.threadsPerTeam;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = options.simdlen > 1 ? omprt::ExecMode::kGeneric
                                          : omprt::ExecMode::kSPMD;
  spec.simdlen = options.simdlen;

  auto run = dsl::targetTeamsDistributeParallelFor(
      device, spec, w.outerTrip, [&](OmpContext& ctx, uint64_t row) {
        gpusim::ThreadCtx& t = ctx.gpu();
        // Sequential preamble: the row scalar must be computed before
        // the inner loop (this is what makes the nest non-collapsible).
        const double s = rowScalar(in.get(t, row * inner), row);
        t.fma(2);
        if (options.simdlen <= 1) {
          for (uint64_t k = 0; k < inner; ++k) {
            t.work(2);
            const double v = in.get(t, row * inner + k);
            t.fma(1 + flops);
            out.set(t, row * inner + k, elementValue(s, v, k, flops));
          }
        } else {
          dsl::simd(ctx, inner,
                    [&in, &out, s, row, inner, flops](OmpContext& c,
                                                      uint64_t k) {
                      gpusim::ThreadCtx& ct = c.gpu();
                      const double v = in.get(ct, row * inner + k);
                      ct.fma(1 + flops);
                      out.set(ct, row * inner + k,
                              elementValue(s, v, k, flops));
                    });
        }
      });

  AppRunResult result;
  if (run.isOk()) {
    result.stats = run.value();
    const Verification check =
        verifyInPlace(out, 1e-12, [&w, flops](auto& f) {
          forEachIdealExpected(w, flops, f);
        });
    result.maxError = check.maxError;
    result.verified = check.verified;
  }
  (void)device.freeArray(in.data());
  (void)device.freeArray(out.data());
  if (!run.isOk()) return run.status();
  return result;
}

}  // namespace simtomp::apps
