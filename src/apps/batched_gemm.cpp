#include "apps/batched_gemm.h"

#include "dsl/dsl.h"
#include "support/rng.h"

namespace simtomp::apps {

namespace {

using gpusim::GlobalSpan;
using omprt::OmpContext;

/// One output element C[item][i][j] = sum_k A[item][i][k] * B[item][k][j].
inline void gemmElement(OmpContext& ctx, const GlobalSpan<double>& a,
                        const GlobalSpan<double>& b,
                        const GlobalSpan<double>& c, uint32_t m,
                        uint64_t item, uint64_t e) {
  gpusim::ThreadCtx& t = ctx.gpu();
  const uint64_t i = e / m;
  const uint64_t j = e % m;
  const uint64_t base = item * m * m;
  double sum = 0.0;
  for (uint32_t k = 0; k < m; ++k) {
    sum += a.get(t, base + i * m + k) * b.get(t, base + k * m + j);
    t.fma();
  }
  c.set(t, base + e, sum);
}

/// The host reference, streamed: calls f(index, value) once per output
/// element, in memory order.
template <typename F>
void forEachBatchedGemmExpected(const BatchedGemmWorkload& w, F&& f) {
  const uint32_t m = w.m;
  for (uint64_t item = 0; item < w.batch; ++item) {
    const uint64_t base = item * m * m;
    for (uint64_t i = 0; i < m; ++i) {
      for (uint64_t j = 0; j < m; ++j) {
        double sum = 0.0;
        for (uint32_t k = 0; k < m; ++k) {
          sum += w.a[base + i * m + k] * w.b[base + k * m + j];
        }
        f(base + i * m + j, sum);
      }
    }
  }
}

}  // namespace

BatchedGemmWorkload generateBatchedGemm(uint32_t batch, uint32_t m,
                                        uint64_t seed) {
  Rng rng(seed);
  BatchedGemmWorkload w;
  w.batch = batch;
  w.m = m;
  const size_t n = static_cast<size_t>(batch) * m * m;
  w.a.resize(n);
  w.b.resize(n);
  for (double& v : w.a) v = rng.nextDouble(-2.0, 2.0);
  for (double& v : w.b) v = rng.nextDouble(-2.0, 2.0);
  return w;
}

std::vector<double> batchedGemmReference(const BatchedGemmWorkload& w) {
  std::vector<double> c(w.a.size(), 0.0);
  forEachBatchedGemmExpected(w, [&c](uint64_t index, double value) {
    c[index] = value;
  });
  return c;
}

Result<AppRunResult> runBatchedGemm(gpusim::Device& device,
                                    const BatchedGemmWorkload& w,
                                    const BatchedGemmOptions& options) {
  auto dev_a = toDevice<double>(device, w.a);
  if (!dev_a.isOk()) return dev_a.status();
  auto dev_b = toDevice<double>(device, w.b);
  if (!dev_b.isOk()) return dev_b.status();
  auto dev_c = zeroDevice<double>(device, w.a.size());
  if (!dev_c.isOk()) return dev_c.status();
  const GlobalSpan<double> a = dev_a.value();
  const GlobalSpan<double> b = dev_b.value();
  const GlobalSpan<double> c = dev_c.value();
  const uint32_t m = w.m;
  const uint64_t elements = static_cast<uint64_t>(m) * m;

  dsl::LaunchSpec spec;
  static_cast<gpusim::LaunchOptions&>(spec) = options;
  spec.numTeams = options.numTeams;
  spec.threadsPerTeam = options.threadsPerTeam;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode =
      options.simdlen > 1 ? options.parallelMode : omprt::ExecMode::kSPMD;
  spec.simdlen = options.simdlen;

  auto run = dsl::targetTeamsDistributeParallelFor(
      device, spec, w.batch, [&](OmpContext& ctx, uint64_t item) {
        if (options.simdlen <= 1) {
          for (uint64_t e = 0; e < elements; ++e) {
            ctx.gpu().work(2);
            gemmElement(ctx, a, b, c, m, item, e);
          }
        } else {
          // Loads, stores and FMAs only: hazard-free.
          dsl::simd(ctx, elements,
                    dsl::convergent(
                        [&a, &b, &c, m, item](OmpContext& inner, uint64_t e) {
                          gemmElement(inner, a, b, c, m, item, e);
                        }));
        }
      });

  AppRunResult result;
  if (run.isOk()) {
    result.stats = run.value();
    const Verification check = verifyInPlace(
        c, 1e-11, [&w](auto& f) { forEachBatchedGemmExpected(w, f); });
    result.maxError = check.maxError;
    result.verified = check.verified;
  }
  (void)device.freeArray(a.data());
  (void)device.freeArray(b.data());
  (void)device.freeArray(c.data());
  if (!run.isOk()) return run.status();
  return result;
}

}  // namespace simtomp::apps
