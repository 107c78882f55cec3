#include "apps/su3.h"

#include "dsl/dsl.h"
#include "support/rng.h"

namespace simtomp::apps {

namespace {

using gpusim::GlobalSpan;
using omprt::OmpContext;

/// Flat index of the real part of element (i,j) of matrix `dir` at
/// `site`; the imaginary part follows at +1.
inline uint64_t su3Index(uint64_t site, uint32_t dir, uint32_t i,
                         uint32_t j) {
  return ((site * kSu3Dirs + dir) * kSu3Dim * kSu3Dim +
          static_cast<uint64_t>(i) * kSu3Dim + j) *
         2;
}

/// One output element C[site][dir][i][j] = sum_k A[..][i][k]*B[..][k][j]
/// over complex values: 3 complex multiply-adds.
inline void su3Element(OmpContext& ctx, const GlobalSpan<double>& a,
                       const GlobalSpan<double>& b,
                       const GlobalSpan<double>& c, uint64_t site,
                       uint64_t m) {
  gpusim::ThreadCtx& t = ctx.gpu();
  const auto dir = static_cast<uint32_t>(m / (kSu3Dim * kSu3Dim));
  const auto rem = static_cast<uint32_t>(m % (kSu3Dim * kSu3Dim));
  const uint32_t i = rem / kSu3Dim;
  const uint32_t j = rem % kSu3Dim;
  double cre = 0.0;
  double cim = 0.0;
  for (uint32_t k = 0; k < kSu3Dim; ++k) {
    const uint64_t ai = su3Index(site, dir, i, k);
    const uint64_t bi = su3Index(site, dir, k, j);
    const double are = a.get(t, ai);
    const double aim = a.get(t, ai + 1);
    const double bre = b.get(t, bi);
    const double bim = b.get(t, bi + 1);
    cre += are * bre - aim * bim;
    cim += are * bim + aim * bre;
    t.fma(4);  // complex multiply-accumulate
  }
  const uint64_t ci = su3Index(site, dir, i, j);
  c.set(t, ci, cre);
  c.set(t, ci + 1, cim);
}

/// The host reference C = A*B, streamed: calls f(index, value) once
/// per output double, in memory order.
template <typename F>
void forEachSu3Expected(const Su3Workload& w, F&& f) {
  for (uint64_t site = 0; site < w.numSites; ++site) {
    for (uint32_t dir = 0; dir < kSu3Dirs; ++dir) {
      for (uint32_t i = 0; i < kSu3Dim; ++i) {
        for (uint32_t j = 0; j < kSu3Dim; ++j) {
          double cre = 0.0;
          double cim = 0.0;
          for (uint32_t k = 0; k < kSu3Dim; ++k) {
            const uint64_t ai = su3Index(site, dir, i, k);
            const uint64_t bi = su3Index(site, dir, k, j);
            cre += w.a[ai] * w.b[bi] - w.a[ai + 1] * w.b[bi + 1];
            cim += w.a[ai] * w.b[bi + 1] + w.a[ai + 1] * w.b[bi];
          }
          const uint64_t ci = su3Index(site, dir, i, j);
          f(ci, cre);
          f(ci + 1, cim);
        }
      }
    }
  }
}

}  // namespace

Su3Workload generateSu3(uint32_t numSites, uint64_t seed) {
  Rng rng(seed);
  Su3Workload w;
  w.numSites = numSites;
  const size_t doubles =
      static_cast<size_t>(numSites) * kSu3DoublesPerSite;
  w.a.resize(doubles);
  w.b.resize(doubles);
  for (double& v : w.a) v = rng.nextDouble(-1.0, 1.0);
  for (double& v : w.b) v = rng.nextDouble(-1.0, 1.0);
  return w;
}

std::vector<double> su3Reference(const Su3Workload& w) {
  std::vector<double> c(w.a.size(), 0.0);
  forEachSu3Expected(w, [&c](uint64_t index, double value) {
    c[index] = value;
  });
  return c;
}

Result<AppRunResult> runSu3(gpusim::Device& device, const Su3Workload& w,
                            const Su3Options& options) {
  auto dev_a = toDevice<double>(device, w.a);
  if (!dev_a.isOk()) return dev_a.status();
  auto dev_b = toDevice<double>(device, w.b);
  if (!dev_b.isOk()) return dev_b.status();
  auto dev_c = zeroDevice<double>(device, w.a.size());
  if (!dev_c.isOk()) return dev_c.status();
  const GlobalSpan<double> a = dev_a.value();
  const GlobalSpan<double> b = dev_b.value();
  const GlobalSpan<double> c = dev_c.value();

  // Both teams and parallel regions run in SPMD mode (paper 6.3).
  dsl::LaunchSpec spec;
  spec.numTeams = options.numTeams;
  spec.threadsPerTeam = options.threadsPerTeam;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = omprt::ExecMode::kSPMD;
  spec.simdlen = options.simdlen;

  auto run = dsl::targetTeamsDistributeParallelFor(
      device, spec, w.numSites, [&](OmpContext& ctx, uint64_t site) {
        if (options.simdlen <= 1) {
          // Baseline: each OpenMP thread executes the 36-iteration
          // inner loop serially.
          for (uint64_t m = 0; m < kSu3InnerTrip; ++m) {
            ctx.gpu().work(2);
            su3Element(ctx, a, b, c, site, m);
          }
        } else {
          // Loads, stores and FMAs only: hazard-free, so the convergence
          // fast path may batch it.
          dsl::simd(ctx, kSu3InnerTrip,
                    dsl::convergent([&a, &b, &c, site](OmpContext& inner,
                                                       uint64_t m) {
                      su3Element(inner, a, b, c, site, m);
                    }));
        }
      });

  AppRunResult result;
  if (run.isOk()) {
    result.stats = run.value();
    const Verification check = verifyInPlace(
        c, 1e-12, [&w](auto& f) { forEachSu3Expected(w, f); });
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
