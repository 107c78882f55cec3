#include "apps/cg_solver.h"

#include <cmath>

#include "dsl/dsl.h"
#include "support/rng.h"

namespace simtomp::apps {

namespace {

using gpusim::GlobalSpan;
using omprt::OmpContext;

struct DeviceCg {
  GlobalSpan<uint32_t> rowPtr;
  GlobalSpan<uint32_t> colIdx;
  GlobalSpan<double> values;
  GlobalSpan<double> x, r, p, q, b;
  GlobalSpan<double> scalar;  ///< one-slot accumulator for dot products
};

/// Launch helper: accumulate cycles and launch count.
class KernelRunner {
 public:
  KernelRunner(gpusim::Device& device, CgResult& result)
      : device_(&device), result_(&result) {}

  template <typename Region>
  Status run(const dsl::LaunchSpec& spec, uint64_t* bucket, Region&& region) {
    auto stats = dsl::target(*device_, spec, std::forward<Region>(region));
    if (!stats.isOk()) return stats.status();
    result_->totalCycles += stats.value().cycles;
    if (bucket != nullptr) *bucket += stats.value().cycles;
    result_->kernelLaunches += 1;
    return Status::ok();
  }

 private:
  gpusim::Device* device_;
  CgResult* result_;
};

}  // namespace

CgWorkload generateCgPoisson(uint32_t grid, uint64_t seed) {
  SIMTOMP_CHECK(grid >= 2, "Poisson grid must be at least 2x2");
  CgWorkload w;
  const uint32_t n = grid * grid;
  w.A.numRows = n;
  w.A.numCols = n;
  w.A.rowPtr.reserve(n + 1);
  w.A.rowPtr.push_back(0);
  // 5-point Laplacian: 4 on the diagonal, -1 to mesh neighbours.
  for (uint32_t row = 0; row < n; ++row) {
    const uint32_t i = row / grid;
    const uint32_t j = row % grid;
    auto push = [&w](uint32_t col, double value) {
      w.A.colIdx.push_back(col);
      w.A.values.push_back(value);
    };
    if (i > 0) push(row - grid, -1.0);
    if (j > 0) push(row - 1, -1.0);
    push(row, 4.0);
    if (j + 1 < grid) push(row + 1, -1.0);
    if (i + 1 < grid) push(row + grid, -1.0);
    w.A.rowPtr.push_back(static_cast<uint32_t>(w.A.colIdx.size()));
  }
  Rng rng(seed);
  w.b.resize(n);
  for (double& v : w.b) v = rng.nextDouble(-1.0, 1.0);
  return w;
}

Result<CgResult> runCg(gpusim::Device& device, const CgWorkload& w,
                       const CgOptions& options) {
  const uint32_t n = w.A.numRows;
  CgResult result;

  // ---- Resident device data (the `target data` region) ----
  DeviceCg d;
  auto alloc = [&](auto& slot, auto host_or_size) -> Status {
    using T = std::remove_reference_t<decltype(slot.raw(0))>;
    if constexpr (std::is_integral_v<std::decay_t<decltype(host_or_size)>>) {
      auto s = zeroDevice<T>(device, host_or_size);
      if (!s.isOk()) return s.status();
      slot = s.value();
    } else {
      auto s = toDevice<T>(device, host_or_size);
      if (!s.isOk()) return s.status();
      slot = s.value();
    }
    return Status::ok();
  };
  Status st;
  if (!(st = alloc(d.rowPtr, std::span<const uint32_t>(w.A.rowPtr))).isOk())
    return st;
  if (!(st = alloc(d.colIdx, std::span<const uint32_t>(w.A.colIdx))).isOk())
    return st;
  if (!(st = alloc(d.values, std::span<const double>(w.A.values))).isOk())
    return st;
  if (!(st = alloc(d.b, std::span<const double>(w.b))).isOk()) return st;
  if (!(st = alloc(d.x, size_t{n})).isOk()) return st;
  if (!(st = alloc(d.r, size_t{n})).isOk()) return st;
  if (!(st = alloc(d.p, size_t{n})).isOk()) return st;
  if (!(st = alloc(d.q, size_t{n})).isOk()) return st;
  if (!(st = alloc(d.scalar, size_t{1})).isOk()) return st;

  auto freeAll = [&] {
    (void)device.freeArray(d.rowPtr.data());
    (void)device.freeArray(d.colIdx.data());
    (void)device.freeArray(d.values.data());
    (void)device.freeArray(d.b.data());
    (void)device.freeArray(d.x.data());
    (void)device.freeArray(d.r.data());
    (void)device.freeArray(d.p.data());
    (void)device.freeArray(d.q.data());
    (void)device.freeArray(d.scalar.data());
  };

  // ---- Launch shapes ----
  dsl::LaunchSpec flat;  // element-wise kernels: 2 levels, SPMD
  flat.numTeams = options.numTeams;
  flat.threadsPerTeam = options.threadsPerTeam;
  dsl::LaunchSpec spmv = flat;  // SpMV: 3 levels, generic-SIMD rows
  spmv.parallelMode = omprt::ExecMode::kGeneric;
  spmv.simdlen = options.simdlen;
  dsl::LaunchSpec dot = flat;   // dot products: hierarchical reduction
  dot.simdlen = 16;

  KernelRunner runner(device, result);

  // q = A * v
  auto runSpmv = [&](const GlobalSpan<double>& v,
                     const GlobalSpan<double>& out) {
    return runner.run(spmv, &result.spmvCycles, [&](OmpContext& ctx) {
      const omprt::rt::Range range = omprt::rt::distributeStatic(ctx, n);
      auto row_body = [&](OmpContext& inner, uint64_t logical) {
        const uint64_t row = range.begin + logical;
        gpusim::ThreadCtx& t = inner.gpu();
        const uint32_t begin = d.rowPtr.get(t, row);
        const uint32_t end = d.rowPtr.get(t, row + 1);
        const double sum = dsl::simdReduceAdd(
            inner, end - begin, [&, begin](OmpContext& c, uint64_t k) {
              gpusim::ThreadCtx& ct = c.gpu();
              const uint32_t col = d.colIdx.get(ct, begin + k);
              ct.fma();
              return d.values.get(ct, begin + k) * v.get(ct, col);
            });
        if (inner.simdGroupId() == 0) out.set(t, row, sum);
      };
      dsl::parallelFor(ctx, range.size(), row_body, spmv.parallelConfig());
    });
  };

  // scalar = dot(u, v)
  auto runDot = [&](const GlobalSpan<double>& u, const GlobalSpan<double>& v) {
    d.scalar.raw(0) = 0.0;  // host-side reset between launches
    return runner.run(dot, &result.dotCycles, [&](OmpContext& ctx) {
      dsl::parallel(
          ctx,
          [&](OmpContext& inner) {
            const uint64_t lanes =
                inner.numThreads() * inner.simdGroupSize();
            const uint64_t start = inner.threadNum() * inner.simdGroupSize() +
                                   inner.simdGroupId();
            const uint64_t stride =
                static_cast<uint64_t>(inner.numTeams()) * lanes;
            double local = 0.0;
            for (uint64_t i = inner.teamNum() * lanes + start; i < n;
                 i += stride) {
              gpusim::ThreadCtx& t = inner.gpu();
              local += u.get(t, i) * v.get(t, i);
              t.fma();
            }
            const double team_total = dsl::teamReduceAdd(inner, local);
            if (dsl::isMaster(inner)) {
              d.scalar.atomicAdd(inner.gpu(), 0, team_total);
            }
          },
          omprt::ParallelConfig{omprt::ExecMode::kSPMD, dot.simdlen});
    });
  };

  // y = y + a * z   (and variants)
  auto runAxpy = [&](double a, const GlobalSpan<double>& z,
                     const GlobalSpan<double>& y) {
    return runner.run(flat, &result.axpyCycles, [&](OmpContext& ctx) {
      auto body = [&, a](OmpContext& inner, uint64_t i) {
        gpusim::ThreadCtx& t = inner.gpu();
        t.fma();
        y.set(t, i, y.get(t, i) + a * z.get(t, i));
      };
      const omprt::rt::Range range = omprt::rt::distributeStatic(ctx, n);
      auto shifted = [&body, base = range.begin](OmpContext& inner,
                                                 uint64_t logical) {
        body(inner, base + logical);
      };
      dsl::parallelFor(ctx, range.size(), shifted, flat.parallelConfig());
    });
  };

  // p = r + beta * p
  auto runUpdateP = [&](double beta) {
    return runner.run(flat, &result.axpyCycles, [&](OmpContext& ctx) {
      const omprt::rt::Range range = omprt::rt::distributeStatic(ctx, n);
      auto body = [&, beta, base = range.begin](OmpContext& inner,
                                                uint64_t logical) {
        const uint64_t i = base + logical;
        gpusim::ThreadCtx& t = inner.gpu();
        t.fma();
        d.p.set(t, i, d.r.get(t, i) + beta * d.p.get(t, i));
      };
      dsl::parallelFor(ctx, range.size(), body, flat.parallelConfig());
    });
  };

  // ---- CG: x = 0, r = p = b ----
  if (!(st = runner.run(flat, &result.axpyCycles, [&](OmpContext& ctx) {
        const omprt::rt::Range range = omprt::rt::distributeStatic(ctx, n);
        auto body = [&, base = range.begin](OmpContext& inner,
                                            uint64_t logical) {
          const uint64_t i = base + logical;
          gpusim::ThreadCtx& t = inner.gpu();
          const double bi = d.b.get(t, i);
          d.x.set(t, i, 0.0);
          d.r.set(t, i, bi);
          d.p.set(t, i, bi);
        };
        dsl::parallelFor(ctx, range.size(), body, flat.parallelConfig());
      })).isOk()) {
    freeAll();
    return st;
  }

  if (!(st = runDot(d.b, d.b)).isOk()) {
    freeAll();
    return st;
  }
  const double b_norm2 = d.scalar.raw(0);
  if (!(st = runDot(d.r, d.r)).isOk()) {
    freeAll();
    return st;
  }
  double rr = d.scalar.raw(0);
  const double stop = options.relativeTolerance * options.relativeTolerance *
                      b_norm2;

  while (result.iterations < options.maxIterations && rr > stop) {
    if (!(st = runSpmv(d.p, d.q)).isOk()) break;          // q = A p
    if (!(st = runDot(d.p, d.q)).isOk()) break;           // pq
    const double alpha = rr / d.scalar.raw(0);
    if (!(st = runAxpy(alpha, d.p, d.x)).isOk()) break;   // x += a p
    if (!(st = runAxpy(-alpha, d.q, d.r)).isOk()) break;  // r -= a q
    if (!(st = runDot(d.r, d.r)).isOk()) break;           // rr'
    const double rr_new = d.scalar.raw(0);
    const double beta = rr_new / rr;
    rr = rr_new;
    if (!(st = runUpdateP(beta)).isOk()) break;           // p = r + b p
    ++result.iterations;
  }
  if (!st.isOk()) {
    freeAll();
    return st;
  }

  result.converged = rr <= stop;
  result.relativeResidual = std::sqrt(rr / b_norm2);

  // ---- Verify on the host: residual of the device solution, in place ----
  double res2 = 0.0;
  forEachSpmvExpected(w.A, std::span<const double>(d.x.data(), d.x.size()),
                      [&w, &res2](uint64_t row, double ax) {
                        const double diff = ax - w.b[row];
                        res2 += diff * diff;
                      });
  const double true_residual = std::sqrt(res2 / b_norm2);
  result.verified =
      result.converged && true_residual < 10.0 * options.relativeTolerance;
  freeAll();
  return result;
}

}  // namespace simtomp::apps
