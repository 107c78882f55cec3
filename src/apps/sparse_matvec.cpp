#include "apps/sparse_matvec.h"

#include "dsl/dsl.h"

namespace simtomp::apps {

namespace {

using gpusim::GlobalSpan;
using omprt::OmpContext;

struct DeviceCsr {
  GlobalSpan<uint32_t> rowPtr;
  GlobalSpan<uint32_t> colIdx;
  GlobalSpan<double> values;
  GlobalSpan<double> x;
  GlobalSpan<double> y;
};

Result<DeviceCsr> uploadCsr(gpusim::Device& device, const CsrMatrix& A,
                            std::span<const double> x) {
  DeviceCsr d;
  auto rp = toDevice<uint32_t>(device, A.rowPtr);
  if (!rp.isOk()) return rp.status();
  d.rowPtr = rp.value();
  auto ci = toDevice<uint32_t>(device, A.colIdx);
  if (!ci.isOk()) return ci.status();
  d.colIdx = ci.value();
  auto va = toDevice<double>(device, A.values);
  if (!va.isOk()) return va.status();
  d.values = va.value();
  auto xs = toDevice<double>(device, x);
  if (!xs.isOk()) return xs.status();
  d.x = xs.value();
  auto ys = zeroDevice<double>(device, A.numRows);
  if (!ys.isOk()) return ys.status();
  d.y = ys.value();
  return d;
}

void freeCsr(gpusim::Device& device, const DeviceCsr& d) {
  (void)device.freeArray(d.rowPtr.data());
  (void)device.freeArray(d.colIdx.data());
  (void)device.freeArray(d.values.data());
  (void)device.freeArray(d.x.data());
  (void)device.freeArray(d.y.data());
}

/// One nonzero's contribution, charged like the inner loop of the CSR
/// kernel: load col index + value + x[col], fma, atomic accumulate.
inline void spmvElement(OmpContext& ctx, const DeviceCsr& d, uint64_t row,
                        uint64_t k) {
  gpusim::ThreadCtx& t = ctx.gpu();
  const uint32_t col = d.colIdx.get(t, k);
  const double v = d.values.get(t, k);
  const double xv = d.x.get(t, col);
  t.fma();
  d.y.atomicAdd(t, row, v * xv);
}

Result<gpusim::KernelStats> launchTwoLevel(gpusim::Device& device,
                                           const CsrMatrix& A,
                                           const SpmvOptions& options,
                                           const DeviceCsr& d) {
  // teams distribute (generic) + parallel for (no simd level).
  dsl::LaunchSpec spec;
  static_cast<gpusim::LaunchOptions&>(spec) = options;
  spec.numTeams = options.numTeams;
  spec.threadsPerTeam = options.threadsPerTeam;
  spec.teamsMode = omprt::ExecMode::kGeneric;
  spec.parallelMode = omprt::ExecMode::kSPMD;
  spec.simdlen = 1;
  return dsl::targetTeamsDistribute(
      device, spec, A.numRows, [&](OmpContext& ctx, uint64_t row) {
        gpusim::ThreadCtx& t = ctx.gpu();
        const uint32_t begin = d.rowPtr.get(t, row);
        const uint32_t end = d.rowPtr.get(t, row + 1);
        dsl::parallelFor(
            ctx, end - begin,
            [&d, row, begin](OmpContext& inner, uint64_t k) {
              spmvElement(inner, d, row, begin + k);
            },
            spec.parallelConfig());
      });
}

Result<gpusim::KernelStats> launchThreeLevel(gpusim::Device& device,
                                             const CsrMatrix& A,
                                             const SpmvOptions& options,
                                             const DeviceCsr& d,
                                             bool useReduction) {
  // teams distribute parallel for (SPMD teams) + simd (generic parallel).
  dsl::LaunchSpec spec;
  static_cast<gpusim::LaunchOptions&>(spec) = options;
  spec.numTeams = options.numTeams;
  spec.threadsPerTeam = options.threadsPerTeam;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = options.parallelMode;
  spec.simdlen = options.simdlen;
  return dsl::targetTeamsDistributeParallelFor(
      device, spec, A.numRows, [&](OmpContext& ctx, uint64_t row) {
        gpusim::ThreadCtx& t = ctx.gpu();
        const uint32_t begin = d.rowPtr.get(t, row);
        const uint32_t end = d.rowPtr.get(t, row + 1);
        if (useReduction) {
          // Pure loads + fma: eligible for the convergence fast path
          // whenever the launch runs full-SPMD parallel regions. The
          // atomic variant (spmvElement) must stay unannotated.
          const double sum = dsl::simdReduceAdd(
              ctx, end - begin,
              dsl::convergent(
                  [&d, begin](OmpContext& inner, uint64_t k) -> double {
                    gpusim::ThreadCtx& it = inner.gpu();
                    const uint32_t col = d.colIdx.get(it, begin + k);
                    const double v = d.values.get(it, begin + k);
                    const double xv = d.x.get(it, col);
                    it.fma();
                    return v * xv;
                  }));
          if (ctx.simdGroupId() == 0) d.y.set(t, row, sum);
        } else {
          dsl::simd(ctx, end - begin,
                    [&d, row, begin](OmpContext& inner, uint64_t k) {
                      spmvElement(inner, d, row, begin + k);
                    });
        }
      });
}

}  // namespace

Result<AppRunResult> runSpmv(gpusim::Device& device, const CsrMatrix& A,
                             const SpmvOptions& options) {
  const std::vector<double> x = denseVector(A.numCols, /*seed=*/7);
  auto upload = uploadCsr(device, A, x);
  if (!upload.isOk()) return upload.status();
  const DeviceCsr d = upload.value();

  Result<gpusim::KernelStats> run = [&]() -> Result<gpusim::KernelStats> {
    switch (options.variant) {
      case SpmvVariant::kTwoLevel:
        return launchTwoLevel(device, A, options, d);
      case SpmvVariant::kThreeLevelAtomic:
        return launchThreeLevel(device, A, options, d, false);
      case SpmvVariant::kThreeLevelReduction:
        return launchThreeLevel(device, A, options, d, true);
    }
    return Status::internal("unknown spmv variant");
  }();
  if (!run.isOk()) {
    freeCsr(device, d);
    return run.status();
  }

  AppRunResult result;
  result.stats = run.value();
  const Verification check = verifyInPlace(
      d.y, 1e-9, [&A, &x](auto& f) { forEachSpmvExpected(A, x, f); });
  result.maxError = check.maxError;
  result.verified = check.verified;
  freeCsr(device, d);
  return result;
}

}  // namespace simtomp::apps
