// Tests for the application kernels: workload generators, host
// references, device-vs-reference verification across execution
// modes and SIMD group sizes, the in-place verification helper, and
// the host-side page-fault budget of a warm app run.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <limits>

#include "apps/csr.h"
#include "apps/ideal_kernel.h"
#include "apps/laplace3d.h"
#include "apps/muram.h"
#include "apps/sparse_matvec.h"
#include "apps/su3.h"
#include "scoped_env.h"

namespace simtomp::apps {
namespace {

using gpusim::ArchSpec;
using gpusim::Device;
using test::ScopedEnv;

// ---------------- in-place verification ----------------

class VerifyInPlaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto span = zeroDevice<double>(dev_, 3);
    ASSERT_TRUE(span.isOk());
    out_ = span.value();
  }
  void TearDown() override { (void)dev_.freeArray(out_.data()); }

  /// Write `got` into the device array, then check it against
  /// {1, 2, 3} streamed for every index in `visit`.
  Verification check(const std::vector<double>& got,
                     const std::vector<uint64_t>& visit) {
    for (size_t i = 0; i < got.size(); ++i) out_.data()[i] = got[i];
    return verifyInPlace(out_, 1e-12, [&visit](auto& f) {
      for (const uint64_t index : visit) {
        f(index, static_cast<double>(index + 1));
      }
    });
  }

  Device dev_{ArchSpec::testTiny()};
  gpusim::GlobalSpan<double> out_;
};

TEST_F(VerifyInPlaceTest, ExactMatchPasses) {
  const Verification v = check({1.0, 2.0, 3.0}, {0, 1, 2});
  EXPECT_TRUE(v.verified);
  EXPECT_EQ(v.maxError, 0.0);
}

TEST_F(VerifyInPlaceTest, NanElementFails) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Verification v = check({1.0, nan, 3.0}, {0, 1, 2});
  EXPECT_FALSE(v.verified);
  EXPECT_TRUE(std::isinf(v.maxError));
}

TEST_F(VerifyInPlaceTest, ElementOffByMoreThanToleranceFails) {
  const Verification v = check({1.0, 2.0 + 1e-9, 3.0}, {0, 1, 2});
  EXPECT_FALSE(v.verified);
  EXPECT_NEAR(v.maxError, 1e-9, 1e-15);
}

TEST_F(VerifyInPlaceTest, SkippedIndexFails) {
  // Index 1 holds garbage but is never visited: a short reference.
  const Verification v = check({1.0, 99.0, 3.0}, {0, 2});
  EXPECT_FALSE(v.verified);
  EXPECT_TRUE(std::isinf(v.maxError));
}

TEST_F(VerifyInPlaceTest, IndexPastTheArrayFails) {
  const Verification v = check({1.0, 2.0, 3.0}, {0, 1, 3});
  EXPECT_FALSE(v.verified);
  EXPECT_TRUE(std::isinf(v.maxError));
}

// ---------------- host cost of a warm app run ----------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SIMTOMP_APPS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SIMTOMP_APPS_SANITIZED 1
#endif
#endif

long minorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Minor page faults taken by one call of `run`.
template <typename Run>
long faultsOf(Run run) {
  const long before = minorFaults();
  run();
  return minorFaults() - before;
}

TEST(AppsHostCostTest, WarmRunsTouchNoFreshPages) {
#ifdef SIMTOMP_APPS_SANITIZED
  GTEST_SKIP() << "the sanitizer allocator's quarantine touches fresh pages";
#endif
  // Checking and profiling allocate shadow state per launch; pin both
  // off so the budget measures the app harness and the launch alone.
  ScopedEnv check("SIMTOMP_CHECK", "off");
  ScopedEnv prof("SIMTOMP_PROF", "off");
  Device dev(ArchSpec::nvidiaA100());
  const Su3Workload su3 = generateSu3(5120, 1);
  Su3Options su3Options;
  su3Options.numTeams = 32;
  su3Options.threadsPerTeam = 128;
  su3Options.simdlen = 4;
  const IdealWorkload ideal = generateIdeal(3456, 32, 1);
  IdealOptions idealOptions;
  idealOptions.numTeams = 108;
  idealOptions.threadsPerTeam = 128;
  idealOptions.simdlen = 32;
  idealOptions.flopsPerElement = 2;

  const auto runSu3Once = [&] {
    auto result = runSu3(dev, su3, su3Options);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_TRUE(result.value().verified) << result.value().maxError;
  };
  const auto runIdealOnce = [&] {
    auto result = runIdeal(dev, ideal, idealOptions);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_TRUE(result.value().verified) << result.value().maxError;
  };
  // Warm up: the first runs fault in the device arena, fiber stacks and
  // the executor's workers.
  runSu3Once();
  runIdealOnce();
  // A warm run reuses all of it: verification reads the device array in
  // place instead of filling a reference vector and a host copy.
  EXPECT_LE(faultsOf(runSu3Once), 16);
  EXPECT_LE(faultsOf(runIdealOnce), 16);
}

// ---------------- CSR generator ----------------

TEST(CsrTest, GeneratorShapeIsConsistent) {
  CsrGenConfig config;
  config.numRows = 100;
  config.numCols = 80;
  config.meanRowLength = 5;
  config.maxRowLength = 20;
  const CsrMatrix A = generateCsr(config);
  EXPECT_EQ(A.numRows, 100u);
  EXPECT_EQ(A.rowPtr.size(), 101u);
  EXPECT_EQ(A.rowPtr.front(), 0u);
  EXPECT_EQ(A.rowPtr.back(), A.nnz());
  EXPECT_EQ(A.colIdx.size(), A.values.size());
  for (uint32_t r = 0; r < A.numRows; ++r) {
    EXPECT_LE(A.rowPtr[r], A.rowPtr[r + 1]);
    EXPECT_GE(A.rowLength(r), 1u);
    EXPECT_LE(A.rowLength(r), 20u);
  }
}

TEST(CsrTest, ColumnsSortedAndDistinctPerRow) {
  const CsrMatrix A = generateCsr({});
  for (uint32_t r = 0; r < A.numRows; ++r) {
    for (uint32_t k = A.rowPtr[r] + 1; k < A.rowPtr[r + 1]; ++k) {
      EXPECT_LT(A.colIdx[k - 1], A.colIdx[k]);
      EXPECT_LT(A.colIdx[k], A.numCols);
    }
  }
}

TEST(CsrTest, DeterministicForSeed) {
  const CsrMatrix a = generateCsr({});
  const CsrMatrix b = generateCsr({});
  EXPECT_EQ(a.rowPtr, b.rowPtr);
  EXPECT_EQ(a.colIdx, b.colIdx);
  EXPECT_EQ(a.values, b.values);
}

TEST(CsrTest, RowLengthsVary) {
  const CsrMatrix A = generateCsr({});
  uint32_t min_len = ~0u;
  uint32_t max_len = 0;
  for (uint32_t r = 0; r < A.numRows; ++r) {
    min_len = std::min(min_len, A.rowLength(r));
    max_len = std::max(max_len, A.rowLength(r));
  }
  EXPECT_LT(min_len, max_len);  // "varies based on the sparsity"
}

TEST(CsrTest, ReferenceMatchesDenseComputation) {
  CsrGenConfig config;
  config.numRows = 16;
  config.numCols = 16;
  config.meanRowLength = 3;
  config.maxRowLength = 8;
  const CsrMatrix A = generateCsr(config);
  const std::vector<double> x = denseVector(16, 1);
  const std::vector<double> y = spmvReference(A, x);
  // Recompute densely.
  for (uint32_t r = 0; r < 16; ++r) {
    double sum = 0.0;
    for (uint32_t k = A.rowPtr[r]; k < A.rowPtr[r + 1]; ++k) {
      sum += A.values[k] * x[A.colIdx[k]];
    }
    EXPECT_DOUBLE_EQ(y[r], sum);
  }
}

// ---------------- sparse_matvec ----------------

class SpmvFixture : public ::testing::Test {
 protected:
  SpmvFixture() {
    CsrGenConfig config;
    config.numRows = 256;
    config.numCols = 256;
    config.meanRowLength = 8;
    config.maxRowLength = 32;
    A_ = generateCsr(config);
  }
  CsrMatrix A_;
  Device dev_{ArchSpec::testTiny()};
};

TEST_F(SpmvFixture, TwoLevelVerifies) {
  SpmvOptions options;
  options.variant = SpmvVariant::kTwoLevel;
  options.numTeams = 8;
  options.threadsPerTeam = 32;
  auto result = runSpmv(dev_, A_, options);
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_TRUE(result.value().verified) << result.value().maxError;
}

class SpmvGroupSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SpmvGroupSweep, ThreeLevelAtomicVerifies) {
  CsrGenConfig config;
  config.numRows = 128;
  config.meanRowLength = 6;
  config.maxRowLength = 24;
  const CsrMatrix A = generateCsr(config);
  Device dev(ArchSpec::testTiny());
  SpmvOptions options;
  options.variant = SpmvVariant::kThreeLevelAtomic;
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  options.simdlen = GetParam();
  auto result = runSpmv(dev, A, options);
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_TRUE(result.value().verified) << result.value().maxError;
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, SpmvGroupSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

TEST_F(SpmvFixture, ReductionVariantVerifiesAndAvoidsAtomics) {
  SpmvOptions options;
  options.variant = SpmvVariant::kThreeLevelReduction;
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  options.simdlen = 8;
  auto result = runSpmv(dev_, A_, options);
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_TRUE(result.value().verified);
  EXPECT_EQ(result.value().stats.counters.get(gpusim::Counter::kAtomicRmw),
            0u);
}

TEST_F(SpmvFixture, AtomicVariantUsesAtomics) {
  SpmvOptions options;
  options.variant = SpmvVariant::kThreeLevelAtomic;
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  options.simdlen = 8;
  auto result = runSpmv(dev_, A_, options);
  ASSERT_TRUE(result.isOk());
  EXPECT_EQ(result.value().stats.counters.get(gpusim::Counter::kAtomicRmw),
            A_.nnz());
}

TEST_F(SpmvFixture, DeviceMemoryFullyReleased) {
  const size_t before = dev_.memory().bytesInUse();
  SpmvOptions options;
  options.variant = SpmvVariant::kThreeLevelAtomic;
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  options.simdlen = 4;
  auto result = runSpmv(dev_, A_, options);
  ASSERT_TRUE(result.isOk());
  EXPECT_EQ(dev_.memory().bytesInUse(), before);
}

// ---------------- SU3 ----------------

TEST(Su3Test, ReferenceHasUnitaryStructure) {
  // C = A*B must be bilinear: scaling A scales C.
  Su3Workload w = generateSu3(4, 7);
  const std::vector<double> c1 = su3Reference(w);
  for (double& v : w.a) v *= 2.0;
  const std::vector<double> c2 = su3Reference(w);
  for (size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c2[i], 2.0 * c1[i], 1e-12);
  }
}

class Su3GroupSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(Su3GroupSweep, VerifiesAcrossGroupSizes) {
  const Su3Workload w = generateSu3(64, 13);
  Device dev(ArchSpec::testTiny());
  Su3Options options;
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  options.simdlen = GetParam();
  auto result = runSu3(dev, w, options);
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_TRUE(result.value().verified) << result.value().maxError;
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, Su3GroupSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

TEST(Su3Test, InnerTripIs36) {
  EXPECT_EQ(kSu3InnerTrip, 36u);
}

// ---------------- Ideal kernel ----------------

class IdealGroupSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IdealGroupSweep, VerifiesAcrossGroupSizes) {
  const IdealWorkload w = generateIdeal(64, 32, 3);
  Device dev(ArchSpec::testTiny());
  IdealOptions options;
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  options.simdlen = GetParam();
  auto result = runIdeal(dev, w, options);
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_TRUE(result.value().verified) << result.value().maxError;
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, IdealGroupSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

TEST(IdealTest, FlopsKnobChangesReference) {
  const IdealWorkload w = generateIdeal(4, 8, 3);
  const auto r8 = idealReference(w, 8);
  const auto r16 = idealReference(w, 16);
  bool different = false;
  for (size_t i = 0; i < r8.size(); ++i) different |= r8[i] != r16[i];
  EXPECT_TRUE(different);
}

// ---------------- laplace3d ----------------

class LaplaceModeSweep : public ::testing::TestWithParam<SimdMode> {};

TEST_P(LaplaceModeSweep, VerifiesInEveryMode) {
  const Laplace3dWorkload w = generateLaplace3d(18, 5);
  Device dev(ArchSpec::testTiny());
  Laplace3dOptions options;
  options.mode = GetParam();
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  auto result = runLaplace3d(dev, w, options);
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_TRUE(result.value().verified) << result.value().maxError;
}

INSTANTIATE_TEST_SUITE_P(Modes, LaplaceModeSweep,
                         ::testing::Values(SimdMode::kNoSimd,
                                           SimdMode::kSpmdSimd,
                                           SimdMode::kGenericSimd));

TEST(LaplaceTest, BoundaryIsPreserved) {
  const Laplace3dWorkload w = generateLaplace3d(10, 5);
  const std::vector<double> out = laplace3dReference(w);
  const uint32_t n = w.nx;
  // Face k=0 must be untouched.
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = 0; j < n; ++j) {
      EXPECT_EQ(out[(i * n + j) * n], w.u[(i * n + j) * n]);
    }
  }
}

// ---------------- MURaM kernels ----------------

class MuramModeSweep : public ::testing::TestWithParam<SimdMode> {};

TEST_P(MuramModeSweep, TransposeVerifies) {
  const MuramWorkload w = generateMuram(12, 10, 16, 5);
  Device dev(ArchSpec::testTiny());
  MuramOptions options;
  options.mode = GetParam();
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  auto result = runMuramTranspose(dev, w, options);
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_TRUE(result.value().verified) << result.value().maxError;
}

TEST_P(MuramModeSweep, InterpolVerifies) {
  const MuramWorkload w = generateMuram(12, 10, 16, 5);
  Device dev(ArchSpec::testTiny());
  MuramOptions options;
  options.mode = GetParam();
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  auto result = runMuramInterpol(dev, w, options);
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_TRUE(result.value().verified) << result.value().maxError;
}

INSTANTIATE_TEST_SUITE_P(Modes, MuramModeSweep,
                         ::testing::Values(SimdMode::kNoSimd,
                                           SimdMode::kSpmdSimd,
                                           SimdMode::kGenericSimd));

TEST(MuramTest, TransposeIsInvolutionOnCube) {
  MuramWorkload w = generateMuram(8, 8, 8, 2);
  const std::vector<double> once = muramTransposeReference(w);
  MuramWorkload w2 = w;
  w2.input = once;
  const std::vector<double> twice = muramTransposeReference(w2);
  EXPECT_EQ(twice, w.input);
}

TEST(MuramTest, InterpolIsExactForLinearData) {
  MuramWorkload w;
  w.nx = 4;
  w.ny = 4;
  w.nz = 8;
  w.input.resize(4 * 4 * 8);
  for (uint64_t i = 0; i < 4; ++i) {
    for (uint64_t j = 0; j < 4; ++j) {
      for (uint64_t k = 0; k < 8; ++k) {
        w.input[(i * 4 + j) * 8 + k] = static_cast<double>(k);
      }
    }
  }
  const std::vector<double> out = muramInterpolReference(w);
  for (uint64_t i = 0; i < 4; ++i) {
    for (uint64_t j = 0; j < 4; ++j) {
      for (uint64_t k = 0; k + 1 < 8; ++k) {
        EXPECT_DOUBLE_EQ(out[(i * 4 + j) * 7 + k],
                         static_cast<double>(k) + 0.5);
      }
    }
  }
}

}  // namespace
}  // namespace simtomp::apps
