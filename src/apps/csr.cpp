#include "apps/csr.h"

#include <algorithm>

#include "support/status.h"

namespace simtomp::apps {

CsrMatrix generateCsr(const CsrGenConfig& config) {
  SIMTOMP_CHECK(config.numRows > 0 && config.numCols > 0,
                "CSR generator needs a non-empty shape");
  SIMTOMP_CHECK(config.maxRowLength >= 1 &&
                    config.maxRowLength <= config.numCols,
                "maxRowLength must be in [1, numCols]");
  Rng rng(config.seed);
  CsrMatrix A;
  A.numRows = config.numRows;
  A.numCols = config.numCols;
  A.rowPtr.resize(config.numRows + 1, 0);

  // Draw skewed row lengths first so rowPtr is exact.
  std::vector<uint32_t> lengths(config.numRows);
  for (uint32_t r = 0; r < config.numRows; ++r) {
    lengths[r] = rng.nextSkewed(config.meanRowLength, config.maxRowLength);
  }
  for (uint32_t r = 0; r < config.numRows; ++r) {
    A.rowPtr[r + 1] = A.rowPtr[r] + lengths[r];
  }
  const uint32_t nnz = A.rowPtr.back();
  A.colIdx.reserve(nnz);
  A.values.reserve(nnz);

  std::vector<uint32_t> cols;
  for (uint32_t r = 0; r < config.numRows; ++r) {
    // Sample distinct, sorted column indices for the row.
    cols.clear();
    while (cols.size() < lengths[r]) {
      const auto c = static_cast<uint32_t>(rng.nextBelow(config.numCols));
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
    std::sort(cols.begin(), cols.end());
    for (uint32_t c : cols) {
      A.colIdx.push_back(c);
      A.values.push_back(rng.nextDouble(-1.0, 1.0));
    }
  }
  return A;
}

std::vector<double> spmvReference(const CsrMatrix& A,
                                  std::span<const double> x) {
  std::vector<double> y(A.numRows, 0.0);
  forEachSpmvExpected(A, x, [&y](uint64_t row, double value) {
    y[row] = value;
  });
  return y;
}

std::vector<double> denseVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& value : v) value = rng.nextDouble(-1.0, 1.0);
  return v;
}

}  // namespace simtomp::apps
