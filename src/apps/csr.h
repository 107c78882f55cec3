// CSR sparse-matrix workload for sparse_matvec (paper section 6.3).
//
// The paper adapted an OpenACC SpMV whose "inner-most loop is
// relatively small, and varies based on the sparsity of the matrix".
// The generator draws skewed (exponential-ish) row lengths around a
// small mean so SIMD groups of ~8 lanes waste few lanes while a full
// 32-thread team mostly idles — the structural property behind the
// paper's 3.5x result.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.h"

namespace simtomp::apps {

struct CsrMatrix {
  uint32_t numRows = 0;
  uint32_t numCols = 0;
  std::vector<uint32_t> rowPtr;  ///< size numRows+1
  std::vector<uint32_t> colIdx;  ///< size nnz
  std::vector<double> values;    ///< size nnz

  [[nodiscard]] uint32_t nnz() const {
    return static_cast<uint32_t>(colIdx.size());
  }
  [[nodiscard]] uint32_t rowLength(uint32_t row) const {
    return rowPtr[row + 1] - rowPtr[row];
  }
};

struct CsrGenConfig {
  uint32_t numRows = 2048;
  uint32_t numCols = 2048;
  /// Mean nonzeros per row (exponential-ish draw, >= 1).
  uint32_t meanRowLength = 8;
  uint32_t maxRowLength = 64;
  uint64_t seed = 42;
};

/// Deterministic skewed-row-length CSR generator.
CsrMatrix generateCsr(const CsrGenConfig& config);

/// Host reference y = A*x, streamed: calls f(row, y[row]) once per row,
/// in row order.
template <typename F>
void forEachSpmvExpected(const CsrMatrix& A, std::span<const double> x,
                         F&& f) {
  for (uint32_t r = 0; r < A.numRows; ++r) {
    double sum = 0.0;
    for (uint32_t k = A.rowPtr[r]; k < A.rowPtr[r + 1]; ++k) {
      sum += A.values[k] * x[A.colIdx[k]];
    }
    f(r, sum);
  }
}

/// Host reference y = A*x.
std::vector<double> spmvReference(const CsrMatrix& A,
                                  std::span<const double> x);

/// Deterministic dense vector of length n (values in [-1, 1]).
std::vector<double> denseVector(size_t n, uint64_t seed);

}  // namespace simtomp::apps
