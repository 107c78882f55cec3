// Shared helpers for the application kernels.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "support/status.h"

namespace simtomp::apps {

/// Copy a host vector into a fresh device allocation. The device view
/// stays valid until freed via Device::freeArray or device teardown.
template <typename T>
Result<gpusim::GlobalSpan<T>> toDevice(gpusim::Device& device,
                                       std::span<const T> host) {
  auto span = device.allocateArray<T>(host.size());
  if (!span.isOk()) return span.status();
  std::memcpy(span.value().data(), host.data(), host.size_bytes());
  return span;
}

/// Allocate a zero-initialized device array.
template <typename T>
Result<gpusim::GlobalSpan<T>> zeroDevice(gpusim::Device& device,
                                         size_t count) {
  auto span = device.allocateArray<T>(count);
  if (!span.isOk()) return span.status();
  std::memset(span.value().data(), 0, count * sizeof(T));
  return span;
}

/// Copy a device array back to a host vector.
template <typename T>
std::vector<T> toHost(const gpusim::GlobalSpan<T>& span) {
  std::vector<T> out(span.size());
  std::memcpy(out.data(), span.data(), span.size() * sizeof(T));
  return out;
}

/// Outcome of checking a device output array against its reference.
struct Verification {
  double maxError = 0.0;
  bool verified = false;
};

/// Check the device array `out` in place against a streamed reference:
/// `forEachExpected(f)` must call `f(index, value)` once per element of
/// `out`. maxError is the largest |out[index] - value|, and the check
/// passes when it is below `tolerance`. A NaN difference, an index past
/// the array, or a visit count other than out.size() is an infinite
/// error, so a NaN or a short reference cannot pass. The array is read
/// through GlobalSpan::data(), outside the simulated accessors, so the
/// check emits no checker or profiler event and copies nothing.
template <typename ForEachExpected>
Verification verifyInPlace(const gpusim::GlobalSpan<double>& out,
                           double tolerance,
                           ForEachExpected&& forEachExpected) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double* got = out.data();
  const size_t n = out.size();
  size_t visits = 0;
  double m = 0.0;
  const auto compare = [&](uint64_t index, double expected) {
    ++visits;
    if (index >= n) {
      m = kInf;
      return;
    }
    const double a = got[index];
    const double d = a > expected ? a - expected : expected - a;
    if (std::isnan(d)) {
      m = kInf;
    } else if (d > m) {
      m = d;
    }
  };
  forEachExpected(compare);
  if (visits != n) m = kInf;
  return {m, m < tolerance};
}

/// Result of running one application kernel variant.
struct AppRunResult {
  gpusim::KernelStats stats;
  bool verified = false;
  double maxError = 0.0;
};

/// The three execution-mode variants of paper Fig. 10.
enum class SimdMode : uint8_t {
  kNoSimd,       ///< 2-level, teams SPMD, simdlen 1 (today's LLVM)
  kSpmdSimd,     ///< 3-level, parallel SPMD
  kGenericSimd,  ///< 3-level, parallel generic
};

inline const char* simdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kNoSimd: return "no-simd";
    case SimdMode::kSpmdSimd: return "spmd-simd";
    case SimdMode::kGenericSimd: return "generic-simd";
  }
  return "?";
}

}  // namespace simtomp::apps
