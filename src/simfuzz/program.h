// simfuzz programs: the closed grammar of random kernels.
//
// A FuzzProgram is a point in the launch/construct space the
// differential fuzzer explores: a construct shape (distribute parallel
// for, scheduled worksharing, or a barrier-phased parallel region), a
// loop-body kind (affine map, nested simd, simd reduction, atomic
// accumulation, convergent-annotated map), and every launch axis the
// paper's runtime exposes — teams/threads, exec modes, simdlen,
// schedule, trip counts, sharing-space pressure. Every program has a
// closed-form host-serial reference (harness.h), so the grammar only
// spans *specified* behavior: each output cell is written by exactly
// one owner (or through commutative integer-valued atomics), barriers
// are reached exactly once per thread, and runtime clamps (AMD
// generic-SIMD fallback, simdlen normalization, dynamic-schedule
// fallback in generic regions) change modeled cost but never results.
//
// Programs serialize to a canonical one-line text form that parses
// back losslessly; minimized counterexamples ship as these lines
// (`simtomp fuzz repro`), and the seeded regression corpus in
// tests/ pins them verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dsl/dsl.h"
#include "support/status.h"

namespace simtomp::simfuzz {

/// Top-level construct shape.
enum class Construct : uint8_t {
  kDistributeParallelFor = 0,  ///< teams distribute parallel for [+ simd]
  kScheduledFor,               ///< distribute + parallel for schedule(...)
  kBarrierParallel,            ///< parallel region with two barrier phases
};
inline constexpr size_t kNumConstructs = 3;

/// Inner-loop body kind.
enum class BodyKind : uint8_t {
  kAffineMap = 0,   ///< out[row] = a*row + b (leader-guarded store)
  kSimdNest,        ///< nested dsl::simd writing out2[row*inner + k]
  kSimdReduce,      ///< dsl::simdReduceAdd over the inner trip
  kAtomicSum,       ///< inner simd atomically accumulating one cell
  kConvergentMap,   ///< kSimdNest wrapped in dsl::convergent
};
inline constexpr size_t kNumBodyKinds = 5;

/// Deterministic bug mutations the harness can compile into the
/// *generated* kernel (never into the reference): the fuzzer's
/// self-test targets, standing in for a miscompiled body.
enum class InjectKind : uint8_t {
  kNone = 0,
  kOffByOne,        ///< +1 on out[row] when simdlen > 1 and row % 7 == 3
  kDropIteration,   ///< skip the last inner iteration of row 1
};

[[nodiscard]] std::string_view constructName(Construct c);
[[nodiscard]] std::string_view bodyKindName(BodyKind b);
[[nodiscard]] std::string_view injectKindName(InjectKind k);

/// One generated kernel program. Plain data, trivially copyable,
/// equality-comparable — the minimizer relies on all three.
struct FuzzProgram {
  /// Generator seed this program came from (provenance only; not part
  /// of the program's semantics and ignored by operator== consumers
  /// that care about shape — kept in the canonical text for repros).
  uint64_t seed = 0;

  Construct construct = Construct::kDistributeParallelFor;
  BodyKind body = BodyKind::kAffineMap;

  uint32_t numTeams = 1;
  uint32_t threadsPerTeam = 64;
  omprt::ExecMode teamsMode = omprt::ExecMode::kSPMD;
  omprt::ExecMode parallelMode = omprt::ExecMode::kSPMD;
  uint32_t simdlen = 1;

  omprt::ForSchedule schedKind = omprt::ForSchedule::kStaticCyclic;
  uint64_t schedChunk = 0;

  uint64_t outerTrip = 1;
  uint64_t innerTrip = 0;

  /// Sharing-space pressure level 0..2: payload ballast captured by the
  /// inner simd body (0 = none, 2 = a body far larger than a 256-byte
  /// sharing space, forcing the specified global-memory overflow).
  uint32_t pressure = 0;
  uint32_t sharingSpaceBytes = omprt::kDefaultSharingSpaceBytes;

  /// Closed-form coefficients (kept small so every value is an exact
  /// integer-valued double; sums then compare bitwise in any order).
  int64_t a = 1;
  int64_t b = 0;

  InjectKind inject = InjectKind::kNone;

  bool operator==(const FuzzProgram&) const = default;

  /// Clamp/repair every field into the legal grammar: threadsPerTeam a
  /// multiple of 64 (valid for both 32- and 64-lane archs) that fits
  /// testTiny even with the generic-mode main warp, simdlen a power of
  /// two, barrier programs full-SPMD with an affine body and a
  /// one-entry scratch row, pressure only where a simd payload exists.
  void normalize();

  /// The launch shape this program runs under. Checking is pinned to
  /// kReport (explicit beats SIMTOMP_CHECK) and fault injection to
  /// "off", so harness runs are environment-independent; the harness
  /// overrides hostWorkers/fastPath per differential cell.
  [[nodiscard]] dsl::LaunchSpec launchSpec() const;

  /// Flat result size: out[outerTrip] ++ out2[outerTrip*innerTrip] ++
  /// one atomic accumulator cell.
  [[nodiscard]] size_t dataSize() const {
    return static_cast<size_t>(outerTrip) +
           static_cast<size_t>(outerTrip * innerTrip) + 1;
  }

  /// Canonical one-line text (stable key order, all fields explicit).
  [[nodiscard]] std::string serialize() const;

  /// Parse the canonical text (leading '#' comment lines and blank
  /// lines in multi-line input are skipped; the first program line
  /// wins). The result is normalize()d.
  static Result<FuzzProgram> parse(std::string_view text);
};

}  // namespace simtomp::simfuzz
