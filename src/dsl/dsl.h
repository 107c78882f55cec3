// Directive DSL: the front-end stand-in for OpenMP pragmas.
//
// Clang's role in the paper — recognizing `#pragma omp ...` and calling
// the OpenMP IR Builder with trip-count and body callbacks — is played
// here by a small set of composable functions whose names mirror the
// directives:
//
//   target(...)                            #pragma omp target teams
//   targetTeamsDistribute(...)             ... teams distribute
//   targetTeamsDistributeParallelFor(...)  ... teams distribute parallel for
//   parallelFor(ctx, ...)                  #pragma omp parallel for
//   simd(ctx, ...)                         #pragma omp simd
//   simdReduceAdd(ctx, ...)                ... simd reduction(+:...)
//
// Mode selection follows the paper's guidance (section 6.5): a
// LaunchSpec carries the teams/parallel execution modes explicitly, and
// inferSpmd() implements the "tightly nested => SPMD" rule for callers
// that want it applied automatically.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "gpusim/device.h"
#include "loopir/builder.h"
#include "loopir/canonical_loop.h"
#include "loopir/globalize.h"
#include "loopir/outline.h"
#include "omprt/omp_api.h"
#include "omprt/runtime.h"
#include "omprt/schedule.h"
#include "omprt/target.h"

namespace simtomp::dsl {

using omprt::ExecMode;
using omprt::OmpContext;

/// A target launch as the directive helpers below take it: the full
/// omprt::TargetConfig (launch shape, tuning hints and the per-launch
/// host knobs of gpusim::LaunchOptions) plus the dispatch choice.
struct LaunchSpec : omprt::TargetConfig {
  /// Whether outlined regions enter the dispatch if-cascade (paper
  /// section 5.5); off models regions from foreign translation units.
  bool registerInCascade = true;

  [[nodiscard]] omprt::TargetConfig targetConfig() const { return *this; }
  /// Region-level parallel configuration. Auto fields (simdlen 0,
  /// parallelModeAuto) stay auto here and resolve against the launch's
  /// TeamState defaults at region entry — i.e. against whatever the
  /// tuner decided.
  [[nodiscard]] omprt::ParallelConfig parallelConfig() const {
    return {parallelMode, simdlen, parallelModeAuto};
  }
};

/// "Tightly nested => SPMD" inference (paper sections 3.2, 6.5).
[[nodiscard]] constexpr ExecMode inferSpmd(bool tightly_nested) {
  return tightly_nested ? ExecMode::kSPMD : ExecMode::kGeneric;
}

// ---------------------------------------------------------------------
// Body classification (convergence fast path)
// ---------------------------------------------------------------------

/// A loop body the front-end statically classified as *convergent*:
/// free of barriers, cross-lane operations (shuffle / group reduce),
/// atomics, and divergent branches. This is the stand-in for the
/// compiler analysis described in DESIGN.md §3.6 — a real front-end
/// would derive the property from the body's IR; here the author
/// asserts it. dsl::simd / dsl::simdReduceAdd pass the declaration to
/// the runtime, which trusts it from the first launch: a batched body
/// runs under the hazard guard, so a false promise fails the launch
/// with FAILED_PRECONDITION. Undeclared bodies never batch.
template <typename Body>
struct Convergent {
  static constexpr bool kConvergentBody = true;
  Body body;

  // Trailing return type keeps the call SFINAE-friendly: the outline
  // trampolines probe invocability with and without a payload pointer.
  template <typename... Args>
  auto operator()(Args&&... args)
      -> decltype(this->body(std::forward<Args>(args)...)) {
    return body(std::forward<Args>(args)...);
  }
};

/// Wrap a simd body to declare it hazard-free. Keeps trivial
/// copyability, so globalization in generic parallel mode still works.
template <typename Body>
[[nodiscard]] Convergent<std::decay_t<Body>> convergent(Body&& body) {
  return {std::forward<Body>(body)};
}

namespace detail {

template <typename T, typename = void>
struct IsConvergentBody : std::false_type {};
template <typename T>
struct IsConvergentBody<T, std::void_t<decltype(T::kConvergentBody)>>
    : std::bool_constant<T::kConvergentBody> {};

/// A directive that wraps the user's body in its own hazard-free
/// adapter (collapse, tile) passes the user's declaration on with it.
template <typename UserBody, typename Adapter>
auto declaredLike(Adapter adapter) {
  if constexpr (IsConvergentBody<std::remove_reference_t<UserBody>>::value) {
    return convergent(std::move(adapter));
  } else {
    return adapter;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------
// Region-level directives (call from inside a target region)
// ---------------------------------------------------------------------

/// #pragma omp simd — workshare `trip` iterations over the lanes of the
/// calling thread's SIMD group. In generic parallel mode the body object
/// is globalized to shared memory so workers can reach it (paper 4.3).
template <typename Body>
void simd(OmpContext& ctx, uint64_t trip, Body&& body,
          bool registerInCascade = true) {
  using BodyT = std::remove_reference_t<Body>;
  constexpr bool kConvergent = detail::IsConvergentBody<BodyT>::value;
  if (!ctx.parallelIsSPMD() && ctx.simdGroupSize() > 1 &&
      std::is_trivially_copyable_v<BodyT>) {
    loopir::Globalizer globalizer(ctx);
    auto* promoted = static_cast<BodyT*>(
        globalizer.globalizeBytes(&body, sizeof(BodyT), alignof(BodyT)));
    auto outlined = loopir::outlineLoop(ctx, *promoted, registerInCascade);
    omprt::rt::simd(ctx, outlined.fn, trip, outlined.payload.data(),
                    outlined.payload.size(), kConvergent);
    return;  // globalizer releases the promoted copy here (region end)
  }
  auto outlined = loopir::outlineLoop(ctx, body, registerInCascade);
  omprt::rt::simd(ctx, outlined.fn, trip, outlined.payload.data(),
                  outlined.payload.size(), kConvergent);
}

/// #pragma omp simd reduction(+:acc) — returns the loop-wide sum on
/// every lane of the group. `body` returns each iteration's value.
template <typename Body>
double simdReduceAdd(OmpContext& ctx, uint64_t trip, Body&& body,
                     bool registerInCascade = true) {
  using BodyT = std::remove_reference_t<Body>;
  constexpr bool kConvergent = detail::IsConvergentBody<BodyT>::value;
  if (!ctx.parallelIsSPMD() && ctx.simdGroupSize() > 1 &&
      std::is_trivially_copyable_v<BodyT>) {
    loopir::Globalizer globalizer(ctx);
    auto* promoted = static_cast<BodyT*>(
        globalizer.globalizeBytes(&body, sizeof(BodyT), alignof(BodyT)));
    auto outlined =
        loopir::outlineReduceLoop(ctx, *promoted, registerInCascade);
    return omprt::rt::simdLoopReduceAdd(ctx, outlined.fn, trip,
                                        outlined.payload.data(),
                                        outlined.payload.size(), kConvergent);
  }
  auto outlined = loopir::outlineReduceLoop(ctx, body, registerInCascade);
  return omprt::rt::simdLoopReduceAdd(ctx, outlined.fn, trip,
                                      outlined.payload.data(),
                                      outlined.payload.size(), kConvergent);
}

/// #pragma omp parallel for — open a parallel region whose microtask
/// workshares `trip` iterations across the region's OpenMP threads
/// (SIMD groups). `config` controls mode and simdlen.
template <typename Body>
void parallelFor(OmpContext& ctx, uint64_t trip, Body&& body,
                 omprt::ParallelConfig config = {},
                 bool registerInCascade = true) {
  auto loop = loopir::outlineLoop(ctx, body, registerInCascade);
  // The microtask: every OpenMP thread of the region workshares the
  // outlined loop. Captures the outlined loop by value so worker
  // threads dereference the microtask object, not this frame's locals.
  auto region = [trip, loop](OmpContext& inner) mutable {
    omprt::rt::workshareFor(inner, trip, loop.fn, loop.payload.data());
  };
  auto outlined_region = loopir::outlineRegion(ctx, region, registerInCascade);
  omprt::rt::parallel(ctx, outlined_region.fn, outlined_region.payload.data(),
                      outlined_region.payload.size(), config);
}

/// #pragma omp parallel for schedule(...) — like parallelFor with an
/// explicit schedule clause (static cyclic/chunked, or dynamic with a
/// team-shared work counter; dynamic needs full-SPMD execution).
template <typename Body>
void parallelForSchedule(OmpContext& ctx, uint64_t trip, Body&& body,
                         omprt::ScheduleClause schedule,
                         omprt::ParallelConfig config = {},
                         bool registerInCascade = true) {
  auto loop = loopir::outlineLoop(ctx, body, registerInCascade);
  auto region = [trip, loop, schedule](OmpContext& inner) mutable {
    omprt::rt::workshareForScheduled(inner, trip, loop.fn,
                                     loop.payload.data(), schedule);
  };
  auto outlined_region = loopir::outlineRegion(ctx, region, registerInCascade);
  omprt::rt::parallel(ctx, outlined_region.fn, outlined_region.payload.data(),
                      outlined_region.payload.size(), config);
}

/// #pragma omp simd collapse(2) — two perfectly nested loops flattened
/// into one simd iteration space; the body receives both user ivs.
template <typename Body>
void simdCollapse2(OmpContext& ctx, const loopir::CollapsedLoop2& nest,
                   Body&& body, bool registerInCascade = true) {
  auto flattened = [&nest, &body](OmpContext& c, uint64_t logical) {
    const auto [i, j] = nest.ivsAt(logical);
    c.gpu().work(2);  // div/mod de-collapse arithmetic
    body(c, i, j);
  };
  simd(ctx, nest.tripCount(), detail::declaredLike<Body>(flattened),
       registerInCascade);
}

/// #pragma omp parallel for collapse(2) — flattened nest workshared
/// across the region's OpenMP threads (SIMD groups).
template <typename Body>
void parallelForCollapse2(OmpContext& ctx, const loopir::CollapsedLoop2& nest,
                          Body&& body, omprt::ParallelConfig config = {},
                          bool registerInCascade = true) {
  auto flattened = [&nest, &body](OmpContext& c, uint64_t logical) {
    const auto [i, j] = nest.ivsAt(logical);
    c.gpu().work(2);
    body(c, i, j);
  };
  parallelFor(ctx, nest.tripCount(), flattened, config, registerInCascade);
}

/// reduction(+: x) across the whole team: lanes -> group (butterfly) ->
/// groups -> team (shared-memory tree). Full-SPMD regions only.
inline double teamReduceAdd(OmpContext& ctx, double lane_value) {
  const double group_total = omprt::rt::simdReduceAdd(ctx, lane_value);
  return omprt::rt::teamReduceAdd(ctx, group_total);
}

/// #pragma omp tile sizes(T) + parallel for + simd: workshare the tiles
/// of a *flat* loop across the region's OpenMP threads (SIMD groups)
/// and run each tile's contents as a simd loop — three-level structure
/// manufactured from a one-dimensional iteration space.
template <typename Body>
void parallelForTiledSimd(OmpContext& ctx, const loopir::TiledLoop& tiled,
                          Body&& body, omprt::ParallelConfig config = {},
                          bool registerInCascade = true) {
  auto tile_body = [&tiled, &body, registerInCascade](OmpContext& inner,
                                                      uint64_t tile) {
    inner.gpu().work(2);  // tile bound arithmetic
    simd(inner, tiled.tileTrip(tile),
         detail::declaredLike<Body>(
             [&tiled, &body, tile](OmpContext& c, uint64_t offset) {
               body(c, tiled.ivAt(tile, offset));
             }),
         registerInCascade);
  };
  parallelFor(ctx, tiled.numTiles(), tile_body, config, registerInCascade);
}

/// #pragma omp master — true on OpenMP thread 0's leader lane.
inline bool isMaster(const OmpContext& ctx) { return omprt::rt::isMaster(ctx); }

/// #pragma omp single — `body` runs on one OpenMP thread; everyone
/// joins the implicit barrier. Full-SPMD regions only.
template <typename Body>
void single(OmpContext& ctx, Body&& body, bool registerInCascade = true) {
  auto outlined = loopir::outlineRegion(ctx, body, registerInCascade);
  omprt::rt::single(ctx, outlined.fn, outlined.payload.data());
}

/// #pragma omp critical — `body` runs under team-wide mutual exclusion
/// (one execution per OpenMP thread, serialized on the modeled
/// timeline).
template <typename Body>
void critical(OmpContext& ctx, Body&& body, bool registerInCascade = true) {
  auto outlined = loopir::outlineRegion(ctx, body, registerInCascade);
  omprt::rt::critical(ctx, outlined.fn, outlined.payload.data());
}

/// #pragma omp parallel — open a parallel region running `region` on
/// each OpenMP thread (SIMD group leader in generic mode; every device
/// thread in SPMD mode).
template <typename Region>
void parallel(OmpContext& ctx, Region&& region,
              omprt::ParallelConfig config = {},
              bool registerInCascade = true) {
  auto outlined = loopir::outlineRegion(ctx, region, registerInCascade);
  omprt::rt::parallel(ctx, outlined.fn, outlined.payload.data(),
                      outlined.payload.size(), config);
}

// ---------------------------------------------------------------------
// Launch-level directives (host side)
// ---------------------------------------------------------------------

/// #pragma omp target teams — run `region` per the spec's teams mode.
template <typename Region>
Result<gpusim::KernelStats> target(gpusim::Device& device,
                                   const LaunchSpec& spec, Region&& region) {
  return omprt::launchTarget(device, spec.targetConfig(),
                             std::forward<Region>(region));
}

/// #pragma omp target teams distribute — `body(ctx, iv)` runs once per
/// iteration, split contiguously across teams. Nested parallelFor /
/// parallel calls inside `body` give the classic 2-level structure.
template <typename Body>
Result<gpusim::KernelStats> targetTeamsDistribute(gpusim::Device& device,
                                                  const LaunchSpec& spec,
                                                  uint64_t trip, Body body) {
  omprt::TargetConfig config = spec.targetConfig();
  if (config.tripCount == 0) config.tripCount = trip;
  return omprt::launchTarget(
      device, config, [&](OmpContext& ctx) {
        const omprt::rt::Range r = omprt::rt::distributeStatic(ctx, trip);
        for (uint64_t iv = r.begin; iv < r.end; ++iv) {
          ctx.gpu().work(2);
          body(ctx, iv);
        }
      });
}

/// #pragma omp target teams distribute parallel for — iterations are
/// split contiguously across teams, then cyclically across each team's
/// OpenMP threads (SIMD groups). `body` may call dsl::simd for the
/// third level.
template <typename Body>
Result<gpusim::KernelStats> targetTeamsDistributeParallelFor(
    gpusim::Device& device, const LaunchSpec& spec, uint64_t trip,
    Body body) {
  omprt::TargetConfig config = spec.targetConfig();
  if (config.tripCount == 0) config.tripCount = trip;
  return omprt::launchTarget(
      device, config, [&](OmpContext& ctx) {
        const omprt::rt::Range r = omprt::rt::distributeStatic(ctx, trip);
        auto shifted = [&body, base = r.begin](OmpContext& inner,
                                               uint64_t logical) {
          body(inner, base + logical);
        };
        parallelFor(ctx, r.size(), shifted, spec.parallelConfig(),
                    spec.registerInCascade);
      });
}

}  // namespace simtomp::dsl
