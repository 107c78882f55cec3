// The OpenMP-IR-Builder analog (paper section 4.1).
//
// Front-ends (our DSL, or tests acting as a front-end) drive lowering
// through exactly the contract the paper describes: they provide
//   1. a trip-count callback, and
//   2. a loop-body callback,
// and the builder outlines the body, packs the payload and emits the
// runtime call for the requested worksharing construct. Loop scheduling
// then happens inside the runtime, not in the front-end.
#pragma once

#include <cstdint>
#include <functional>

#include "loopir/canonical_loop.h"
#include "loopir/outline.h"
#include "omprt/context.h"
#include "omprt/runtime.h"

namespace simtomp::loopir {

enum class WorkshareKind : uint8_t {
  kDistribute,  ///< split across teams
  kFor,         ///< split across the team's OpenMP threads (SIMD groups)
  kSimd,        ///< split across the lanes of a SIMD group
};

/// Trip-count callback: evaluated at the worksharing construct, may
/// depend on runtime state (e.g. CSR row extents).
using TripCountCallback = std::function<uint64_t(omprt::OmpContext&)>;

class IrBuilder {
 public:
  /// Lower one worksharing loop. The body callback runs once per
  /// assigned logical iteration; ivAt()-style de-normalization is the
  /// front-end's business (compose it into `body`).
  ///
  /// kDistribute executes inline (index arithmetic only); kFor and
  /// kSimd outline `body` and hand it to the runtime, exactly like the
  /// paper's loop-task flow.
  ///
  /// kSimd never batches on the convergence fast path: loopir sits
  /// below dsl, so it cannot see a `dsl::convergent` declaration, and
  /// it calls rt::simd without one. A front-end that wants a declared
  /// body batched lowers it through dsl::simd instead.
  template <typename Body>
  static void createWorkshareLoop(omprt::OmpContext& ctx, WorkshareKind kind,
                                  const TripCountCallback& tripCount,
                                  Body&& body,
                                  bool registerInCascade = true) {
    const uint64_t trip = tripCount(ctx);
    switch (kind) {
      case WorkshareKind::kDistribute: {
        const omprt::rt::Range r = omprt::rt::distributeStatic(ctx, trip);
        for (uint64_t iv = r.begin; iv < r.end; ++iv) {
          ctx.gpu().work(2);
          body(ctx, iv);
        }
        return;
      }
      case WorkshareKind::kFor: {
        auto outlined = outlineLoop(ctx, body, registerInCascade);
        omprt::rt::workshareFor(ctx, trip, outlined.fn,
                                outlined.payload.data());
        return;
      }
      case WorkshareKind::kSimd: {
        auto outlined = outlineLoop(ctx, body, registerInCascade);
        omprt::rt::simd(ctx, outlined.fn, trip, outlined.payload.data(),
                        outlined.payload.size());
        return;
      }
    }
  }

  /// Canonical-loop overload: the trip count comes from the normalized
  /// descriptor and the body receives the *user* induction variable.
  template <typename Body>
  static void createWorkshareLoop(omprt::OmpContext& ctx, WorkshareKind kind,
                                  const CanonicalLoop& loop, Body&& body,
                                  bool registerInCascade = true) {
    auto denormalized = [&loop, &body](omprt::OmpContext& c, uint64_t logical) {
      body(c, loop.ivAt(logical));
    };
    createWorkshareLoop(
        ctx, kind, [&loop](omprt::OmpContext&) { return loop.tripCount(); },
        denormalized, registerInCascade);
  }
};

}  // namespace simtomp::loopir
