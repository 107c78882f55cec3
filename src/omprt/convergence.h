// Convergence classification for the SIMD fast path.
//
// The interpreter's hot loop (rt::simd / rt::simdLoopReduceAdd) can run
// a SIMD construct's body for all lanes of a convergent warp in a tight
// host loop on one fiber — but only when the body is known to contain
// no barrier, no cross-lane op, no atomic and no divergent branch, so
// that batched execution charges the exact same modeled cycles as the
// lane-per-fiber path.
//
// Bodies get classified two ways, both cached here per outlined
// function pointer:
//
//   declared — the program wrapped the body in dsl::convergent(...),
//              an explicit promise. Trusted immediately; a lie trips
//              the kForbid hazard guard and fails the block loudly.
//   probed   — unknown bodies are executed once per block on the
//              ordinary lane-per-fiber path with hazard *counting*
//              enabled (zero modeled cost). Once every lane of a full
//              SIMD group reports a hazard-free body, the function is
//              promoted; one observed hazard rejects it forever.
//
// Either way the modeled cycles, counters, traces, profiles and
// simcheck verdicts are bit-identical with the fast path on or off —
// only host wall-time changes.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "gpusim/knobs.h"

namespace simtomp::omprt {

/// Launch-level fast-path switch. kAuto consults the SIMTOMP_FAST knob
/// ("0"/"off"/"false" disable; anything else, or unset, enables).
using FastPathMode = gpusim::FastPathMode;

/// Process-wide verdict cache, keyed by outlined body function pointer.
/// Registration order in the dispatcher cascade is append-only, so a
/// function pointer identifies one body for the process lifetime.
class ConvergenceCache {
 public:
  enum class Verdict : uint8_t {
    kUnknown,   ///< never seen / probe incomplete
    kDeclared,  ///< dsl::convergent promise — fast path immediately
    kEligible,  ///< probe-promoted: a full group ran it hazard-free
    kRejected,  ///< a hazard was observed; never fast-path this body
  };

  static ConvergenceCache& global();

  /// dsl::convergent annotation: trust the body unless already rejected.
  void declareConvergent(const void* fn);

  [[nodiscard]] Verdict lookup(const void* fn) const;

  /// One lane's probe outcome for `fn` (only lanes that executed at
  /// least one iteration report). `clean=false` rejects the body
  /// permanently; `group_size` clean reports promote it to kEligible.
  void reportProbe(const void* fn, bool clean, uint32_t group_size);

  /// Drop all verdicts (tests only; racing launches must be quiesced).
  void clearForTest();

 private:
  struct Entry {
    Verdict verdict = Verdict::kUnknown;
    uint32_t cleanLanes = 0;
  };

  mutable std::shared_mutex mutex_;
  std::unordered_map<const void*, Entry> entries_;
};

}  // namespace simtomp::omprt
