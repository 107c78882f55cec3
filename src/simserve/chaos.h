// Chaos campaigns: seeded fault storms against a live LaunchService.
//
// A campaign drives one service instance per seed through a sequence
// of epochs (pump/drain waves), arming simfault plans drawn from
// forked RNG streams against live traffic, and asserts the service's
// invariants after every wave and at campaign end:
//
//   conservation   per tenant, submitted == accepted + (shed - evicted)
//                  + deadlineShed, and nothing stays kDispatched past a
//                  drain.
//   definiteness   every request reaches a terminal state (kShed /
//                  kDone / kFailed) with a definite Status — ok iff
//                  kDone — and the service ends empty.
//   no loss        every kDone request was dispatched exactly
//                  retries + 1 times and its output buffer matches the
//                  kernel oracle (mixKernelValue); shed requests were
//                  never dispatched.
//   no reorder     per tenant (and per tenant x shard), first
//                  dispatches happen in admission order.
//   SLO accounting deadlineHit + deadlineMiss == completions that
//                  carried a finite deadline; latency histogram count
//                  == completed.
//
// Determinism: every wave is a pure function of the seed (three forked
// streams — tenants, arrivals, faults — none of which ever consumes a
// draw based on a service outcome), and every published number comes
// from the service's shard-invariant tenant stats. The campaign report
// is therefore byte-identical across reruns, SIMTOMP_HOST_WORKERS and
// shard counts, and CI byte-compares it (ci.sh stage 11).
//
// Fault placement: a device-lost fault strands only its carrier —
// LaunchService::drain() migrates exactly the requests whose own launch
// returned UNAVAILABLE, and requests sharing the device complete in
// place — and a trap fails only its own launch. Traps ride inside
// congested waves. Device-lost faults ride in single-request storm
// waves, so each loss gets a drain of its own: its breaker trip lands
// alone in that drain's epoch, on whichever device served its shard,
// and its migration hop re-dispatches with no other traffic in flight.
// Co-locating several losses in one wave would let the shard count
// decide how many trips one device's breaker window takes in one
// epoch. A fault plan is consumed by the launch that carries it
// (docs/FAULTS.md), so every arm is a plain spec and fires on its
// carrier's launch, whatever armed the device before.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace simtomp::simserve {

struct ChaosConfig {
  uint64_t seedLo = 0;  ///< first seed (inclusive)
  uint64_t seedHi = 8;  ///< last seed (inclusive)
  uint32_t devices = 2;
  uint32_t shards = 0;   ///< ServiceConfig::shardCount (0 = per device)
  uint32_t workers = 1;  ///< hostWorkers stamped on every request
  uint32_t epochs = 6;   ///< waves per seed
  uint32_t requests = 12;  ///< base arrivals per congested wave
  /// Run every seed's service with request tracing enabled. Purely
  /// observational: the campaign report is byte-identical either way.
  bool trace = false;
  /// With trace: write the flight-recorder dump of any seed that
  /// violates an invariant to this path (trigger=invariant_violation).
  std::string flightPath;
  /// Plant one synthetic violation on the first seed — a drill for the
  /// violation -> flight-dump path (tests/CI smoke), since a healthy
  /// service never produces a real one.
  bool plantViolation = false;
};

/// One failed invariant. The campaign keeps going (one seed's breakage
/// must not hide another's), so a run can report many.
struct ChaosViolation {
  uint64_t seed = 0;
  std::string invariant;
  std::string detail;
};

struct ChaosReport {
  uint64_t seeds = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t faultsArmed = 0;
  std::vector<ChaosViolation> violations;
  /// The byte-compare surface: per-seed totals + per-tenant stats +
  /// violation lines + campaign footer. Deliberately excludes the
  /// device/shard/worker parameters so CI can diff across them.
  std::string text;
};

/// Run the campaign. Non-ok only for setup errors (bad config);
/// invariant failures are reported, not returned.
[[nodiscard]] Result<ChaosReport> runChaosCampaign(const ChaosConfig& config);

}  // namespace simtomp::simserve
