// simfuzz harness: the differential execution matrix and its oracles.
//
// Every generated program runs against four oracles the repo already
// maintains:
//   1. a host-serial reference (referenceRun — pure C++, no simulator),
//   2. simcheck in report mode on every cell,
//   3. worker-count bit-identity (1 vs 8 host workers, same arch),
//   4. fast-path bit-identity (off / on / auto, same arch),
// plus cross-arch output identity (testTiny / NVIDIA A100-style / AMD
// wavefront-64): coverage semantics never depend on warp size, so
// outputs must match the reference on every profile even though
// modeled stats legitimately differ across archs.
//
// Divergence is only flagged on *specified* behavior: outputs, check
// cleanliness, and modeled stats within one arch (where the repo's
// determinism contract promises bit-identity). Stats across archs, and
// host wall-time anywhere, are never compared.
//
// Everything here is a pure function of the program + options: worker
// counts and fast-path modes are pinned per cell (explicit fields beat
// the SIMTOMP_* env vars), so findings logs are byte-identical for any
// SIMTOMP_HOST_WORKERS and across reruns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/arch.h"
#include "simfuzz/program.h"

namespace simtomp::simfuzz {

/// One simulator execution of a program.
struct SimRun {
  Status status = Status::ok();
  /// Full result vector (dataSize() doubles); empty when the launch
  /// failed.
  std::vector<double> data;
  /// cycles + the full counter CSV row: the same-arch identity key.
  std::string statsKey;
  bool checkClean = true;
  std::string checkSummary;
};

/// One cell's launch: the arch plus the host knobs, which replace the
/// program's own. Every knob starts pinned (1 worker, fast path off,
/// checking in report mode, no faults), so no SIMTOMP_* env var can
/// reach a cell; a non-"off" fault.spec is the simfault-oracle mode.
struct RunOptions : gpusim::LaunchOptions {
  RunOptions() {
    hostWorkers = 1;
    fastPath = omprt::FastPathMode::kOff;
    check.mode = simcheck::CheckMode::kReport;
    fault.spec = "off";
  }

  gpusim::ArchSpec arch = gpusim::ArchSpec::testTiny();
};

/// The host-serial reference: closed forms only, never sees the
/// injected mutation. This is what "correct" means for a program.
[[nodiscard]] std::vector<double> referenceRun(const FuzzProgram& p);

/// Execute the program on a fresh simulated device.
[[nodiscard]] SimRun runOnSim(const FuzzProgram& p, const RunOptions& opt);

struct DiffOptions {
  /// Include the A100-style and AMD wavefront-64 output/check cells.
  bool crossArch = true;
  /// Armed on every cell when non-empty (simfault-oracle fuzzing).
  std::string faultSpec;
  /// Divergence notes beyond this many are counted, not stored.
  uint32_t maxNotes = 6;
  /// Stop after the first cell that produced a note. diverged() is
  /// unchanged (any noting cell makes it true either way); only the
  /// note list and run count shrink. This is the minimizer's mode:
  /// its oracle needs a boolean, not a report, and most candidates
  /// that fail do so in the first (cheapest) cell.
  bool failFast = false;
};

struct DiffResult {
  /// Deterministic divergence descriptions, cell-major order.
  std::vector<std::string> notes;
  /// Notes suppressed by maxNotes.
  uint64_t droppedNotes = 0;
  /// Simulator executions performed.
  uint64_t runs = 0;

  [[nodiscard]] bool diverged() const { return !notes.empty(); }
};

/// Run the full differential matrix for one program.
[[nodiscard]] DiffResult diffProgram(const FuzzProgram& p,
                                     const DiffOptions& opt = {});

struct CampaignOptions {
  uint64_t seedBegin = 0;
  uint64_t seedEnd = 16;
  DiffOptions diff;
  /// Mutation compiled into every generated kernel (self-test mode).
  InjectKind inject = InjectKind::kNone;
  bool minimize = true;
  uint64_t generatorSalt = 0;
};

struct Finding {
  uint64_t seed = 0;
  FuzzProgram program;
  std::vector<std::string> notes;
  FuzzProgram minimized;
  uint32_t minimizeSteps = 0;
};

struct CampaignResult {
  std::vector<Finding> findings;
  uint64_t programs = 0;
  uint64_t runs = 0;
  uint64_t minimizeSteps = 0;
  /// The findings log: byte-identical across reruns and for any
  /// SIMTOMP_HOST_WORKERS value.
  std::string log;
};

/// Generate + diff (+ minimize) every seed in [seedBegin, seedEnd).
[[nodiscard]] CampaignResult runCampaign(const CampaignOptions& opt);

}  // namespace simtomp::simfuzz
