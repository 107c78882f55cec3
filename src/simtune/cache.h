// simtune: persistent tuning cache.
//
// The tuner's whole value is amortization: the launch space is searched
// once per (kernel, architecture, cost model, problem-size bucket) and
// every later launch — in this process or the next — resolves from the
// cache with zero extra simulated launches. The cache is therefore
// keyed by everything the modeled-cycle ranking depends on:
//
//   kernel key       — a stable, caller-chosen kernel identity;
//   arch fingerprint — every ArchSpec field the simulator consults;
//   cost fingerprint — kCostModelVersion plus a hash of the CostModel
//                      constants, so recalibration invalidates entries
//                      (docs/COST_MODEL.md);
//   trip bucket      — log2 bucket of the trip count, so a kernel tuned
//                      at 4K rows is not blindly reused at 4M.
//
// Entries serialize to JSON sorted by composite key with integer-only
// fields, so tuning the same corpus twice produces byte-identical
// files — the CI determinism guard diffs them directly.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "omprt/modes.h"
#include "support/status.h"

namespace simtomp::simtune {

/// Deterministic fingerprint of every ArchSpec field the simulator and
/// runtime consult while modeling a launch.
[[nodiscard]] std::string archFingerprint(const gpusim::ArchSpec& arch);

/// "v<kCostModelVersion>:<hash>" over the CostModel constants.
[[nodiscard]] std::string costFingerprint(const gpusim::CostModel& cost);

/// Log2 bucket of a trip count (0 for unknown trip counts; trips
/// within a power-of-two band share one tuning decision).
[[nodiscard]] uint32_t tripBucket(uint64_t tripCount);

/// Full cache key for one tuning decision.
struct TuneKey {
  std::string kernel;
  std::string arch;   ///< archFingerprint()
  std::string cost;   ///< costFingerprint()
  uint32_t bucket = 0;

  /// "kernel|arch|cost|b<bucket>" — the serialized map key.
  [[nodiscard]] std::string composite() const;
};

[[nodiscard]] TuneKey makeTuneKey(std::string kernel,
                                  const gpusim::ArchSpec& arch,
                                  const gpusim::CostModel& cost,
                                  uint64_t tripCount);

/// One point of the launch space.
struct TuneCandidate {
  omprt::ExecMode teamsMode = omprt::ExecMode::kSPMD;
  omprt::ExecMode parallelMode = omprt::ExecMode::kSPMD;
  uint32_t numTeams = 1;
  uint32_t threadsPerTeam = 128;
  uint32_t simdlen = 1;
  uint64_t scheduleChunk = 0;

  [[nodiscard]] bool operator==(const TuneCandidate&) const = default;
  [[nodiscard]] std::string toString() const;
};

/// A tuned launch shape: the winner of one search, plus provenance.
struct TunedShape {
  TuneCandidate candidate;
  uint64_t cycles = 0;   ///< modeled cycles of the winning trial
  uint32_t trials = 0;   ///< trial launches the search spent

  [[nodiscard]] bool operator==(const TunedShape&) const = default;
  [[nodiscard]] std::string toString() const;
};

/// Thread-safe persistent tuning cache. With an empty path the cache is
/// in-memory only (save() is a no-op); otherwise load() reads the JSON
/// file if present and save() rewrites it deterministically.
class TuneCache {
 public:
  explicit TuneCache(std::string path = "");

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool persistent() const { return !path_.empty(); }

  [[nodiscard]] std::optional<TunedShape> lookup(const TuneKey& key) const;
  void insert(const TuneKey& key, const TunedShape& shape);

  /// Remove entries whose kernel name starts with `kernelPrefix`
  /// (empty prefix = everything); returns how many were removed.
  size_t evict(std::string_view kernelPrefix);

  [[nodiscard]] size_t size() const;
  /// Sorted (composite key, shape) snapshot for reporting.
  [[nodiscard]] std::vector<std::pair<std::string, TunedShape>> entries()
      const;

  /// Re-read the backing file (missing file = empty cache; a malformed
  /// file is an error and leaves the cache unchanged).
  Status load();
  /// Write the backing file (no-op without a path).
  Status save() const;
  Status saveTo(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, TunedShape> entries_;  ///< composite key -> shape
  std::string path_;
};

/// Resolve the cache path: an explicit `requested` wins, else the
/// SIMTOMP_TUNE_CACHE environment variable, else "" (in-memory).
[[nodiscard]] std::string resolveCachePath(const std::string& requested);

}  // namespace simtomp::simtune
