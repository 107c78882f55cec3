// simcheck: correctness checking for the simulator (reports).
//
// The simulator sees every memory access, every barrier arrival and
// every sharing-space handout, so it can detect precisely — not
// probabilistically — the bug classes that plague GPU OpenMP runtimes:
// data races, barrier divergence, and sharing-space protocol misuse.
// This header defines the user-facing surface: how checking is
// requested (CheckConfig + the SIMTOMP_CHECK environment knob) and how
// findings come back (CheckReport, a per-launch structured summary that
// tests assert on and Device::launch can turn into a hard error).
//
// The subsystem deliberately sits *below* gpusim in the build: it
// depends only on simtomp_support, and its instrumentation API speaks
// plain integers and pointers, so gpusim/omprt can link it without a
// dependency cycle.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace simtomp::simcheck {

/// How a launch should be checked.
enum class CheckMode : uint8_t {
  kAuto = 0,  ///< resolve from the SIMTOMP_CHECK knob (default: off)
  kOff,       ///< no checking, zero overhead (one null-pointer branch)
  kReport,    ///< collect findings into Device::lastCheckReport()
  kFatal,     ///< additionally fail the launch when findings exist
};

/// Per-launch checking configuration; one of gpusim::LaunchOptions.
struct CheckConfig {
  CheckMode mode = CheckMode::kAuto;
  /// Findings beyond this many are counted but not stored verbatim.
  uint32_t maxDiagnostics = 16;
};

/// Classes of findings, in report order.
enum class DiagKind : uint8_t {
  kDataRace = 0,           ///< intra-block unsynchronized conflict
  kCrossBlockRace,         ///< conflicting global accesses from two blocks
  kBarrierDivergence,      ///< threads stuck at different barriers
  kInconsistentMask,       ///< overlapping warp syncs with different masks
  kSharingOutOfSlice,      ///< storeArg index beyond the declared args
  kSharingUnpublishedRead, ///< fetchArgs before every arg was stored
  kSharingOverflowLeak,    ///< slot (and overflow block) never ended
  kUninitSharedRead,       ///< shared-memory read before any write
};
inline constexpr size_t kNumDiagKinds = 8;

[[nodiscard]] std::string_view diagKindName(DiagKind kind);

/// Which address space a finding refers to.
enum class MemSpace : uint8_t { kNone = 0, kShared, kGlobal, kSynthetic };

/// Sentinel thread id for block-scope findings.
inline constexpr uint32_t kNoThread = 0xFFFFFFFFu;

/// One finding, with enough provenance to locate the bug: the block,
/// the thread(s) involved and the byte address within the space.
struct Diagnostic {
  DiagKind kind = DiagKind::kDataRace;
  uint32_t blockId = 0;
  uint32_t threadId = kNoThread;       ///< primary thread (kNoThread: block)
  uint32_t otherThreadId = kNoThread;  ///< second party, when applicable
  MemSpace space = MemSpace::kNone;
  uint64_t address = 0;  ///< byte offset within the space (granule-aligned)
  std::string detail;    ///< human-readable description

  [[nodiscard]] std::string toString() const;
};

/// Per-launch findings: exact counts per kind plus the first
/// maxDiagnostics diagnostics verbatim. Merged in block order under
/// host-parallel execution, so the stored diagnostics are deterministic
/// for any worker count.
struct CheckReport {
  std::array<uint64_t, kNumDiagKinds> counts{};
  std::vector<Diagnostic> diagnostics;
  uint32_t maxDiagnostics = 16;

  void add(Diagnostic diag);
  void merge(const CheckReport& other);

  [[nodiscard]] uint64_t count(DiagKind kind) const {
    return counts[static_cast<size_t>(kind)];
  }
  [[nodiscard]] uint64_t total() const;
  [[nodiscard]] bool clean() const { return total() == 0; }
  /// One-line "kind=count kind=count" summary (empty counts omitted).
  [[nodiscard]] std::string summary() const;
  /// Multi-line report with every stored diagnostic.
  [[nodiscard]] std::string toString() const;
};

}  // namespace simtomp::simcheck
