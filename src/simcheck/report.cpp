#include "simcheck/report.h"

#include <sstream>

namespace simtomp::simcheck {

std::string_view diagKindName(DiagKind kind) {
  switch (kind) {
    case DiagKind::kDataRace: return "data-race";
    case DiagKind::kCrossBlockRace: return "cross-block-race";
    case DiagKind::kBarrierDivergence: return "barrier-divergence";
    case DiagKind::kInconsistentMask: return "inconsistent-mask";
    case DiagKind::kSharingOutOfSlice: return "sharing-out-of-slice";
    case DiagKind::kSharingUnpublishedRead: return "sharing-unpublished-read";
    case DiagKind::kSharingOverflowLeak: return "sharing-overflow-leak";
    case DiagKind::kUninitSharedRead: return "uninit-shared-read";
  }
  return "unknown";
}

namespace {

std::string_view spaceName(MemSpace space) {
  switch (space) {
    case MemSpace::kNone: return "";
    case MemSpace::kShared: return "shared";
    case MemSpace::kGlobal: return "global";
    case MemSpace::kSynthetic: return "runtime-state";
  }
  return "";
}

}  // namespace

std::string Diagnostic::toString() const {
  std::ostringstream out;
  out << diagKindName(kind) << ": block " << blockId;
  if (threadId != kNoThread) {
    out << " thread " << threadId;
    if (otherThreadId != kNoThread) out << " vs thread " << otherThreadId;
  }
  if (space != MemSpace::kNone) {
    out << " @ " << spaceName(space) << "+0x" << std::hex << address
        << std::dec;
  }
  if (!detail.empty()) out << " (" << detail << ")";
  return out.str();
}

void CheckReport::add(Diagnostic diag) {
  counts[static_cast<size_t>(diag.kind)] += 1;
  if (diagnostics.size() < maxDiagnostics) {
    diagnostics.push_back(std::move(diag));
  }
}

void CheckReport::merge(const CheckReport& other) {
  for (size_t i = 0; i < kNumDiagKinds; ++i) counts[i] += other.counts[i];
  for (const Diagnostic& d : other.diagnostics) {
    if (diagnostics.size() >= maxDiagnostics) break;
    diagnostics.push_back(d);
  }
}

uint64_t CheckReport::total() const {
  uint64_t sum = 0;
  for (uint64_t c : counts) sum += c;
  return sum;
}

std::string CheckReport::summary() const {
  if (clean()) return "clean";
  std::ostringstream out;
  bool first = true;
  for (size_t i = 0; i < kNumDiagKinds; ++i) {
    if (counts[i] == 0) continue;
    if (!first) out << " ";
    first = false;
    out << diagKindName(static_cast<DiagKind>(i)) << "=" << counts[i];
  }
  return out.str();
}

std::string CheckReport::toString() const {
  std::ostringstream out;
  out << "simcheck: " << summary();
  if (total() > diagnostics.size()) {
    out << " (showing first " << diagnostics.size() << ")";
  }
  for (const Diagnostic& d : diagnostics) out << "\n  " << d.toString();
  return out.str();
}

}  // namespace simtomp::simcheck
