#include "omprt/convergence.h"

#include <mutex>

namespace simtomp::omprt {

ConvergenceCache& ConvergenceCache::global() {
  static ConvergenceCache cache;
  return cache;
}

void ConvergenceCache::declareConvergent(const void* fn) {
  std::unique_lock lock(mutex_);
  Entry& entry = entries_[fn];
  // A recorded hazard outranks the promise: the probe saw the body do
  // something batching cannot reproduce.
  if (entry.verdict == Verdict::kUnknown) entry.verdict = Verdict::kDeclared;
}

ConvergenceCache::Verdict ConvergenceCache::lookup(const void* fn) const {
  std::shared_lock lock(mutex_);
  const auto it = entries_.find(fn);
  return it == entries_.end() ? Verdict::kUnknown : it->second.verdict;
}

void ConvergenceCache::reportProbe(const void* fn, bool clean,
                                   uint32_t group_size) {
  std::unique_lock lock(mutex_);
  Entry& entry = entries_[fn];
  if (entry.verdict != Verdict::kUnknown) return;  // already settled
  if (!clean) {
    entry.verdict = Verdict::kRejected;
    entry.cleanLanes = 0;
    return;
  }
  // Promote once a full group's worth of lanes ran the body hazard-free.
  // Lanes with zero iterations never report, so a body that only ever
  // sees empty loops stays kUnknown rather than being promoted untested.
  if (++entry.cleanLanes >= group_size) entry.verdict = Verdict::kEligible;
}

void ConvergenceCache::clearForTest() {
  std::unique_lock lock(mutex_);
  entries_.clear();
}

}  // namespace simtomp::omprt
