#include "simcheck/checker.h"

#include <algorithm>
#include <sstream>

namespace simtomp::simcheck {

namespace {

std::string hexMask(LaneMask mask) {
  std::ostringstream out;
  out << "0x" << std::hex << mask;
  return out.str();
}

std::string flagNames(uint8_t flags) {
  std::string out;
  if (flags & GlobalFootprint::kRead) out += "read";
  if (flags & GlobalFootprint::kWrite) {
    if (!out.empty()) out += "+";
    out += "write";
  }
  if (flags & GlobalFootprint::kAtomic) {
    if (!out.empty()) out += "+";
    out += "atomic";
  }
  return out;
}

}  // namespace

BlockChecker::BlockChecker(const CheckConfig& config, uint32_t block_id,
                           uint32_t num_threads, uint32_t warp_size)
    : config_(config),
      block_id_(block_id),
      num_threads_(num_threads),
      warp_size_(warp_size) {
  report_.maxDiagnostics = config.maxDiagnostics;
  vc_.resize(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    vc_[t].assign(num_threads, 0);
    // Start each clock at 1 so an initial epoch (clock 1) is not
    // vacuously ordered before other threads (whose entry is 0).
    vc_[t][t] = 1;
  }
  thread_state_.assign(num_threads, ThreadState::kRunning);
  blocked_at_.assign(num_threads, nullptr);
}

void BlockChecker::setSharedRange(const void* base, size_t bytes) {
  shared_base_ = static_cast<const std::byte*>(base);
  shared_bytes_ = bytes;
}

void BlockChecker::setGlobalRange(const void* base, size_t bytes) {
  global_base_ = static_cast<const std::byte*>(base);
  global_bytes_ = bytes;
}

void BlockChecker::recordEpoch(std::vector<Epoch>& list, uint32_t tid) {
  for (Epoch& e : list) {
    if (e.tid == tid) {
      e.clock = vc_[tid][tid];
      return;
    }
  }
  list.push_back(now(tid));
}

void BlockChecker::raceDiag(uint32_t tid, uint32_t other, MemSpace space,
                            uint64_t granule, const char* what) {
  Diagnostic d;
  d.kind = DiagKind::kDataRace;
  d.blockId = block_id_;
  d.threadId = tid;
  d.otherThreadId = other;
  d.space = space;
  d.address = space == MemSpace::kSynthetic
                  ? granule
                  : granule * static_cast<uint64_t>(kGranuleBytes);
  d.detail = what;
  report_.add(std::move(d));
}

void BlockChecker::touchCell(Cell& cell, uint64_t granule, uint32_t tid,
                             AccessKind kind, MemSpace space,
                             bool check_uninit) {
  switch (kind) {
    case AccessKind::kRead:
      if (check_uninit && cell.write.tid == kNoThread &&
          cell.atomics.empty() && !cell.uninit_reported) {
        cell.uninit_reported = true;
        Diagnostic d;
        d.kind = DiagKind::kUninitSharedRead;
        d.blockId = block_id_;
        d.threadId = tid;
        d.space = space;
        d.address = granule * kGranuleBytes;
        d.detail = "read of shared memory never written by this block";
        report_.add(std::move(d));
      }
      if (cell.write.tid != kNoThread && cell.write.tid != tid &&
          !happensBefore(cell.write, tid)) {
        raceDiag(tid, cell.write.tid, space, granule,
                 "read not ordered after write");
      }
      for (const Epoch& a : cell.atomics) {
        if (a.tid != tid && !happensBefore(a, tid)) {
          raceDiag(tid, a.tid, space, granule,
                   "read not ordered after atomic update");
        }
      }
      recordEpoch(cell.reads, tid);
      break;
    case AccessKind::kWrite:
      if (cell.write.tid != kNoThread && cell.write.tid != tid &&
          !happensBefore(cell.write, tid)) {
        raceDiag(tid, cell.write.tid, space, granule,
                 "write not ordered after write");
      }
      for (const Epoch& r : cell.reads) {
        if (r.tid != tid && !happensBefore(r, tid)) {
          raceDiag(tid, r.tid, space, granule, "write not ordered after read");
        }
      }
      for (const Epoch& a : cell.atomics) {
        if (a.tid != tid && !happensBefore(a, tid)) {
          raceDiag(tid, a.tid, space, granule,
                   "write not ordered after atomic update");
        }
      }
      // A plain write ordered after everything supersedes the history:
      // later accesses ordered after this write are (transitively)
      // ordered after everything it saw.
      cell.write = now(tid);
      cell.reads.clear();
      cell.atomics.clear();
      break;
    case AccessKind::kAtomic:
      if (cell.write.tid != kNoThread && cell.write.tid != tid &&
          !happensBefore(cell.write, tid)) {
        raceDiag(tid, cell.write.tid, space, granule,
                 "atomic update not ordered after plain write");
      }
      for (const Epoch& r : cell.reads) {
        if (r.tid != tid && !happensBefore(r, tid)) {
          raceDiag(tid, r.tid, space, granule,
                   "atomic update not ordered after plain read");
        }
      }
      recordEpoch(cell.atomics, tid);
      break;
  }
}

void BlockChecker::onAccess(uint32_t tid, const void* ptr, size_t bytes,
                            AccessKind kind, bool block_private) {
  if (bytes == 0) return;
  const std::byte* p = static_cast<const std::byte*>(ptr);
  if (shared_base_ != nullptr && p >= shared_base_ &&
      p < shared_base_ + shared_bytes_) {
    const uint64_t offset = static_cast<uint64_t>(p - shared_base_);
    const uint64_t first = offset / kGranuleBytes;
    const uint64_t last = (offset + bytes - 1) / kGranuleBytes;
    for (uint64_t g = first; g <= last; ++g) {
      touchCell(shared_cells_[g], g, tid, kind, MemSpace::kShared,
                /*check_uninit=*/true);
    }
    return;
  }
  if (global_base_ != nullptr && p >= global_base_ &&
      p < global_base_ + global_bytes_) {
    const uint64_t offset = static_cast<uint64_t>(p - global_base_);
    const uint64_t first = offset / kGranuleBytes;
    const uint64_t last = (offset + bytes - 1) / kGranuleBytes;
    const uint8_t bit = kind == AccessKind::kRead    ? GlobalFootprint::kRead
                        : kind == AccessKind::kWrite ? GlobalFootprint::kWrite
                                                     : GlobalFootprint::kAtomic;
    for (uint64_t g = first; g <= last; ++g) {
      Cell& cell = global_cells_[g];
      if (!block_private) cell.footprint |= bit;
      touchCell(cell, g, tid, kind, MemSpace::kGlobal, /*check_uninit=*/false);
    }
    return;
  }
  // Pointer outside the simulated arenas (host/stack memory the kernel
  // wrapped in a span for convenience): not checkable, ignore.
}

void BlockChecker::onSyntheticAccess(uint32_t tid, uint64_t key,
                                     bool is_write) {
  touchCell(synthetic_cells_[key], key, tid,
            is_write ? AccessKind::kWrite : AccessKind::kRead,
            MemSpace::kSynthetic, /*check_uninit=*/false);
}

void BlockChecker::onLockAcquire(uint32_t tid, uint64_t lock_key) {
  auto it = lock_clocks_.find(lock_key);
  if (it == lock_clocks_.end()) return;  // first acquisition
  const std::vector<uint32_t>& lock_vc = it->second;
  for (uint32_t i = 0; i < num_threads_; ++i) {
    vc_[tid][i] = std::max(vc_[tid][i], lock_vc[i]);
  }
}

void BlockChecker::onLockRelease(uint32_t tid, uint64_t lock_key) {
  lock_clocks_[lock_key] = vc_[tid];
  vc_[tid][tid] += 1;
}

void BlockChecker::releaseSync(const void* /*sync_key*/, PendingSync& sync) {
  std::vector<uint32_t> joined(num_threads_, 0);
  for (uint32_t p : sync.participants) {
    for (uint32_t i = 0; i < num_threads_; ++i) {
      joined[i] = std::max(joined[i], vc_[p][i]);
    }
  }
  for (uint32_t p : sync.participants) {
    vc_[p] = joined;
    vc_[p][p] += 1;
    thread_state_[p] = ThreadState::kRunning;
    blocked_at_[p] = nullptr;
  }
}

void BlockChecker::onSyncArrive(uint32_t tid, const void* sync_key,
                                uint32_t base_tid, LaneMask mask,
                                uint32_t warp_id, bool is_block) {
  auto [it, inserted] = pending_.try_emplace(sync_key);
  PendingSync& sync = it->second;
  if (inserted) {
    sync.is_block = is_block;
    sync.mask = mask;
    sync.warp_id = warp_id;
    if (is_block) {
      sync.participants.resize(num_threads_);
      for (uint32_t t = 0; t < num_threads_; ++t) sync.participants[t] = t;
    } else {
      for (unsigned lane = 0; lane < 64; ++lane) {
        if (laneIn(mask, lane)) sync.participants.push_back(base_tid + lane);
      }
    }
  }

  // Inconsistent warp masks: two coexisting warp syncs of the same warp
  // whose lane sets overlap but differ can never both release — the
  // shared lanes are each required at two places at once.
  if (!is_block) {
    for (const auto& [other_key, other] : pending_) {
      if (other_key == sync_key || other.is_block ||
          other.warp_id != warp_id) {
        continue;
      }
      if ((other.mask & mask) != 0 && other.mask != mask) {
        const auto pair = std::minmax(other_key, sync_key);
        if (mask_pair_reported_.insert({pair.first, pair.second}).second) {
          Diagnostic d;
          d.kind = DiagKind::kInconsistentMask;
          d.blockId = block_id_;
          d.threadId = tid;
          d.otherThreadId =
              other.arrived.empty() ? kNoThread : other.arrived.front();
          d.detail = "warp " + std::to_string(warp_id) +
                     " syncs with overlapping masks " + hexMask(mask) +
                     " and " + hexMask(other.mask);
          report_.add(std::move(d));
        }
      }
    }
  }

  // A participant that already returned from the kernel can never
  // arrive; this barrier is divergent.
  for (uint32_t p : sync.participants) {
    if (thread_state_[p] == ThreadState::kFinished) {
      if (divergence_reported_.insert(sync_key).second) {
        Diagnostic d;
        d.kind = DiagKind::kBarrierDivergence;
        d.blockId = block_id_;
        d.threadId = tid;
        d.otherThreadId = p;
        d.detail = std::string(sync.is_block ? "block" : "warp") +
                   " barrier expects thread " + std::to_string(p) +
                   ", which already returned from the kernel";
        report_.add(std::move(d));
      }
      break;
    }
  }

  sync.arrived.push_back(tid);
  if (sync.arrived.size() == sync.participants.size()) {
    releaseSync(sync_key, sync);
    pending_.erase(it);
  } else {
    thread_state_[tid] = ThreadState::kBlocked;
    blocked_at_[tid] = sync_key;
  }
}

void BlockChecker::onThreadFinish(uint32_t tid) {
  thread_state_[tid] = ThreadState::kFinished;
  for (const auto& [key, sync] : pending_) {
    if (std::find(sync.participants.begin(), sync.participants.end(), tid) ==
        sync.participants.end()) {
      continue;
    }
    if (divergence_reported_.insert(key).second) {
      Diagnostic d;
      d.kind = DiagKind::kBarrierDivergence;
      d.blockId = block_id_;
      d.threadId = tid;
      d.otherThreadId = sync.arrived.empty() ? kNoThread : sync.arrived.front();
      d.detail = "thread returned from the kernel while " +
                 std::to_string(sync.arrived.size()) + " thread(s) wait at a " +
                 (sync.is_block ? "block" : "warp") + " barrier expecting it";
      report_.add(std::move(d));
    }
  }
}

void BlockChecker::onRunEnd(bool engine_ok) {
  if (!engine_ok) {
    for (const auto& [key, sync] : pending_) {
      if (!divergence_reported_.insert(key).second) continue;
      Diagnostic d;
      d.kind = DiagKind::kBarrierDivergence;
      d.blockId = block_id_;
      d.threadId = sync.arrived.empty() ? kNoThread : sync.arrived.front();
      d.detail = "deadlock: " + std::to_string(sync.arrived.size()) + " of " +
                 std::to_string(sync.participants.size()) +
                 " participants reached this " +
                 (sync.is_block ? "block" : "warp") + " barrier" +
                 (sync.is_block ? "" : " (mask " + hexMask(sync.mask) + ")");
      report_.add(std::move(d));
    }
  }
  for (const auto& [slot, state] : sharing_) {
    if (!state.active) continue;
    Diagnostic d;
    d.kind = DiagKind::kSharingOverflowLeak;
    d.blockId = block_id_;
    d.detail = std::string(slotName(slot)) + " sharing slot still active at " +
               "kernel end" +
               (state.overflowed ? "; its global overflow block leaked" : "");
    report_.add(std::move(d));
  }
}

void BlockChecker::finishFootprint() {
  for (const auto& [granule, cell] : global_cells_) {
    if (cell.footprint != 0) {
      footprint_.granules.emplace_back(granule, cell.footprint);
    }
  }
  std::sort(footprint_.granules.begin(), footprint_.granules.end());
}

const char* BlockChecker::slotName(uint32_t slot) const {
  return slot == kTeamSlot ? "team" : "group";
}

void BlockChecker::onSharingBegin(uint32_t tid, uint32_t slot,
                                  uint32_t capacity_slots, uint32_t num_args,
                                  bool overflowed) {
  (void)tid;
  SharingSlot& state = sharing_[slot];
  state.active = true;
  state.overflowed = overflowed;
  state.unpublished_reported = false;
  state.declared_args = num_args;
  state.capacity = capacity_slots;
  state.stored_bits = 0;
}

void BlockChecker::onSharingStore(uint32_t tid, uint32_t slot,
                                  uint32_t index) {
  auto it = sharing_.find(slot);
  if (it == sharing_.end() || !it->second.active) return;
  SharingSlot& state = it->second;
  if (index >= state.declared_args) {
    Diagnostic d;
    d.kind = DiagKind::kSharingOutOfSlice;
    d.blockId = block_id_;
    d.threadId = tid;
    d.address = index;
    d.detail = std::string(slotName(slot)) + " slot: storeArg index " +
               std::to_string(index) + " beyond the " +
               std::to_string(state.declared_args) +
               " declared args (slice capacity " +
               std::to_string(state.capacity) + " slots)";
    report_.add(std::move(d));
  }
  if (index < 64) state.stored_bits |= uint64_t{1} << index;
}

void BlockChecker::onSharingFetch(uint32_t tid, uint32_t slot) {
  auto it = sharing_.find(slot);
  if (it == sharing_.end() || !it->second.active) return;
  SharingSlot& state = it->second;
  if (state.unpublished_reported) return;
  const uint32_t checkable = std::min<uint32_t>(state.declared_args, 64);
  for (uint32_t i = 0; i < checkable; ++i) {
    if ((state.stored_bits >> i) & 1) continue;
    state.unpublished_reported = true;
    Diagnostic d;
    d.kind = DiagKind::kSharingUnpublishedRead;
    d.blockId = block_id_;
    d.threadId = tid;
    d.address = i;
    d.detail = std::string(slotName(slot)) + " slot: fetchArgs but arg " +
               std::to_string(i) + " of " +
               std::to_string(state.declared_args) + " was never stored";
    report_.add(std::move(d));
    break;
  }
}

void BlockChecker::onSharingEnd(uint32_t tid, uint32_t slot) {
  (void)tid;
  auto it = sharing_.find(slot);
  if (it != sharing_.end()) it->second.active = false;
}

void analyzeCrossBlockRaces(
    const std::vector<std::pair<uint32_t, const GlobalFootprint*>>& blocks,
    CheckReport& report) {
  struct Prior {
    uint8_t flags = 0;
    uint32_t first_block = 0;
    bool reported = false;
  };
  std::unordered_map<uint64_t, Prior> seen;
  for (const auto& [block_id, fp] : blocks) {
    for (const auto& [granule, flags] : fp->granules) {
      auto [it, inserted] = seen.try_emplace(granule);
      Prior& prior = it->second;
      if (inserted) {
        prior.flags = flags;
        prior.first_block = block_id;
        continue;
      }
      // Blocks have no inter-block synchronization within a launch:
      // any combination other than read/read or atomic/atomic races.
      const uint8_t combined = prior.flags | flags;
      const bool benign = combined == GlobalFootprint::kRead ||
                          combined == GlobalFootprint::kAtomic;
      if (!benign && !prior.reported) {
        prior.reported = true;
        Diagnostic d;
        d.kind = DiagKind::kCrossBlockRace;
        d.blockId = block_id;
        d.space = MemSpace::kGlobal;
        d.address = granule * kGranuleBytes;
        d.detail = "block " + std::to_string(block_id) + " (" +
                   flagNames(flags) + ") conflicts with block " +
                   std::to_string(prior.first_block) + " (" +
                   flagNames(prior.flags) + ")";
        report.add(std::move(d));
      }
      prior.flags |= flags;
    }
  }
}

}  // namespace simtomp::simcheck
