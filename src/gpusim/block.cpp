#include "gpusim/block.h"

#include <algorithm>

#include "support/log.h"

namespace simtomp::gpusim {

// The arena hands ThreadCtx storage out by pointer bump and never runs
// destructors; the context must not grow owning members.
static_assert(std::is_trivially_destructible_v<ThreadCtx>,
              "ThreadCtx lives in the block arena");
static_assert(std::is_trivially_destructible_v<SyncPoint>,
              "SyncPoint lives in the block arena");

BlockEngine::BlockEngine(const ArchSpec& arch, const CostModel& cost,
                         DeviceMemory& global_memory, uint32_t block_id,
                         uint32_t num_blocks, uint32_t num_threads)
    : arch_(&arch),
      cost_(&cost),
      global_(&global_memory),
      block_id_(block_id),
      shared_(arch.sharedMemPerBlock) {
  SIMTOMP_CHECK(num_threads > 0, "block must have at least one thread");
  SIMTOMP_CHECK(num_threads <= arch.maxThreadsPerBlock,
                "block exceeds maxThreadsPerBlock");
  const uint32_t num_warps = (num_threads + arch.warpSize - 1) / arch.warpSize;
  warps_.resize(num_warps);
  num_threads_ = num_threads;
  threads_ = static_cast<ThreadCtx*>(
      arena().allocate(num_threads * sizeof(ThreadCtx), alignof(ThreadCtx)));
  for (uint32_t tid = 0; tid < num_threads; ++tid) {
    ::new (static_cast<void*>(threads_ + tid)) ThreadCtx(
        *this, cost, block_id, num_blocks, tid, num_threads, arch.warpSize);
    warps_[tid / arch.warpSize].memberMask |= LaneMask{1}
                                              << (tid % arch.warpSize);
  }
  block_sync_.mask = ~LaneMask{0};
  block_sync_.target = num_threads;
}

void BlockEngine::setChecker(simcheck::BlockChecker* checker) {
  checker_ = checker;
  if (checker_ != nullptr) {
    checker_->setSharedRange(shared_.base(), shared_.capacity());
    checker_->setGlobalRange(global_->raw(0), global_->capacity());
  }
  for (uint32_t tid = 0; tid < num_threads_; ++tid) {
    threads_[tid].setChecker(checker_);
  }
}

void BlockEngine::setProfiler(simprof::BlockProfiler* profiler) {
  profiler_ = profiler;
  for (uint32_t tid = 0; tid < num_threads_; ++tid) {
    threads_[tid].setProfile(profiler_ != nullptr ? &profiler_->thread(tid)
                                                  : nullptr);
  }
}

void BlockEngine::setFault(const simfault::BlockFaultArm* arm) {
  fault_ = arm;
  if (fault_ != nullptr && fault_->trap) {
    scheduler_.setTrapStep(fault_->trapStep);
  }
}

bool BlockEngine::faultFires(simfault::FaultKind kind) {
  if (fault_ == nullptr) return false;
  switch (kind) {
    case simfault::FaultKind::kLivelock:
      return fault_->livelock &&
             ++fault_livelock_seen_ == fault_->livelockArrival;
    case simfault::FaultKind::kBarrierCorrupt:
      return fault_->barrierCorrupt &&
             ++fault_corrupt_seen_ == fault_->corruptArrival;
    case simfault::FaultKind::kSharingExhausted:
      return fault_->sharingExhausted &&
             ++fault_sharing_seen_ == fault_->sharingBegin;
    default:
      return false;
  }
}

Status BlockEngine::run(const Kernel& kernel) {
  simcheck::BlockChecker* checker = checker_;
  simprof::BlockProfiler* profiler = profiler_;
  for (uint32_t tid = 0; tid < num_threads_; ++tid) {
    ThreadCtx* t = &threads_[tid];
    scheduler_.spawn([&kernel, t, checker, profiler] {
      kernel(*t);
      if (checker != nullptr) checker->onThreadFinish(t->threadId());
      // Close the thread's implicit team frame (and anything an early
      // return left open) at its final timeline position.
      if (profiler != nullptr) profiler->thread(t->threadId()).finish(t->time());
    });
  }
  Status status = scheduler_.run();
  if (checker != nullptr) checker->onRunEnd(status.isOk());
  if (!status.isOk()) return status;

  // Aggregate timing. Lockstep warp issue cost = max over lanes' busy
  // cycles; the SM can issue for warpSchedulersPerSM warps concurrently.
  busy_sum_ = 0;
  max_thread_time_ = 0;
  uint64_t block_busy = 0;
  const uint32_t warp_size = arch_->warpSize;
  for (uint32_t w = 0; w < warps_.size(); ++w) {
    uint64_t warp_busy = 0;
    const uint32_t lo = w * warp_size;
    const uint32_t hi = std::min<uint32_t>(lo + warp_size, num_threads_);
    for (uint32_t tid = lo; tid < hi; ++tid) {
      const ThreadCtx& t = threads_[tid];
      busy_sum_ += t.busy();
      warp_busy = std::max(warp_busy, t.busy());
      max_thread_time_ = std::max(max_thread_time_, t.time());
      counters_.merge(t.counters());
    }
    block_busy += warp_busy;
  }
  block_time_ =
      std::max(max_thread_time_, block_busy / arch_->warpSchedulersPerSM);
  return Status::ok();
}

SyncPoint& BlockEngine::findOrCreateSync(WarpState& warp, LaneMask mask) {
  for (SyncPoint* sp : warp.syncs) {
    if (sp->mask == mask) return *sp;
  }
  SyncPoint* sp = arena().create<SyncPoint>();
  sp->mask = mask;
  sp->target = static_cast<uint32_t>(popcount(mask & warp.memberMask));
  warp.syncs.push_back(sp);
  return *sp;
}

void BlockEngine::arriveAtSync(ThreadCtx& t, SyncPoint& sp) {
  if (fault_ != nullptr) {
    if (faultFires(simfault::FaultKind::kLivelock)) {
      // Injected livelock: spin forever while staying runnable. The
      // deadlock detector needs *no* runnable fiber to fire, so it is
      // blind to this — only the watchdog's step budget can kill it.
      for (;;) scheduler_.yield();
    }
    if (faultFires(simfault::FaultKind::kBarrierCorrupt)) {
      // Injected corrupted arrival: wait at the sync point without
      // counting toward its target. The barrier can never release, so
      // every participant ends up blocked and the deadlock detector
      // reports the stuck fibers.
      for (;;) scheduler_.block(sp.waiters);
    }
  }
  sp.arrived += 1;
  sp.pendingMax = std::max(sp.pendingMax, t.time());
  if (sp.arrived == sp.target) {
    const uint64_t parity = sp.generation & 1;
    sp.releaseTime[parity] = sp.pendingMax;
    sp.generation += 1;
    sp.arrived = 0;
    sp.pendingMax = 0;
    t.alignTimeTo(sp.releaseTime[parity]);
    scheduler_.unblockAll(sp.waiters);
    return;
  }
  const uint64_t my_generation = sp.generation;
  scheduler_.block(sp.waiters);
  t.alignTimeTo(sp.releaseTime[my_generation & 1]);
}

SyncPoint& BlockEngine::warpSync(const ThreadCtx& t, LaneMask mask) {
  SIMTOMP_CHECK(laneIn(mask, t.laneId()),
                "warp barrier mask excludes the calling lane");
  SyncPoint& sp = findOrCreateSync(warps_[t.warpId()], mask);
  SIMTOMP_CHECK(sp.target > 0, "warp barrier with no member lanes");
  return sp;
}

void BlockEngine::announceWarpArrival(ThreadCtx& t, SyncPoint& sp,
                                      bool charged) {
  t.noteEnter(simprof::Construct::kBarrier);
  t.charge(Counter::kWarpSync, charged ? cost_->warpSync : 0);
  if (checker_ != nullptr) {
    checker_->onSyncArrive(t.threadId(), &sp, t.warpId() * arch_->warpSize,
                           sp.mask & warps_[t.warpId()].memberMask,
                           t.warpId(), /*is_block=*/false);
  }
}

void BlockEngine::warpBarrier(ThreadCtx& t, LaneMask mask, bool charged) {
  // Covers syncWarp and, transitively, shuffle/ballot (both rendezvous
  // here) for convergence-hazard classification.
  t.noteHazard("warp barrier / cross-lane op");
  SyncPoint& sp = warpSync(t, mask);
  announceWarpArrival(t, sp, charged);
  arriveAtSync(t, sp);
  t.noteExit();
}

void BlockEngine::blockBarrier(ThreadCtx& t) {
  t.noteHazard("block barrier");
  t.noteEnter(simprof::Construct::kBarrier);
  t.charge(Counter::kBlockSync, cost_->blockSync);
  if (checker_ != nullptr) {
    checker_->onSyncArrive(t.threadId(), &block_sync_, 0, block_sync_.mask, 0,
                           /*is_block=*/true);
  }
  arriveAtSync(t, block_sync_);
  t.noteExit();
}

bool BlockEngine::groupArrive(ThreadCtx& t, LaneMask mask, bool charged) {
  SyncPoint& sp = warpSync(t, mask);
  announceWarpArrival(t, sp, charged);
  if (++sp.parked < sp.target) {
    scheduler_.block(sp.waiters);
    return false;
  }
  sp.parked = 0;
  closeGroupBarrier(t, mask);
  return true;
}

void BlockEngine::groupBarrier(ThreadCtx& runner, LaneMask mask,
                               bool charged) {
  SyncPoint& sp = warpSync(runner, mask);
  forEachLane(runner, mask, [&](ThreadCtx& lane) {
    announceWarpArrival(lane, sp, charged);
  });
  closeGroupBarrier(runner, mask);
}

void BlockEngine::closeGroupBarrier(const ThreadCtx& runner, LaneMask mask) {
  uint64_t release = 0;
  forEachLane(runner, mask, [&release](const ThreadCtx& lane) {
    release = std::max(release, lane.time());
  });
  forEachLane(runner, mask, [release](ThreadCtx& lane) {
    lane.alignTimeTo(release);
    lane.noteExit();
  });
}

void BlockEngine::groupRelease(const ThreadCtx& runner, LaneMask mask) {
  scheduler_.unblockAll(warpSync(runner, mask).waiters);
}

void ThreadCtx::hazardForbidden(const char* what) {
  throw StatusException(Status::failedPrecondition(
      std::string("convergence fast path executed a hazard (") + what +
      ") in a body declared convergent; the declaration is false"));
}

LaneMask BlockEngine::ballot(ThreadCtx& t, bool predicate, LaneMask mask) {
  return exchangeRound(
      t, predicate ? 1 : 0, mask, [mask](const WarpState& warp) {
        LaneMask result = 0;
        for (unsigned lane = 0; lane < 64; ++lane) {
          if (laneIn(mask & warp.memberMask, lane) &&
              warp.exchange[lane] != 0) {
            result |= LaneMask{1} << lane;
          }
        }
        return result;
      });
}

}  // namespace simtomp::gpusim
