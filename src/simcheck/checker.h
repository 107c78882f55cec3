// simcheck: the per-block checking engine.
//
// One BlockChecker instance observes one block's execution through the
// simulator's existing choke points: every charged span access, every
// barrier arrival, every sharing-space handout. It is owned by the
// launch (one per block, so host-parallel block execution needs no
// locking) and deposits findings into a CheckReport that the launch
// merges in block order.
//
// Race detection is FastTrack-style happens-before tracking: each
// thread carries a vector clock; barrier releases join the clocks of
// every participant (the engine already sequences those rendezvous, so
// they are exactly the synchronization the program actually has). Each
// touched 4-byte granule keeps shadow state — the last plain-write
// epoch plus the reads/atomics since — and an access that is not
// ordered after a conflicting epoch is a race. Plain reads never race
// with plain reads, atomics never race with atomics; everything else
// unordered does. The same granule's shadow cell also carries the
// block's global footprint flags for the cross-block pass.
//
// Every lane's accesses reach the checker through the same hooks,
// whether the lane ran on its own fiber or in the convergence fast
// path's batch on the group's last fiber, so a launch reports the same
// findings with the fast path on or off (a racy report may store them
// in another order: the batch runs a group's lanes in lane order).
//
// Barrier-divergence detection mirrors the engine's sync points: the
// checker tracks which threads are parked where, flags overlapping
// warp syncs with different masks the moment they coexist, flags
// threads that exit while a barrier still waits on them, and sweeps
// any still-pending barrier when the fiber scheduler reports deadlock.
//
// The checker never charges simulated cycles, so modeled stats are
// bit-identical with checking on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simcheck/report.h"
#include "support/lane_mask.h"

namespace simtomp::simcheck {

enum class AccessKind : uint8_t { kRead = 0, kWrite, kAtomic };

/// Which 4-byte global-memory granules a block touched, and how.
/// The flags live in the block's shadow cells; each block renders them
/// once, sorted by granule, after its run, and the launch compares the
/// blocks' footprints: blocks have no inter-block synchronization, so
/// any granule where two blocks conflict (not read/read, not
/// atomic/atomic) is a race.
struct GlobalFootprint {
  static constexpr uint8_t kRead = 1;
  static constexpr uint8_t kWrite = 2;
  static constexpr uint8_t kAtomic = 4;
  /// (granule, flags), ascending by granule.
  std::vector<std::pair<uint64_t, uint8_t>> granules;
};

inline constexpr uint32_t kGranuleBytes = 4;

class BlockChecker {
 public:
  /// Sentinel sharing-slot key for the team-level slot.
  static constexpr uint32_t kTeamSlot = 0xFFFFFFFFu;

  BlockChecker(const CheckConfig& config, uint32_t block_id,
               uint32_t num_threads, uint32_t warp_size);

  /// Address ranges used to classify raw pointers; accesses outside
  /// both ranges (host/stack memory) are ignored.
  void setSharedRange(const void* base, size_t bytes);
  void setGlobalRange(const void* base, size_t bytes);

  // ---- Hooks (called from the simulated block's one OS thread) ----

  /// A charged span access by `tid` at host pointer `ptr`.
  /// `block_private` marks runtime-owned transient allocations (e.g.
  /// sharing-space overflow staging): the allocator guarantees the
  /// block exclusive ownership for the allocation's lifetime, and the
  /// free-list may hand the same granules to another block afterwards,
  /// so such accesses are race-checked within the block but excluded
  /// from the cross-block footprint — address reuse across blocks is
  /// not sharing.
  void onAccess(uint32_t tid, const void* ptr, size_t bytes, AccessKind kind,
                bool block_private = false);
  /// An access to a runtime-internal protocol slot (TeamState /
  /// SimdGroupState publication fields), identified by a small key.
  void onSyntheticAccess(uint32_t tid, uint64_t key, bool is_write);
  /// Lock-style synchronization (rt::critical): acquire joins the
  /// lock's clock into the thread, release publishes the thread clock.
  void onLockAcquire(uint32_t tid, uint64_t lock_key);
  void onLockRelease(uint32_t tid, uint64_t lock_key);

  /// `tid` arrived at the sync point identified by `sync_key`. For warp
  /// syncs, `base_tid`/`mask` name the participating lanes (mask
  /// already restricted to lanes that exist); block barriers pass
  /// `is_block=true` and every thread participates.
  void onSyncArrive(uint32_t tid, const void* sync_key, uint32_t base_tid,
                    LaneMask mask, uint32_t warp_id, bool is_block);
  /// `tid` returned from the kernel.
  void onThreadFinish(uint32_t tid);
  /// The block's fiber scheduler finished; `engine_ok` is false on
  /// deadlock. Emits barrier-divergence and sharing-leak findings.
  void onRunEnd(bool engine_ok);
  /// The block is done, whether or not its run reached onRunEnd (a
  /// fiber that throws skips it): render the global footprint from the
  /// shadow cells. Called once, on the block's own host worker.
  void finishFootprint();

  // ---- Sharing-space protocol (slot = group index or kTeamSlot) ----

  void onSharingBegin(uint32_t tid, uint32_t slot, uint32_t capacity_slots,
                      uint32_t num_args, bool overflowed);
  void onSharingStore(uint32_t tid, uint32_t slot, uint32_t index);
  void onSharingFetch(uint32_t tid, uint32_t slot);
  void onSharingEnd(uint32_t tid, uint32_t slot);

  // ---- Results ----

  [[nodiscard]] const CheckReport& report() const { return report_; }
  [[nodiscard]] const GlobalFootprint& footprint() const { return footprint_; }

 private:
  struct Epoch {
    uint32_t tid = kNoThread;
    uint32_t clock = 0;
  };
  /// Shadow state for one granule: last plain write plus the reads and
  /// atomics since (cleared by the next ordered plain write — sound,
  /// because happens-before is transitive through that write).
  struct Cell {
    Epoch write;
    std::vector<Epoch> reads;
    std::vector<Epoch> atomics;
    bool uninit_reported = false;
    /// GlobalFootprint flags of the block's global accesses, excluding
    /// block_private ones; 0 elsewhere.
    uint8_t footprint = 0;
  };
  struct PendingSync {
    std::vector<uint32_t> participants;
    std::vector<uint32_t> arrived;
    LaneMask mask = 0;
    uint32_t warp_id = 0;
    bool is_block = false;
  };
  struct SharingSlot {
    bool active = false;
    bool overflowed = false;
    bool unpublished_reported = false;
    uint32_t declared_args = 0;
    uint32_t capacity = 0;
    uint64_t stored_bits = 0;  ///< bitmap of stored indices < 64
  };
  enum class ThreadState : uint8_t { kRunning, kBlocked, kFinished };

  [[nodiscard]] bool happensBefore(const Epoch& e, uint32_t tid) const {
    return vc_[tid][e.tid] >= e.clock;
  }
  [[nodiscard]] Epoch now(uint32_t tid) const { return {tid, vc_[tid][tid]}; }
  void recordEpoch(std::vector<Epoch>& list, uint32_t tid);
  void touchCell(Cell& cell, uint64_t granule, uint32_t tid, AccessKind kind,
                 MemSpace space, bool check_uninit);
  void raceDiag(uint32_t tid, uint32_t other, MemSpace space,
                uint64_t granule, const char* what);
  void releaseSync(const void* sync_key, PendingSync& sync);
  [[nodiscard]] const char* slotName(uint32_t slot) const;

  CheckConfig config_;
  uint32_t block_id_;
  uint32_t num_threads_;
  uint32_t warp_size_;
  const std::byte* shared_base_ = nullptr;
  size_t shared_bytes_ = 0;
  const std::byte* global_base_ = nullptr;
  size_t global_bytes_ = 0;

  std::vector<std::vector<uint32_t>> vc_;  ///< per-thread vector clocks
  std::unordered_map<uint64_t, Cell> shared_cells_;
  std::unordered_map<uint64_t, Cell> global_cells_;
  std::unordered_map<uint64_t, Cell> synthetic_cells_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> lock_clocks_;

  std::map<const void*, PendingSync> pending_;
  std::vector<ThreadState> thread_state_;
  std::vector<const void*> blocked_at_;
  std::set<const void*> divergence_reported_;
  std::set<std::pair<const void*, const void*>> mask_pair_reported_;

  std::map<uint32_t, SharingSlot> sharing_;  ///< ordered: leak sweep order
  GlobalFootprint footprint_;
  CheckReport report_;
};

/// Cross-block pass: walk the per-block global footprints in block
/// order, each already sorted by granule, so reports are deterministic
/// for any host worker count, and flag granules where two blocks
/// conflict.
void analyzeCrossBlockRaces(
    const std::vector<std::pair<uint32_t, const GlobalFootprint*>>& blocks,
    CheckReport& report);

}  // namespace simtomp::simcheck
