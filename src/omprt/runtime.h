// Device-side OpenMP runtime entry points (paper section 5).
//
// The function set mirrors the paper's runtime additions:
//
//   targetInit / targetDeinit   — __target_init and kernel teardown
//                                 (section 5.2): the divergence point
//                                 where generic-mode workers enter the
//                                 team state machine.
//   parallel                    — __parallel (Fig. 3): SPMD regions run
//                                 on every thread; generic regions run
//                                 on SIMD group leaders while workers
//                                 enter the SIMD state machine.
//   simd                        — __simd (Fig. 4): SPMD-SIMD workshares
//                                 directly; generic-SIMD publishes the
//                                 loop through the group state and the
//                                 variable sharing space.
//   simdStateMachine            — Fig. 6, warp-level worker loop.
//   workshareLoopSimd           — __simd_loop (Fig. 8).
//   workshareFor                — `for` worksharing across SIMD groups.
//   distributeStatic            — `distribute` split across teams.
//
// Extensions past the paper's evaluation (its section 7 future work):
// simdReduceAdd / simd loops with reduction, available to benches as an
// alternative to the atomic updates the paper had to use.
//
// simd and simdLoopReduceAdd are one construct over two body types, and
// runtime.cpp writes the per-lane __simd_loop once: a lane runs it on
// its own fiber, or the convergence fast path's batched runner runs it
// for every lane of a group (DESIGN.md section 3.6). Warp primitives —
// barriers, the shuffle's exchange round and the runner's group twins
// of both — live in gpusim::BlockEngine; this layer charges none of
// them itself.
#pragma once

#include <cstdint>

#include "gpusim/block.h"
#include "gpusim/thread.h"
#include "omprt/context.h"
#include "omprt/dispatcher.h"
#include "omprt/modes.h"
#include "omprt/schedule.h"
#include "omprt/team_state.h"

namespace simtomp::omprt::rt {

/// Entry protocol: every device thread calls this first. Returns
/// kUserCode if the thread should run the target-region user code
/// (always in SPMD mode; team main only in generic mode) and
/// kTerminated when a generic-mode worker has finished its state
/// machine and must exit the kernel.
ThreadKind targetInit(OmpContext& ctx);

/// Kernel teardown. In generic mode the team main publishes the
/// termination signal; in SPMD mode this is the final team barrier.
void targetDeinit(OmpContext& ctx);

/// Clamp/repair a requested parallel configuration for this team:
/// group size becomes a power of two <= warpSize, and generic mode
/// without warp-level barriers (AMD) degrades to group size 1 so simd
/// loops run sequentially (paper section 5.4.1).
ParallelConfig normalizeParallelConfig(const TeamState& ts,
                                       ParallelConfig config);

/// __parallel. In generic teams mode only the team main may call this;
/// in SPMD teams mode every thread calls it with identical arguments.
void parallel(OmpContext& ctx, OutlinedFn fn, void** args, uint32_t numArgs,
              ParallelConfig config);

/// __simd. In SPMD parallel mode every group lane calls it (the loop
/// description is thread-local); in generic parallel mode only the SIMD
/// group leader does, and the runtime shares the loop with the workers.
/// `convergent` is the front-end's static classification of `fn`
/// (dsl::convergent): a body free of barriers, cross-lane ops, atomics
/// and divergent branches, which the convergence fast path may batch
/// (DESIGN.md section 3.6). A false promise fails the launch with
/// FAILED_PRECONDITION; undeclared bodies never batch.
void simd(OmpContext& ctx, LoopBodyFn fn, uint64_t tripCount, void** args,
          uint32_t numArgs, bool convergent = false);

/// `for` worksharing across the OpenMP threads (SIMD groups) of the
/// current parallel region; static cyclic schedule.
void workshareFor(OmpContext& ctx, uint64_t tripCount, LoopBodyFn fn,
                  void** args);

/// `for` worksharing with an explicit schedule clause. kDynamic pulls
/// chunks from a team-shared atomic counter and is only available in
/// SPMD parallel regions (generic mode falls back to static cyclic —
/// its workers cannot reach the required team barriers).
void workshareForScheduled(OmpContext& ctx, uint64_t tripCount, LoopBodyFn fn,
                           void** args, const ScheduleClause& schedule);

/// Contiguous per-team slice of a `distribute` loop (static schedule).
struct Range {
  uint64_t begin = 0;
  uint64_t end = 0;
  [[nodiscard]] uint64_t size() const { return end - begin; }
};
Range distributeStatic(OmpContext& ctx, uint64_t tripCount);

/// dist_schedule(static, chunk): the team's chunks are
/// [team*chunk + k*numTeams*chunk, ...) — call `fn` once per owned
/// iteration. Chunked-cyclic distribution smooths trailing-team
/// imbalance for skewed trip counts.
void distributeStaticChunked(OmpContext& ctx, uint64_t tripCount,
                             uint64_t chunk, LoopBodyFn fn, void** args);

/// Warp-level barrier over the calling thread's SIMD group. No-op for
/// singleton groups; uncharged (implicit lockstep) when the
/// architecture lacks warp-level barriers.
void syncSimdGroup(OmpContext& ctx);

/// Explicit barrier across all OpenMP threads of the team (usable from
/// SPMD parallel regions).
void teamBarrier(OmpContext& ctx);

/// `master` test: true on OpenMP thread 0's leader lane.
[[nodiscard]] bool isMaster(const OmpContext& ctx);

/// `#pragma omp single` — `fn` runs on exactly one OpenMP thread of the
/// team; all threads join the implicit barrier afterwards. Full-SPMD
/// regions only (the barrier needs every device thread).
void single(OmpContext& ctx, OutlinedFn fn, void** args);

/// `#pragma omp critical` — mutual exclusion across the team's OpenMP
/// threads: entrants pay the lock traffic and are serialized on the
/// modeled timeline. Usable in both SPMD and generic regions (in SPMD
/// mode only the group leader executes the section body, mirroring how
/// a GPU runtime guards critical sections to one lane per "thread").
void critical(OmpContext& ctx, OutlinedFn fn, void** args);

// ---- Internals exposed for tests and the state-machine figures ----

/// Block-level worker loop for generic teams mode (paper section 3.1).
ThreadKind teamStateMachine(OmpContext& ctx);
/// Warp-level worker loop for generic-SIMD mode (paper Fig. 6).
void simdStateMachine(OmpContext& ctx);
/// __simd_loop (paper Fig. 8): cyclic lane-strided execution.
void workshareLoopSimd(OmpContext& ctx, LoopBodyFn fn, uint64_t tripCount,
                       void** args);
/// Dispatch + call an outlined region (paper section 5.5).
void invokeMicrotask(OmpContext& ctx, OutlinedFn fn, void** args);
/// Publish simd work in the group state (paper Fig. 4 setSimdFn).
void setSimdFn(OmpContext& ctx, void* fn, SimdWorkKind kind,
               uint64_t tripCount, uint32_t numArgs);

// ---- Reductions (extension; paper section 7 future work) ----

/// Loop body that contributes one value per iteration.
using ReduceBodyF64 = double (*)(OmpContext& ctx, uint64_t iv, void** args);

/// Execute a simd loop whose iterations are summed. Every lane of the
/// group receives the group-total. Usable from SPMD parallel regions
/// (all lanes call) and from generic regions (leader calls; workers are
/// dispatched through the state machine). `convergent` as for simd().
double simdLoopReduceAdd(OmpContext& ctx, ReduceBodyF64 fn,
                         uint64_t tripCount, void** args, uint32_t numArgs,
                         bool convergent = false);

/// Sum `value` across every OpenMP thread (SIMD group) of the team.
/// SPMD parallel regions only (uses team barriers); every lane receives
/// the team total. Combine with simdReduceAdd for a full
/// lanes -> groups -> team reduction.
double teamReduceAdd(OmpContext& ctx, double value);

/// Butterfly-sum `value` across the calling thread's SIMD group; every
/// lane receives the total. All group lanes must call.
template <typename T>
T simdReduceAdd(OmpContext& ctx, T value) {
  const LaneMask mask = ctx.simdMask();
  const uint32_t group_size = ctx.simdGroupSize();
  gpusim::ThreadCtx& t = ctx.gpu();
  for (uint32_t offset = group_size / 2; offset > 0; offset /= 2) {
    value += t.shflXor(value, offset, mask);
    t.fma();
  }
  return value;
}

}  // namespace simtomp::omprt::rt
