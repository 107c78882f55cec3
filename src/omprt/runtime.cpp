#include "omprt/runtime.h"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

#include "support/log.h"

namespace simtomp::omprt::rt {

using gpusim::Counter;

namespace {

// simcheck annotation keys for the runtime's own publication protocol:
// the TeamState parallel-region fields (terminate flag, outlined fn,
// team args pointer) act as one logical location, and each
// SimdGroupState descriptor as another. The annotations let the
// checker validate the state machines' synchronization exactly like
// user data — a missing barrier between publish and poll is a race.
constexpr uint64_t kTeamStateKey = 0;
constexpr uint64_t simdGroupKey(uint32_t group) { return 1 + group; }
// rt::critical models one team-wide lock.
constexpr uint64_t kCriticalLockKey = 0;

/// RAII construct span on the calling thread's profile timeline.
/// noteEnter/noteExit are no-ops when profiling is off, so wrapping a
/// runtime entry point in one of these charges no modeled cycles.
class ConstructSpan {
 public:
  ConstructSpan(gpusim::ThreadCtx& t, simprof::Construct construct,
                uint64_t detail = 0)
      : t_(t) {
    t_.noteEnter(construct, detail);
  }
  ~ConstructSpan() { t_.noteExit(); }
  ConstructSpan(const ConstructSpan&) = delete;
  ConstructSpan& operator=(const ConstructSpan&) = delete;

 private:
  gpusim::ThreadCtx& t_;
};

/// Whether a simd body's values are summed: a ReduceBodyF64 returns
/// what its iteration adds to the group's total.
template <typename Body>
constexpr bool kReduces = std::is_same_v<Body, ReduceBodyF64>;

/// One lane's share of __simd_loop (paper Fig. 8): the cyclic
/// lane-strided iterations iv = lane, lane + g, ... of a group of g.
/// Known outlined bodies: the compiler hoists the if-cascade out of the
/// loop and inlines the body (one-time cost). Unknown bodies pay an
/// indirect call every iteration (paper section 5.5); `plan` resolved
/// the cascade once, so iterations charge without locking. A reducing
/// loop sums its values, one fma each. Returns that lane sum (0 for a
/// plain loop). The lane-per-fiber path and the batched runner both run
/// a lane through here, so their charges cannot drift apart.
template <typename Body>
double runLaneShare(OmpContext& ctx, Body fn, uint64_t tripCount, void** args,
                    const DispatchPlan& plan) {
  gpusim::ThreadCtx& t = ctx.gpu();
  const uint32_t stride = ctx.simdGroupSize();
  if (plan.known) plan.charge(t);
  double acc = 0.0;
  for (uint64_t iv = ctx.simdGroupId(); iv < tripCount; iv += stride) {
    if (!plan.known) plan.charge(t);
    if constexpr (kReduces<Body>) {
      acc += fn(ctx, iv, args);
      t.fma();
    } else {
      fn(ctx, iv, args);
    }
    t.work(2);  // induction update + bound check
  }
  return acc;
}

/// __simd_loop on the calling lane's own fiber: the prologue group
/// barrier, the lane's share, and for a reducing loop the simdReduceAdd
/// butterfly. Returns the group total (0 for a plain loop).
template <typename Body>
double simdLoopOnLane(OmpContext& ctx, Body fn, uint64_t tripCount,
                      void** args) {
  ctx.gpu().chargeLocal();  // iv = simdGroupId()
  syncSimdGroup(ctx);
  const double local = runLaneShare(
      ctx, fn, tripCount, args,
      Dispatcher::global().prepare(reinterpret_cast<const void*>(fn)));
  if constexpr (kReduces<Body>) {
    return simdReduceAdd(ctx, local);
  } else {
    return local;
  }
}

/// Shared worker/leader body for executing one published simd work item
/// in generic mode. Returns false when the item is the termination
/// signal.
bool runPublishedSimdWork(OmpContext& ctx) {
  gpusim::ThreadCtx& t = ctx.gpu();
  TeamState& ts = ctx.team();
  SimdGroupState& gs = ts.groups[ctx.simdGroup()];

  t.noteEnter(simprof::Construct::kStatePoll);
  t.charge(Counter::kStatePoll, t.cost().statePoll);
  t.chargeSharedLoad();  // getSimdFn: function pointer
  t.noteSyntheticAccess(simdGroupKey(ctx.simdGroup()), /*is_write=*/false);
  void* fn = gs.simdFn;
  if (fn == nullptr) {
    t.noteExit();
    return false;
  }
  t.chargeSharedLoad();  // trip count
  const uint64_t trip = gs.tripCount;
  void** args = nullptr;
  if (gs.numArgs > 0) args = ts.sharing->fetchArgs(t, ctx.simdGroup());
  t.noteExit();

  const ConstructSpan simd_span(t, simprof::Construct::kSimdLoop,
                                ctx.simdGroupSize());
  switch (gs.kind) {
    case SimdWorkKind::kLoop:
      (void)simdLoopOnLane(ctx, reinterpret_cast<LoopBodyFn>(fn), trip, args);
      break;
    case SimdWorkKind::kReduceAddF64:  // workers discard the total
      (void)simdLoopOnLane(ctx, reinterpret_cast<ReduceBodyF64>(fn), trip,
                           args);
      break;
  }
  return true;
}

/// Book the paper's "thread waste" (section 6.5) for one simd loop:
/// a group of g lanes runs ceil(trip/g) lockstep rounds; lane-rounds
/// beyond the trip count are idle lanes. Recorded by the group leader.
void chargeLaneUtilization(OmpContext& ctx, uint64_t trip) {
  const uint64_t g = ctx.simdGroupSize();
  const uint64_t rounds = (trip + g - 1) / g;
  const uint64_t lane_rounds = rounds * g;
  gpusim::ThreadCtx& t = ctx.gpu();
  t.charge(Counter::kSimdLaneRounds, 0, lane_rounds);
  t.charge(Counter::kSimdIdleLaneRounds, 0, lane_rounds - trip);
}

/// Whether a generic-SIMD main shares its loop arguments with the
/// group's workers through the sharing space.
bool sharesSimdArgs(const OmpContext& ctx, uint32_t numArgs) {
  return numArgs > 0 && ctx.simdGroupSize() > 1;
}

/// Generic-SIMD publish (paper Fig. 4): the SIMD main publishes the
/// work item in its group state, shares the argument pointers through
/// the sharing space and releases the workers. Returns the argument
/// array the main runs its own share with; when sharesSimdArgs, the
/// caller closes the sharing epoch after the trailing group barrier.
void** publishSimdWork(OmpContext& ctx, void* fn, SimdWorkKind kind,
                       uint64_t tripCount, void** args, uint32_t numArgs) {
  gpusim::ThreadCtx& t = ctx.gpu();
  TeamState& ts = ctx.team();
  const uint32_t group = ctx.simdGroup();
  setSimdFn(ctx, fn, kind, tripCount, numArgs);
  void** shared_args = args;
  if (sharesSimdArgs(ctx, numArgs)) {
    const ConstructSpan sharing_span(t, simprof::Construct::kSharing);
    shared_args =
        ts.sharing->beginSharing(t, group, ctx.numThreads(), numArgs);
    for (uint32_t i = 0; i < numArgs; ++i) {
      ts.sharing->storeArg(t, group, shared_args, i, args[i]);
    }
    ts.groups[group].args = shared_args;
    t.chargeSharedStore();
  }
  syncSimdGroup(ctx);  // release the workers
  return shared_args;
}

// ---------------------------------------------------------------------
// Convergence fast path: when every lane of a SIMD group executes the
// same loop body and the front-end declared that body hazard-free (no
// barrier, cross-lane op, atomic or divergent branch; dsl::convergent),
// the group's per-lane loops are executed back to back in a tight host
// loop on ONE fiber — the last lane to arrive at the construct (the
// "runner") runs runLaneShare for each lane in ascending order, so
// modeled cycles, counters, traces, profiles and simcheck verdicts are
// bit-identical to the lane-per-fiber path; only the fiber-switch host
// cost disappears. The group's warp barriers (arrival, replay, release)
// and the butterfly's exchange rounds are BlockEngine::group* calls on
// the warp's sync point and exchange slots; this file only runs the
// loop bodies and adds. See DESIGN.md section 3.6.
// ---------------------------------------------------------------------

/// simdReduceAdd for the whole group, on the runner: lane l's running
/// sum lives in exchange slot l. Each stage is one engine exchange round
/// (what every lane's shflXor does), then each lane's add and fma.
/// Group masks are power-of-two aligned, so lane ^ offset stays inside
/// the group.
void butterflyBatched(OmpContext& ctx) {
  gpusim::ThreadCtx& t = ctx.gpu();
  gpusim::BlockEngine& eng = t.block();
  std::array<uint64_t, 64>& slots = eng.exchangeSlots(t);
  const LaneMask mask = ctx.simdMask();
  for (uint32_t offset = ctx.simdGroupSize() / 2; offset > 0; offset /= 2) {
    const std::array<uint64_t, 64> partner = eng.groupExchangeRound(
        t, mask, [&](const gpusim::WarpState& warp) {
          std::array<uint64_t, 64> read{};
          for (LaneMask rest = mask; rest != 0; rest &= rest - 1) {
            const uint32_t lane = std::countr_zero(rest);
            read[lane] = warp.exchange[lane ^ offset];
          }
          return read;
        });
    eng.forEachLane(t, mask, [&](gpusim::ThreadCtx& lane) {
      const uint32_t l = lane.laneId();
      slots[l] = std::bit_cast<uint64_t>(std::bit_cast<double>(slots[l]) +
                                         std::bit_cast<double>(partner[l]));
      lane.fma();
    });
  }
}

/// Batched simdLoopOnLane + closing syncSimdGroup, bit-identical in
/// stats to every lane running them on its own fiber, with the same
/// simcheck findings. Each lane charges its prologue barrier's arrival
/// and parks at the group's warp sync point; the last arrival runs
/// every lane's share (under the kForbid hazard guard; each lane's
/// accesses reach simcheck through its own ThreadCtx, as on its own
/// fiber), the butterfly and the closing barrier, leaves each lane's
/// result in its exchange slot and wakes the group.
template <typename Body>
double runSimdBatched(OmpContext& ctx, Body fn, uint64_t tripCount,
                      void** args) {
  gpusim::ThreadCtx& t = ctx.gpu();
  gpusim::BlockEngine& eng = t.block();
  std::array<uint64_t, 64>& slots = eng.exchangeSlots(t);
  const LaneMask mask = ctx.simdMask();
  const bool charged = ctx.team().archHasWarpBarrier;
  t.chargeLocal();  // iv = simdGroupId()
  if (eng.groupArrive(t, mask, charged)) {
    const DispatchPlan plan =
        Dispatcher::global().prepare(reinterpret_cast<const void*>(fn));
    eng.forEachLane(t, mask, [&](gpusim::ThreadCtx& lane) {
      OmpContext lane_ctx(lane, ctx.team());
      lane_ctx.enterParallel(ctx.parallelConfig(), ctx.numThreads());
      lane.setHazardGuard(true);
      const double sum = runLaneShare(lane_ctx, fn, tripCount, args, plan);
      lane.setHazardGuard(false);
      slots[lane.laneId()] = std::bit_cast<uint64_t>(sum);
    });
    if constexpr (kReduces<Body>) butterflyBatched(ctx);
    eng.groupBarrier(t, mask, charged);  // the closing syncSimdGroup
    eng.groupRelease(t, mask);
  }
  return std::bit_cast<double>(slots[t.laneId()]);
}

/// Launch/group-shape gate for the fast path in an SPMD region. Every
/// input is identical across the lanes of one group, so the whole group
/// always agrees — a split decision would deadlock the rendezvous. Every
/// lane of a group exists: teams are whole warps
/// (TargetConfig::validate).
bool fastPathEligible(const OmpContext& ctx) {
  return ctx.team().fastPathEnabled && ctx.simdGroupSize() > 1;
}

/// __simd (paper Fig. 4) for either loop kind; rt::simd and
/// rt::simdLoopReduceAdd check their preconditions, then land here.
/// Returns the group total of a reducing loop (0 for a plain loop).
template <typename Body>
double simdConstruct(OmpContext& ctx, Body fn, uint64_t tripCount,
                     void** args, uint32_t numArgs, bool convergent) {
  gpusim::ThreadCtx& t = ctx.gpu();
  const ConstructSpan simd_span(t, simprof::Construct::kSimdLoop,
                                ctx.simdGroupSize());
  if (ctx.isSimdGroupLeader()) {
    t.charge(Counter::kSimdLoop, 0);
    chargeLaneUtilization(ctx, tripCount);
  }

  if (ctx.parallelIsSPMD()) {
    // All lanes hold the loop description locally: no communication.
    if (convergent && fastPathEligible(ctx)) {
      return runSimdBatched(ctx, fn, tripCount, args);
    }
    const double total = simdLoopOnLane(ctx, fn, tripCount, args);
    syncSimdGroup(ctx);
    return total;
  }

  // Generic mode: only the SIMD main reaches this call. Publish the
  // loop and share the argument pointers through the sharing space.
  void** shared_args = publishSimdWork(
      ctx, reinterpret_cast<void*>(fn),
      kReduces<Body> ? SimdWorkKind::kReduceAddF64 : SimdWorkKind::kLoop,
      tripCount, args, numArgs);
  const double total = simdLoopOnLane(ctx, fn, tripCount, shared_args);
  syncSimdGroup(ctx);
  if (sharesSimdArgs(ctx, numArgs)) {
    ctx.team().sharing->endSharing(t, ctx.simdGroup());
  }
  return total;
}

/// Fig. 3 core: how one worker-capable thread executes a parallel
/// region under the current parallel frame.
void executeParallelThread(OmpContext& ctx, OutlinedFn fn, void** args) {
  if (ctx.parallelIsSPMD()) {
    // All threads execute the region in SPMD mode.
    invokeMicrotask(ctx, fn, args);
    return;
  }
  if (ctx.isSimdGroupLeader()) {
    // Only simd mains execute the region in generic mode.
    invokeMicrotask(ctx, fn, args);
    // Send the termination signal to the simd workers.
    setSimdFn(ctx, nullptr, SimdWorkKind::kLoop, 0, 0);
    syncSimdGroup(ctx);
  } else {
    // Simd workers enter the state machine.
    simdStateMachine(ctx);
  }
}

}  // namespace

ThreadKind targetInit(OmpContext& ctx) {
  gpusim::ThreadCtx& t = ctx.gpu();
  TeamState& ts = ctx.team();
  t.work(4);  // team-state initialization
  if (ts.teamsMode == ExecMode::kSPMD) {
    // All threads return to the user code immediately.
    return ThreadKind::kUserCode;
  }
  if (t.threadId() == ts.mainThreadId) return ThreadKind::kUserCode;
  // Workers (and the idle lanes of the extra main warp) park in the
  // team state machine until the kernel terminates.
  return teamStateMachine(ctx);
}

void targetDeinit(OmpContext& ctx) {
  gpusim::ThreadCtx& t = ctx.gpu();
  TeamState& ts = ctx.team();
  if (ts.teamsMode == ExecMode::kSPMD) {
    t.syncBlock();  // final team barrier
    return;
  }
  // Generic mode: only the team main reaches this point.
  ts.terminate = true;
  t.chargeSharedStore();
  t.noteSyntheticAccess(kTeamStateKey, /*is_write=*/true);
  t.syncBlock();  // release workers to observe the termination flag
}

ParallelConfig normalizeParallelConfig(const TeamState& ts,
                                       ParallelConfig config) {
  // Auto fields resolve against the launch-wide defaults (which the
  // tuner may have filled in via TargetConfig).
  if (config.modeAuto) {
    config.mode = ts.defaultParallel.mode;
    config.modeAuto = false;
  }
  uint32_t g = config.simdGroupSize;
  if (g == kSimdlenAuto) g = ts.defaultParallel.simdGroupSize;
  if (g == 0) g = 1;
  if (g > ts.warpSize) g = ts.warpSize;
  g = std::bit_floor(g);  // group sizes are powers of two (divide a warp)
  if (config.mode == ExecMode::kGeneric && !ts.archHasWarpBarrier && g > 1) {
    // Paper section 5.4.1: without wavefront-level barriers generic-SIMD
    // is unsupported; simd loops run sequentially.
    SIMTOMP_DEBUG("generic-SIMD unsupported on this architecture; "
                  "falling back to group size 1");
    g = 1;
  }
  config.simdGroupSize = g;
  return config;
}

void parallel(OmpContext& ctx, OutlinedFn fn, void** args, uint32_t numArgs,
              ParallelConfig config) {
  gpusim::ThreadCtx& t = ctx.gpu();
  TeamState& ts = ctx.team();
  SIMTOMP_CHECK(!ctx.inParallel(), "nested parallel regions not supported");
  const ParallelConfig cfg = normalizeParallelConfig(ts, config);
  const uint32_t num_groups = ts.numWorkerThreads / cfg.simdGroupSize;
  const ConstructSpan parallel_span(t, simprof::Construct::kParallel);

  if (ts.teamsMode == ExecMode::kGeneric) {
    SIMTOMP_CHECK(t.threadId() == ts.mainThreadId,
                  "generic-mode parallel() must be called by the team main");
    t.charge(Counter::kParallelRegion, 0);
    // Publish the region for the workers.
    ts.parallelFn = fn;
    t.chargeSharedStore();
    ts.parallelConfig = cfg;
    t.chargeSharedStore();
    ts.parallelNumArgs = numArgs;
    t.chargeSharedStore();
    if (numArgs > 0) {
      const ConstructSpan sharing_span(t, simprof::Construct::kSharing);
      void** area = ts.sharing->beginTeamSharing(t, numArgs);
      for (uint32_t i = 0; i < numArgs; ++i) {
        ts.sharing->storeArg(t, 0, area, i, args[i]);
      }
      ts.parallelArgs = area;
      t.chargeSharedStore();
    }
    t.noteSyntheticAccess(kTeamStateKey, /*is_write=*/true);
    t.syncBlock();  // release the workers
    t.syncBlock();  // wait for region completion
    if (numArgs > 0) ts.sharing->endTeamSharing(t);
    ts.parallelFn = nullptr;
    ts.parallelNumArgs = 0;
    t.noteSyntheticAccess(kTeamStateKey, /*is_write=*/true);
    return;
  }

  // SPMD teams mode: every thread executes this call with identical
  // arguments; everything stays thread-local (paper section 5.4).
  if (t.threadId() == 0) t.charge(Counter::kParallelRegion, 0);
  ctx.enterParallel(cfg, num_groups);
  executeParallelThread(ctx, fn, args);
  ctx.exitParallel();
  t.syncBlock();  // implicit barrier at the end of the parallel region
}

void simd(OmpContext& ctx, LoopBodyFn fn, uint64_t tripCount, void** args,
          uint32_t numArgs, bool convergent) {
  SIMTOMP_CHECK(ctx.inParallel(), "simd() requires an enclosing parallel");
  SIMTOMP_CHECK(ctx.parallelIsSPMD() || ctx.isSimdGroupLeader(),
                "generic-mode simd() reached by a worker thread");
  (void)simdConstruct(ctx, fn, tripCount, args, numArgs, convergent);
}

void workshareFor(OmpContext& ctx, uint64_t tripCount, LoopBodyFn fn,
                  void** args) {
  workshareForScheduled(ctx, tripCount, fn, args,
                        {ForSchedule::kStaticCyclic, 0});
}

void workshareForScheduled(OmpContext& ctx, uint64_t tripCount,
                           LoopBodyFn fn, void** args,
                           const ScheduleClause& schedule) {
  gpusim::ThreadCtx& t = ctx.gpu();
  TeamState& ts = ctx.team();
  SIMTOMP_CHECK(ctx.inParallel(), "for-worksharing requires parallel");
  const ConstructSpan ws_span(t, simprof::Construct::kWorkshare);
  if (ctx.isSimdGroupLeader()) t.charge(Counter::kWorkshareLoop, 0);

  const DispatchPlan plan =
      Dispatcher::global().prepare(reinterpret_cast<const void*>(fn));
  if (plan.known) plan.charge(t);
  auto call = [&](uint64_t iv) {
    if (!plan.known) plan.charge(t);
    fn(ctx, iv, args);
    t.work(2);
  };

  const uint64_t id = ctx.threadNum();
  const uint64_t n = ctx.numThreads();

  ForSchedule kind = schedule.kind;
  if (kind == ForSchedule::kDynamic &&
      (ts.teamsMode != ExecMode::kSPMD || !ctx.parallelIsSPMD())) {
    // The dynamic dispatch protocol needs team barriers, which only
    // exist when every thread of the block is executing user code.
    SIMTOMP_DEBUG("dynamic schedule unavailable outside full-SPMD "
                  "execution; falling back to static");
    kind = ForSchedule::kStaticCyclic;
  }

  switch (kind) {
    case ForSchedule::kStaticCyclic:
      for (uint64_t iv = id; iv < tripCount; iv += n) call(iv);
      return;
    case ForSchedule::kStaticChunked: {
      const uint64_t chunk = (tripCount + n - 1) / n;
      const uint64_t begin = std::min(id * chunk, tripCount);
      const uint64_t end = std::min(begin + chunk, tripCount);
      t.work(3);  // bounds arithmetic
      for (uint64_t iv = begin; iv < end; ++iv) call(iv);
      return;
    }
    case ForSchedule::kDynamic: {
      // Clause chunk wins; 0 falls back to the launch-wide default
      // (tunable via TargetConfig::scheduleChunk), then to 1.
      const uint64_t default_chunk =
          ts.defaultScheduleChunk == 0 ? 1 : ts.defaultScheduleChunk;
      const uint64_t chunk =
          schedule.chunk == 0 ? default_chunk : schedule.chunk;
      // Dispatch init: one thread resets the team counter between uses.
      teamBarrier(ctx);
      if (t.threadId() == 0) {
        ts.dynamicCounter.store(0, std::memory_order_relaxed);
        t.chargeSharedStore();
      }
      teamBarrier(ctx);
      const LaneMask mask = ctx.simdMask();
      const uint32_t group_size = ctx.simdGroupSize();
      const unsigned leader_lane = (t.laneId() / group_size) * group_size;
      for (;;) {
        uint64_t base = 0;
        if (ctx.isSimdGroupLeader()) {
          // Shared-memory atomic grab by the group leader.
          base = ts.dynamicCounter.fetch_add(chunk,
                                             std::memory_order_relaxed);
          t.chargeAtomic();
        }
        if (group_size > 1) base = t.shfl(base, leader_lane, mask);
        if (base >= tripCount) break;
        const uint64_t end = std::min(base + chunk, tripCount);
        for (uint64_t iv = base; iv < end; ++iv) call(iv);
      }
      return;
    }
  }
}

double teamReduceAdd(OmpContext& ctx, double value) {
  gpusim::ThreadCtx& t = ctx.gpu();
  TeamState& ts = ctx.team();
  SIMTOMP_CHECK(ts.teamsMode == ExecMode::kSPMD && ctx.inParallel() &&
                    ctx.parallelIsSPMD(),
                "teamReduceAdd requires a full-SPMD parallel region "
                "(team barriers are involved)");
  const uint32_t group = ctx.threadNum();
  const uint32_t num_groups = ctx.numThreads();
  if (ctx.isSimdGroupLeader()) {
    ts.reduceScratch[group] = value;
    t.chargeSharedStore();
  }
  t.syncBlock();
  // Binary tree over the per-group slots; non-leaders only keep the
  // barriers company (the block barrier needs every thread).
  for (uint32_t stride = std::bit_ceil(num_groups) / 2; stride > 0;
       stride /= 2) {
    if (ctx.isSimdGroupLeader() && group < stride &&
        group + stride < num_groups) {
      ts.reduceScratch[group] += ts.reduceScratch[group + stride];
      t.chargeSharedLoad(2);
      t.chargeSharedStore();
      t.fma();
    }
    t.syncBlock();
  }
  t.chargeSharedLoad();
  return ts.reduceScratch[0];
}

Range distributeStatic(OmpContext& ctx, uint64_t tripCount) {
  const uint64_t teams = ctx.numTeams();
  const uint64_t team = ctx.teamNum();
  const uint64_t chunk = (tripCount + teams - 1) / teams;
  Range r;
  r.begin = std::min(team * chunk, tripCount);
  r.end = std::min(r.begin + chunk, tripCount);
  ctx.gpu().work(3);  // bounds arithmetic
  return r;
}

void distributeStaticChunked(OmpContext& ctx, uint64_t tripCount,
                             uint64_t chunk, LoopBodyFn fn, void** args) {
  if (chunk == 0) chunk = 1;
  gpusim::ThreadCtx& t = ctx.gpu();
  const ConstructSpan dist_span(t, simprof::Construct::kDistribute);
  const uint64_t team = ctx.teamNum();
  const uint64_t stride = static_cast<uint64_t>(ctx.numTeams()) * chunk;
  const DispatchPlan plan =
      Dispatcher::global().prepare(reinterpret_cast<const void*>(fn));
  if (plan.known) plan.charge(t);
  for (uint64_t base = team * chunk; base < tripCount; base += stride) {
    const uint64_t end = std::min(base + chunk, tripCount);
    t.work(3);  // chunk bound arithmetic
    for (uint64_t iv = base; iv < end; ++iv) {
      if (!plan.known) plan.charge(t);
      fn(ctx, iv, args);
      t.work(2);
    }
  }
}

void syncSimdGroup(OmpContext& ctx) {
  const LaneMask mask = ctx.simdMask();
  if (popcount(mask) <= 1) return;
  // Architectures without warp-level barriers rely on implicit
  // wavefront lockstep: the rendezvous still happens, but free.
  ctx.gpu().block().warpBarrier(ctx.gpu(), mask,
                                /*charged=*/ctx.team().archHasWarpBarrier);
}

void teamBarrier(OmpContext& ctx) {
  // A block-wide barrier is only well-defined when every thread of the
  // block is executing user code: SPMD teams mode, and not inside a
  // generic-mode parallel region (whose simd workers sit in the warp
  // state machine and would never arrive).
  SIMTOMP_CHECK(ctx.team().teamsMode == ExecMode::kSPMD &&
                    (!ctx.inParallel() || ctx.parallelIsSPMD()),
                "teamBarrier requires SPMD teams mode outside generic "
                "parallel regions");
  ctx.gpu().syncBlock();
}

bool isMaster(const OmpContext& ctx) {
  return ctx.threadNum() == 0 && ctx.isSimdGroupLeader();
}

void single(OmpContext& ctx, OutlinedFn fn, void** args) {
  SIMTOMP_CHECK(ctx.team().teamsMode == ExecMode::kSPMD &&
                    ctx.inParallel() && ctx.parallelIsSPMD(),
                "single requires a full-SPMD parallel region (implicit "
                "team barrier)");
  if (isMaster(ctx)) invokeMicrotask(ctx, fn, args);
  teamBarrier(ctx);  // implicit barrier at the end of single
}

void critical(OmpContext& ctx, OutlinedFn fn, void** args) {
  SIMTOMP_CHECK(ctx.inParallel(), "critical requires a parallel region");
  gpusim::ThreadCtx& t = ctx.gpu();
  TeamState& ts = ctx.team();
  const ConstructSpan crit_span(t, simprof::Construct::kCritical);
  if (ctx.isSimdGroupLeader()) {
    // Lock acquire: atomic RMW, then wait out the previous holder.
    t.chargeAtomic();
    t.alignTimeTo(ts.criticalReleaseTime);
    t.noteLockAcquire(kCriticalLockKey);
    invokeMicrotask(ctx, fn, args);
    t.chargeAtomic();  // release
    ts.criticalReleaseTime = t.time();
    t.noteLockRelease(kCriticalLockKey);
  }
  // In SPMD mode the group's other lanes reached this call too and must
  // converge with their leader. In generic mode only leaders execute
  // region code — and they must NOT touch the group barrier here, since
  // their workers are parked on it inside the simd state machine.
  if (ctx.parallelIsSPMD()) syncSimdGroup(ctx);
}

ThreadKind teamStateMachine(OmpContext& ctx) {
  gpusim::ThreadCtx& t = ctx.gpu();
  TeamState& ts = ctx.team();
  for (;;) {
    t.noteEnter(simprof::Construct::kStatePoll);
    t.syncBlock();  // wait for the main thread to publish work
    t.charge(Counter::kStatePoll, t.cost().statePoll);
    t.chargeSharedLoad();  // termination flag
    t.noteSyntheticAccess(kTeamStateKey, /*is_write=*/false);
    const bool done = ts.terminate;
    t.noteExit();
    if (done) return ThreadKind::kTerminated;
    if (t.threadId() < ts.numWorkerThreads) {
      const ConstructSpan region_span(t, simprof::Construct::kParallel);
      t.chargeSharedLoad();  // outlined function pointer
      OutlinedFn fn = ts.parallelFn;
      t.chargeSharedLoad();  // region config
      const ParallelConfig cfg = ts.parallelConfig;
      void** args = nullptr;
      if (ts.parallelNumArgs > 0) args = ts.sharing->fetchTeamArgs(t);
      ctx.enterParallel(cfg, ts.numWorkerThreads / cfg.simdGroupSize);
      executeParallelThread(ctx, fn, args);
      ctx.exitParallel();
    }
    t.syncBlock();  // region complete
  }
}

void simdStateMachine(OmpContext& ctx) {
  do {
    syncSimdGroup(ctx);  // wait for work
    if (!runPublishedSimdWork(ctx)) return;  // nullptr fn: end of parallel
    syncSimdGroup(ctx);
  } while (true);
}

void workshareLoopSimd(OmpContext& ctx, LoopBodyFn fn, uint64_t tripCount,
                       void** args) {
  (void)simdLoopOnLane(ctx, fn, tripCount, args);
}

void invokeMicrotask(OmpContext& ctx, OutlinedFn fn, void** args) {
  Dispatcher::global().chargeDispatch(ctx.gpu(),
                                      reinterpret_cast<const void*>(fn));
  fn(ctx, args);
}

void setSimdFn(OmpContext& ctx, void* fn, SimdWorkKind kind,
               uint64_t tripCount, uint32_t numArgs) {
  gpusim::ThreadCtx& t = ctx.gpu();
  SimdGroupState& gs = ctx.team().groups[ctx.simdGroup()];
  gs.kind = kind;
  gs.simdFn = fn;
  t.chargeSharedStore();
  gs.tripCount = tripCount;
  gs.numArgs = numArgs;
  t.chargeSharedStore();
  t.noteSyntheticAccess(simdGroupKey(ctx.simdGroup()), /*is_write=*/true);
}

double simdLoopReduceAdd(OmpContext& ctx, ReduceBodyF64 fn,
                         uint64_t tripCount, void** args, uint32_t numArgs,
                         bool convergent) {
  SIMTOMP_CHECK(ctx.inParallel(), "simd reduction requires parallel");
  SIMTOMP_CHECK(ctx.parallelIsSPMD() || ctx.isSimdGroupLeader(),
                "generic-mode simd reduction reached by a worker thread");
  return simdConstruct(ctx, fn, tripCount, args, numArgs, convergent);
}

}  // namespace simtomp::omprt::rt
