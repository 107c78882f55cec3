// Convergence fast path (DESIGN.md §3.6): call-site body classification,
// batched execution equivalence, the per-block arena, and the
// dispatcher's per-thread lookup cache.
//
// The load-bearing contract: for ANY combination of fast path on/off,
// host worker count, checking on/off and profiling on/off, a launch
// produces bit-identical KernelStats, check reports and profiles — the
// fast path buys host wall-time only. A racy program's findings match
// too, in counts and content: simcheck has one checking path, so a
// batched lane's accesses are checked exactly as on its own fiber.
// Only bodies declared convergent at the call site batch, from their
// first launch; a declared body that executes any hazard class
// (divergent branch, barrier, cross-lane op, atomic) must fail the
// launch loudly rather than corrupt modeled results, and an undeclared
// body must never batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/common.h"
#include "apps/csr.h"
#include "apps/ideal_kernel.h"
#include "apps/sparse_matvec.h"
#include "dsl/dsl.h"
#include "omprt/dispatcher.h"
#include "omprt/runtime.h"
#include "omprt/target.h"
#include "simprof/metrics.h"
#include "support/arena.h"
#include "scoped_env.h"

namespace simtomp {
namespace {

using gpusim::ArchSpec;
using gpusim::Device;
using gpusim::GlobalSpan;
using gpusim::KernelStats;
using omprt::ExecMode;
using omprt::FastPathMode;
using omprt::OmpContext;
using test::ScopedEnv;

// ---------------------------------------------------------------------
// Body classification: only declared bodies batch, and every hazard
// class inside a declared body fails the launch
// ---------------------------------------------------------------------

constexpr uint32_t kGroup = 8;
constexpr uint64_t kTrip = kGroup;  // one iteration per lane: barrier and
                                    // cross-lane bodies stay convergent
                                    // on the lane-per-fiber path

void cleanBody(OmpContext& ctx, uint64_t, void**) { ctx.gpu().fma(); }

void divergentBody(OmpContext& ctx, uint64_t, void**) {
  ctx.gpu().branch();
  ctx.gpu().fma();
}

void atomicBody(OmpContext& ctx, uint64_t, void**) {
  ctx.gpu().chargeAtomic();
}

void barrierBody(OmpContext& ctx, uint64_t, void**) {
  omprt::rt::syncSimdGroup(ctx);
  ctx.gpu().fma();
}

void crossLaneBody(OmpContext& ctx, uint64_t, void**) {
  (void)omprt::rt::simdReduceAdd(ctx, 1.0);
}

/// The call site under test: g_body, declared convergent or not.
omprt::LoopBodyFn g_body = nullptr;
bool g_declared = false;

void simdRegion(OmpContext& ctx, void** args) {
  omprt::rt::simd(ctx, g_body, kTrip, args, 0, g_declared);
}

uint64_t fiberSwitchesSoFar() {
  return simprof::MetricsRegistry::global().value(
      simprof::metric::kFiberSwitchesTotal);
}

struct BodyRun {
  Result<KernelStats> stats;
  uint64_t fiberSwitches = 0;  ///< simtomp_fiber_switches_total delta
};

BodyRun launchBody(omprt::LoopBodyFn body, FastPathMode fast, bool declared,
                   uint32_t numTeams = 2, uint32_t workers = 1) {
  g_body = body;
  g_declared = declared;
  const uint64_t before = fiberSwitchesSoFar();
  Device dev(ArchSpec::testTiny());
  omprt::TargetConfig config;
  config.teamsMode = ExecMode::kSPMD;
  config.numTeams = numTeams;
  config.threadsPerTeam = 32;
  config.hostWorkers = workers;
  config.fastPath = fast;
  void* args[] = {nullptr};
  BodyRun run{launchTarget(dev, config, [&](OmpContext& ctx) {
    omprt::rt::parallel(ctx, &simdRegion, args, 1, {ExecMode::kSPMD, kGroup});
  })};
  run.fiberSwitches = fiberSwitchesSoFar() - before;
  return run;
}

KernelStats runBodyKernel(omprt::LoopBodyFn body, FastPathMode fast,
                          bool declared) {
  const BodyRun run = launchBody(body, fast, declared);
  EXPECT_TRUE(run.stats.isOk()) << run.stats.status().toString();
  return run.stats.isOk() ? run.stats.value() : KernelStats{};
}

/// A hazard body runs identically off and undeclared-on, and the same
/// body declared convergent fails the launch loudly.
void expectDeclaredHazardFails(omprt::LoopBodyFn body, const char* what) {
  const KernelStats off = runBodyKernel(body, FastPathMode::kOff, false);
  const KernelStats on = runBodyKernel(body, FastPathMode::kOn, false);
  EXPECT_EQ(on.toJson(), off.toJson()) << what << " (undeclared)";
  // The declaration only matters when the fast path is on.
  const KernelStats declared_off =
      runBodyKernel(body, FastPathMode::kOff, true);
  EXPECT_EQ(declared_off.toJson(), off.toJson()) << what << " (declared off)";

  const BodyRun lie = launchBody(body, FastPathMode::kOn, true);
  ASSERT_FALSE(lie.stats.isOk()) << what;
  EXPECT_EQ(lie.stats.status().code(), StatusCode::kFailedPrecondition)
      << what;
  EXPECT_NE(lie.stats.status().toString().find("hazard"), std::string::npos)
      << what << ": " << lie.stats.status().toString();
}

TEST(BodyClassificationTest, DivergentBranchRejects) {
  expectDeclaredHazardFails(&divergentBody, "divergent branch");
}

TEST(BodyClassificationTest, AtomicRejects) {
  expectDeclaredHazardFails(&atomicBody, "atomic RMW");
}

TEST(BodyClassificationTest, BarrierRejects) {
  expectDeclaredHazardFails(&barrierBody, "simd-group barrier");
}

TEST(BodyClassificationTest, CrossLaneOpRejects) {
  expectDeclaredHazardFails(&crossLaneBody, "cross-lane reduce");
}

// A declared body batches from its first launch: stats identical to the
// slow path, fewer fiber switches.
TEST(BodyClassificationTest, CleanBodyProbePromotes) {
  const BodyRun off = launchBody(&cleanBody, FastPathMode::kOff, true);
  const BodyRun batched = launchBody(&cleanBody, FastPathMode::kOn, true);
  ASSERT_TRUE(off.stats.isOk() && batched.stats.isOk());
  EXPECT_EQ(batched.stats.value().toJson(), off.stats.value().toJson());
  EXPECT_LT(batched.fiberSwitches, off.fiberSwitches);
}

// An undeclared hazard-free body never batches, so host-work counters
// do not depend on what earlier launches in the process ran, nor on
// the host worker count.
TEST(BodyClassificationTest, UndeclaredBodyNeverBatches) {
  const BodyRun off = launchBody(&cleanBody, FastPathMode::kOff, false);
  const BodyRun first = launchBody(&cleanBody, FastPathMode::kOn, false);
  const BodyRun second = launchBody(&cleanBody, FastPathMode::kOn, false);
  const BodyRun wide = launchBody(&cleanBody, FastPathMode::kOn, false,
                                  /*numTeams=*/2, /*workers=*/8);
  ASSERT_TRUE(off.stats.isOk() && first.stats.isOk() &&
              second.stats.isOk() && wide.stats.isOk());
  EXPECT_EQ(first.fiberSwitches, off.fiberSwitches);
  EXPECT_EQ(second.fiberSwitches, first.fiberSwitches);
  EXPECT_EQ(wide.fiberSwitches, first.fiberSwitches);
  EXPECT_EQ(second.stats.value().toJson(), off.stats.value().toJson());
}

// A group whose lanes split between a batched simd construct and a
// plain group barrier is an invalid program: it must fail the launch
// as a deadlock, as two separate rendezvous would, not batch.
void splitGroupRegion(OmpContext& ctx, void** args) {
  if (ctx.simdGroupId() < kGroup / 2) {
    omprt::rt::syncSimdGroup(ctx);
    return;
  }
  omprt::rt::simd(ctx, &cleanBody, kTrip, args, 0, /*convergent=*/true);
}

TEST(BodyClassificationTest, GroupSplitAcrossTheFastPathDeadlocks) {
  Device dev(ArchSpec::testTiny());
  omprt::TargetConfig config;
  config.teamsMode = ExecMode::kSPMD;
  config.numTeams = 1;
  config.threadsPerTeam = 32;
  config.hostWorkers = 1;
  config.fastPath = FastPathMode::kOn;
  void* args[] = {nullptr};
  const Result<KernelStats> stats =
      launchTarget(dev, config, [&](OmpContext& ctx) {
        omprt::rt::parallel(ctx, &splitGroupRegion, args, 1,
                            {ExecMode::kSPMD, kGroup});
      });
  ASSERT_FALSE(stats.isOk());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stats.status().toString().find("deadlock"), std::string::npos)
      << stats.status().toString();
}

// Directives that adapt the user's body (collapse, tile) pass its
// declaration on, so a declared body batches through them too.
TEST(BodyClassificationTest, AdaptersKeepTheDeclaration) {
  const loopir::CollapsedLoop2 nest(loopir::CanonicalLoop::upTo(4),
                                    loopir::CanonicalLoop::upTo(4));
  const loopir::TiledLoop tiled(loopir::CanonicalLoop::upTo(256), 16);
  auto body = dsl::convergent(
      [](OmpContext& c, auto...) { c.gpu().fma(); });
  const auto launch = [&](FastPathMode fast) {
    dsl::LaunchSpec spec;
    spec.numTeams = 2;
    spec.threadsPerTeam = 32;
    spec.fastPath = fast;
    const omprt::ParallelConfig pc{ExecMode::kSPMD, kGroup};
    const uint64_t before = fiberSwitchesSoFar();
    Device dev(ArchSpec::testTiny());
    auto stats = dsl::target(dev, spec, [&](OmpContext& ctx) {
      dsl::parallelForTiledSimd(ctx, tiled, body, pc);
      dsl::parallelFor(
          ctx, 4,
          [&](OmpContext& inner, uint64_t) {
            dsl::simdCollapse2(inner, nest, body);
          },
          pc);
    });
    EXPECT_TRUE(stats.isOk()) << stats.status().toString();
    return std::pair(stats.isOk() ? stats.value().toJson() : std::string(),
                     fiberSwitchesSoFar() - before);
  };
  const auto off = launch(FastPathMode::kOff);
  const auto on = launch(FastPathMode::kOn);
  EXPECT_EQ(on.first, off.first);
  EXPECT_LT(on.second, off.second);
}

TEST(BodyClassificationTest, FalseConvergentPromiseFailsLoudly) {
  // Off-path launch works: the body is merely slow, not wrong.
  EXPECT_TRUE(
      launchBody(&atomicBody, FastPathMode::kOff, true, 1).stats.isOk());

  // Declaring it convergent is a lie; the batched runner's hazard guard
  // must fail the launch rather than silently skew modeled results.
  const BodyRun lie = launchBody(&atomicBody, FastPathMode::kOn, true, 1);
  ASSERT_FALSE(lie.stats.isOk());
  EXPECT_NE(lie.stats.status().toString().find("hazard"), std::string::npos)
      << lie.stats.status().toString();
}

// ---------------------------------------------------------------------
// Bit-identity matrix: fast x workers x check x profile
// ---------------------------------------------------------------------

struct LaunchArtifacts {
  KernelStats stats;
  std::string checkReport;
  std::string profileTable;
  std::vector<double> result;
};

constexpr uint64_t kRows = 192;
constexpr uint64_t kInner = 8;

/// The two bench/host_throughput kernels: rt::simd (map) and
/// rt::simdLoopReduceAdd (butterfly reduce).
enum class ConvergentKernel { kMap, kReduce };

/// The simd loop of one row: group size (simdlen) and trip count.
struct SimdShape {
  uint32_t group = kInner;
  uint64_t trip = kInner;
};

/// A bench/host_throughput kernel at test size: full-SPMD,
/// dsl::convergent body, fast path engaged whenever enabled.
LaunchArtifacts runConvergent(ConvergentKernel kernel, const ArchSpec& arch,
                              FastPathMode fast, uint32_t workers,
                              bool check, bool profile,
                              SimdShape shape = {}) {
  Device dev(arch);
  const bool map = kernel == ConvergentKernel::kMap;
  const uint64_t trip = shape.trip;
  // Distinct values, so a lane that reads the wrong partner in the
  // butterfly changes the sum.
  std::vector<double> host_in(kRows * trip);
  for (size_t i = 0; i < host_in.size(); ++i) {
    host_in[i] = 0.75 + 0.125 * static_cast<double>(i % 13);
  }
  auto in_up = apps::toDevice<double>(dev, host_in);
  auto out_up = apps::zeroDevice<double>(dev, map ? kRows * trip : kRows);
  EXPECT_TRUE(in_up.isOk() && out_up.isOk());
  const GlobalSpan<double> in = in_up.value();
  const GlobalSpan<double> out = out_up.value();

  dsl::LaunchSpec spec;
  spec.numTeams = 2;
  spec.threadsPerTeam = 64;
  spec.teamsMode = ExecMode::kSPMD;
  spec.parallelMode = ExecMode::kSPMD;
  spec.simdlen = shape.group;
  spec.hostWorkers = workers;
  spec.fastPath = fast;
  spec.check.mode = check ? simcheck::CheckMode::kReport
                          : simcheck::CheckMode::kOff;
  spec.profile.mode =
      profile ? simprof::ProfileMode::kOn : simprof::ProfileMode::kOff;

  auto stats = dsl::targetTeamsDistributeParallelFor(
      dev, spec, kRows, [&](OmpContext& ctx, uint64_t row) {
        if (map) {
          dsl::simd(ctx, trip,
                    dsl::convergent([in, out, row, trip](OmpContext& inner,
                                                         uint64_t k) {
                      gpusim::ThreadCtx& it = inner.gpu();
                      const double v = in.get(it, row * trip + k);
                      it.fma();
                      out.set(it, row * trip + k, v * 2.0 + 1.0);
                    }));
          return;
        }
        const double sum = dsl::simdReduceAdd(
            ctx, trip,
            dsl::convergent([in, row, trip](OmpContext& inner,
                                            uint64_t k) -> double {
              gpusim::ThreadCtx& it = inner.gpu();
              const double v = in.get(it, row * trip + k);
              it.fma();
              return v * 3.0 + 1.0;
            }));
        if (ctx.simdGroupId() == 0) out.set(ctx.gpu(), row, sum);
      });
  EXPECT_TRUE(stats.isOk()) << stats.status().toString();

  LaunchArtifacts a;
  if (stats.isOk()) a.stats = stats.value();
  if (check) a.checkReport = dev.lastCheckReport().toString();
  if (profile) a.profileTable = dev.lastProfile().table();
  a.result = apps::toHost(out);
  return a;
}

// Both loop kinds of the batched runner, on an arch whose group
// barriers are charged (testTiny) and one where syncSimdGroup's are
// free (MI100: no wavefront barrier instruction). The full matrix runs
// group 8 at trip 8; then group sizes 2, 8 and the warp (32 and 64
// lanes, so MI100 reaches lane 63 and every exchange slot) each run
// trips below, at and above (not a multiple of) the group size — idle
// lanes, one round, uneven rounds — at 1 worker, checked and profiled.
TEST(FastPathIdentityTest, ReduceMatrixBitIdentical) {
  for (ConvergentKernel kernel :
       {ConvergentKernel::kReduce, ConvergentKernel::kMap}) {
    for (const ArchSpec& arch : {ArchSpec::testTiny(), ArchSpec::amdMI100()}) {
      const std::string where =
          std::string(kernel == ConvergentKernel::kMap ? "map" : "reduce") +
          " on " + arch.name + ": ";
      const LaunchArtifacts ref =
          runConvergent(kernel, arch, FastPathMode::kOff, /*workers=*/1,
                        /*check=*/true, /*profile=*/true);
      EXPECT_EQ(ref.checkReport, "simcheck: clean") << where;
      for (FastPathMode fast : {FastPathMode::kOff, FastPathMode::kOn}) {
        for (uint32_t workers : {1u, 8u}) {
          for (bool check : {false, true}) {
            for (bool profile : {false, true}) {
              const LaunchArtifacts got =
                  runConvergent(kernel, arch, fast, workers, check, profile);
              const std::string tag =
                  where + "fast=" +
                  (fast == FastPathMode::kOn ? "on" : "off") + " workers=" +
                  std::to_string(workers) + " check=" +
                  std::to_string(check) + " profile=" +
                  std::to_string(profile);
              EXPECT_EQ(got.stats.toJson(), ref.stats.toJson()) << tag;
              EXPECT_EQ(got.result, ref.result) << tag;
              if (check) {
                EXPECT_EQ(got.checkReport, ref.checkReport) << tag;
              }
              if (profile) {
                EXPECT_EQ(got.profileTable, ref.profileTable) << tag;
              }
            }
          }
        }
      }
      for (const uint32_t group : {2u, 8u, arch.warpSize}) {
        for (const uint64_t trip : {group / 2, group, 2 * group + 1}) {
          const SimdShape shape{group, trip};
          const std::string tag = where + "group=" + std::to_string(group) +
                                  " trip=" + std::to_string(trip);
          const LaunchArtifacts off =
              runConvergent(kernel, arch, FastPathMode::kOff, 1, true, true,
                            shape);
          const LaunchArtifacts on = runConvergent(
              kernel, arch, FastPathMode::kOn, 1, true, true, shape);
          EXPECT_EQ(off.checkReport, "simcheck: clean") << tag;
          EXPECT_EQ(on.stats.toJson(), off.stats.toJson()) << tag;
          EXPECT_EQ(on.result, off.result) << tag;
          EXPECT_EQ(on.checkReport, off.checkReport) << tag;
          EXPECT_EQ(on.profileTable, off.profileTable) << tag;
        }
      }
    }
  }
}

/// One team of 64 threads, full SPMD, groups of 8 over 16 rows: row 0's
/// group leader writes in[0] with no synchronization, and every row's
/// convergent body reads it. Returns the launch's findings: the per-kind
/// counts, then every diagnostic, sorted.
std::vector<std::string> racyConvergentFindings(FastPathMode fast) {
  Device dev(ArchSpec::testTiny());
  auto in_up = apps::zeroDevice<double>(dev, 1);
  EXPECT_TRUE(in_up.isOk());
  const GlobalSpan<double> in = in_up.value();

  dsl::LaunchSpec spec;
  spec.numTeams = 1;
  spec.threadsPerTeam = 64;
  spec.teamsMode = ExecMode::kSPMD;
  spec.parallelMode = ExecMode::kSPMD;
  spec.simdlen = kInner;
  spec.hostWorkers = 1;
  spec.fastPath = fast;
  spec.check.mode = simcheck::CheckMode::kReport;
  spec.check.maxDiagnostics = 1024;  // keep every finding
  auto stats = dsl::targetTeamsDistributeParallelFor(
      dev, spec, /*tripCount=*/16, [&](OmpContext& ctx, uint64_t row) {
        if (row == 0 && ctx.isSimdGroupLeader()) in.set(ctx.gpu(), 0, 1.0);
        dsl::simd(ctx, kInner,
                  dsl::convergent([in](OmpContext& inner, uint64_t) {
                    gpusim::ThreadCtx& it = inner.gpu();
                    (void)in.get(it, 0);
                    it.fma();
                  }));
      });
  EXPECT_TRUE(stats.isOk()) << stats.status().toString();

  const simcheck::CheckReport& report = dev.lastCheckReport();
  EXPECT_EQ(report.diagnostics.size(), report.total());
  std::vector<std::string> findings;
  for (const simcheck::Diagnostic& d : report.diagnostics) {
    findings.push_back(d.toString());
  }
  std::sort(findings.begin(), findings.end());
  findings.insert(findings.begin(), report.summary());
  return findings;
}

// Race verdicts are a property of the program, not of how the host ran
// a group: the batched lanes reach simcheck through the same per-lane
// hooks, so every finding is the same with the fast path off or on.
// Only the listing order may differ: lanes on their own fibers read in
// the scheduler's wake order, interleaved across groups, while the
// batch replays a group in lane order.
TEST(FastPathIdentityTest, RacyConvergentBodyReportsIdenticalRaces) {
  const std::vector<std::string> off =
      racyConvergentFindings(FastPathMode::kOff);
  ASSERT_FALSE(off.empty());
  EXPECT_NE(off.front().find("data-race="), std::string::npos) << off.front();
  EXPECT_EQ(racyConvergentFindings(FastPathMode::kOn), off);
}

// ---------------------------------------------------------------------
// Apps corpus identity (fig9 kernels), fast path via SIMTOMP_FAST
// ---------------------------------------------------------------------

apps::CsrMatrix smallMatrix() {
  apps::CsrGenConfig gen;
  gen.numRows = 384;
  gen.numCols = 384;
  gen.meanRowLength = 8;
  gen.maxRowLength = 48;
  gen.seed = 5;
  return apps::generateCsr(gen);
}

TEST(FastPathIdentityTest, SpmvCorpusIdenticalAcrossFastAndWorkers) {
  const apps::CsrMatrix A = smallMatrix();

  for (apps::SpmvVariant variant : {apps::SpmvVariant::kThreeLevelAtomic,
                                    apps::SpmvVariant::kThreeLevelReduction}) {
    for (ExecMode parallel_mode : {ExecMode::kGeneric, ExecMode::kSPMD}) {
      apps::SpmvOptions options;
      options.variant = variant;
      options.numTeams = 8;
      options.threadsPerTeam = 64;
      options.simdlen = 8;
      options.parallelMode = parallel_mode;
      options.hostWorkers = 1;

      KernelStats ref;
      bool have_ref = false;
      for (const char* fast : {"0", "1"}) {
        for (uint32_t workers : {1u, 8u}) {
          ScopedEnv env("SIMTOMP_FAST", fast);
          options.hostWorkers = workers;
          Device dev;
          auto run = apps::runSpmv(dev, A, options);
          ASSERT_TRUE(run.isOk()) << run.status().toString();
          EXPECT_TRUE(run.value().verified);
          if (!have_ref) {
            ref = run.value().stats;
            have_ref = true;
          } else {
            EXPECT_EQ(run.value().stats.toJson(), ref.toJson())
                << "variant " << static_cast<int>(variant) << " mode "
                << static_cast<int>(parallel_mode) << " fast " << fast
                << " workers " << workers;
          }
        }
      }
    }
  }
}

TEST(FastPathIdentityTest, IdealKernelIdenticalAcrossFast) {
  const apps::IdealWorkload w = apps::generateIdeal(64, 32, 5);
  apps::IdealOptions options;
  options.numTeams = 4;
  options.threadsPerTeam = 64;
  options.simdlen = 8;

  KernelStats ref;
  bool have_ref = false;
  for (const char* fast : {"0", "1"}) {
    ScopedEnv env("SIMTOMP_FAST", fast);
    Device dev(ArchSpec::testTiny());
    auto run = apps::runIdeal(dev, w, options);
    ASSERT_TRUE(run.isOk()) << run.status().toString();
    EXPECT_TRUE(run.value().verified);
    if (!have_ref) {
      ref = run.value().stats;
      have_ref = true;
    } else {
      EXPECT_EQ(run.value().stats.toJson(), ref.toJson()) << "fast " << fast;
    }
  }
}

// ---------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------

TEST(ArenaTest, BumpAllocationAndAlignment) {
  support::Arena arena;
  auto* a = static_cast<char*>(arena.allocate(3, 1));
  auto* b = static_cast<char*>(arena.allocate(64, 64));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(arena.slabCount(), 1u);
  EXPECT_GT(arena.bytesInUse(), 0u);
}

TEST(ArenaTest, ResetRetainsCapacityAndRewinds) {
  support::Arena arena(/*slab_bytes=*/4096);
  (void)arena.allocate(3000, 8);
  (void)arena.allocate(3000, 8);  // forces a second slab
  EXPECT_GE(arena.slabCount(), 2u);
  const size_t capacity = arena.capacityBytes();
  arena.reset();
  EXPECT_EQ(arena.bytesInUse(), 0u);
  EXPECT_EQ(arena.capacityBytes(), capacity);  // slabs retained
  EXPECT_EQ(arena.resetCount(), 1u);
  // The retained slabs satisfy the same allocations without growing.
  (void)arena.allocate(3000, 8);
  (void)arena.allocate(3000, 8);
  EXPECT_EQ(arena.capacityBytes(), capacity);
}

TEST(ArenaTest, OversizedAllocationGrowsDedicatedSlab) {
  support::Arena arena(/*slab_bytes=*/4096);
  auto* p = arena.allocate(1 << 20, 16);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(arena.capacityBytes(), size_t{1} << 20);
}

TEST(ArenaTest, OwnedDestructorsRunOnResetNewestFirst) {
  support::Arena arena;
  std::vector<int> order;
  struct Probe {
    std::vector<int>* order;
    int id;
    ~Probe() { order->push_back(id); }
  };
  (void)arena.createOwned<Probe>(&order, 1);
  (void)arena.createOwned<Probe>(&order, 2);
  arena.reset();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // newest first
  EXPECT_EQ(order[1], 1);
  // reset() must not re-run destructors.
  arena.reset();
  EXPECT_EQ(order.size(), 2u);
}

TEST(ArenaTest, CreateArrayValueInitializes) {
  support::Arena arena;
  uint64_t* xs = arena.createArray<uint64_t>(257);
  for (size_t i = 0; i < 257; ++i) EXPECT_EQ(xs[i], 0u) << i;
}

TEST(ArenaTest, LeasePoolRecyclesOnSameThread) {
  support::ArenaLease::drainPoolForTest();
  support::Arena* first = nullptr;
  {
    support::ArenaLease lease;
    first = &lease.arena();
    (void)lease->allocate(1024, 8);
  }
  EXPECT_EQ(support::ArenaLease::pooledCountForTest(), 1u);
  {
    support::ArenaLease lease;
    EXPECT_EQ(&lease.arena(), first);       // recycled, not rebuilt
    EXPECT_EQ(lease->bytesInUse(), 0u);     // and reset
  }
  support::ArenaLease::drainPoolForTest();
}

// ---------------------------------------------------------------------
// Dispatcher prepare() cache
// ---------------------------------------------------------------------

TEST(DispatchPlanTest, PrepareResolvesStablePositions) {
  omprt::Dispatcher dispatcher;
  int a = 0, b = 0;
  dispatcher.registerOutlined(&a);
  dispatcher.registerOutlined(&b);
  const omprt::DispatchPlan pa = dispatcher.prepare(&a);
  const omprt::DispatchPlan pb = dispatcher.prepare(&b);
  EXPECT_TRUE(pa.known);
  EXPECT_TRUE(pb.known);
  EXPECT_EQ(pa.position, 0u);
  EXPECT_EQ(pb.position, 1u);
  // Cached lookups agree with fresh ones.
  EXPECT_EQ(dispatcher.prepare(&a).position, 0u);
  int c = 0;
  EXPECT_FALSE(dispatcher.prepare(&c).known);  // misses are not cached...
  dispatcher.registerOutlined(&c);
  EXPECT_TRUE(dispatcher.prepare(&c).known);  // ...so late hits appear
  EXPECT_EQ(dispatcher.prepare(&c).position, 2u);
}

TEST(DispatchPlanTest, ClearInvalidatesThreadCache) {
  omprt::Dispatcher dispatcher;
  int a = 0;
  dispatcher.registerOutlined(&a);
  EXPECT_TRUE(dispatcher.prepare(&a).known);  // primes the TLS cache
  dispatcher.clear();
  EXPECT_FALSE(dispatcher.prepare(&a).known)
      << "stale cache entry survived clear()";
  dispatcher.registerOutlined(&a);
  EXPECT_TRUE(dispatcher.prepare(&a).known);
}

}  // namespace
}  // namespace simtomp
