// Tests for the directive-string front-end.
#include <gtest/gtest.h>

#include "front/directive.h"
#include "simfault/fault.h"

namespace simtomp::front {
namespace {

using gpusim::ArchSpec;
using omprt::ExecMode;
using omprt::ForSchedule;

TEST(DirectiveParseTest, CombinedConstructChain) {
  auto spec = parseDirective("target teams distribute parallel for simd");
  ASSERT_TRUE(spec.isOk()) << spec.status().toString();
  EXPECT_TRUE(spec.value().hasTarget);
  EXPECT_TRUE(spec.value().hasTeams);
  EXPECT_TRUE(spec.value().hasDistribute);
  EXPECT_TRUE(spec.value().hasParallel);
  EXPECT_TRUE(spec.value().hasFor);
  EXPECT_TRUE(spec.value().hasSimd);
}

TEST(DirectiveParseTest, PragmaPrefixTolerated) {
  auto spec = parseDirective("#pragma omp target teams");
  ASSERT_TRUE(spec.isOk());
  EXPECT_TRUE(spec.value().hasTarget);
  EXPECT_TRUE(spec.value().hasTeams);
}

TEST(DirectiveParseTest, IntegerClauses) {
  auto spec = parseDirective(
      "target teams distribute parallel for simd "
      "num_teams(64) thread_limit(256) simdlen(8) device(1) collapse(2)");
  ASSERT_TRUE(spec.isOk()) << spec.status().toString();
  EXPECT_EQ(spec.value().numTeams, 64u);
  EXPECT_EQ(spec.value().threadLimit, 256u);
  EXPECT_EQ(spec.value().simdlen, 8u);
  EXPECT_EQ(spec.value().deviceNum, 1u);
  EXPECT_EQ(spec.value().collapse, 2u);
}

// A clause value beyond its field's range is an error, never a wrapped
// value: num_teams(2^32 + 32) must not launch 32 teams.
TEST(DirectiveParseTest, IntegerClauseOverflowIsRejected) {
  const auto teams = parseDirective("target teams num_teams(4294967328)");
  ASSERT_FALSE(teams.isOk());
  EXPECT_EQ(teams.status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(parseDirective("target teams num_teams(4294967295)").isOk());
}

// watchdog(2^64) must not wrap to 0, which means "watchdog off".
TEST(DirectiveParseTest, WatchdogOverflowIsRejected) {
  const auto steps =
      parseDirective("target teams watchdog(18446744073709551616)");
  ASSERT_FALSE(steps.isOk());
  EXPECT_EQ(steps.status().code(), StatusCode::kOutOfRange);
}

TEST(DirectiveParseTest, ScheduleClauses) {
  auto dynamic = parseDirective("parallel for schedule(dynamic,4)");
  ASSERT_TRUE(dynamic.isOk());
  EXPECT_TRUE(dynamic.value().hasSchedule);
  EXPECT_EQ(dynamic.value().schedule.kind, ForSchedule::kDynamic);
  EXPECT_EQ(dynamic.value().schedule.chunk, 4u);

  auto chunked = parseDirective("parallel for schedule(static)");
  ASSERT_TRUE(chunked.isOk());
  EXPECT_EQ(chunked.value().schedule.kind, ForSchedule::kStaticChunked);

  auto cyclic = parseDirective("parallel for schedule(cyclic)");
  ASSERT_TRUE(cyclic.isOk());
  EXPECT_EQ(cyclic.value().schedule.kind, ForSchedule::kStaticCyclic);
}

TEST(DirectiveParseTest, MapClauses) {
  auto spec = parseDirective(
      "target map(to: a, b) map(from: y) map(alloc: scratch)");
  ASSERT_TRUE(spec.isOk()) << spec.status().toString();
  ASSERT_EQ(spec.value().maps.size(), 4u);
  EXPECT_EQ(spec.value().maps[0].type, hostrt::MapType::kTo);
  EXPECT_EQ(spec.value().maps[0].name, "a");
  EXPECT_EQ(spec.value().maps[1].name, "b");
  EXPECT_EQ(spec.value().maps[2].type, hostrt::MapType::kFrom);
  EXPECT_EQ(spec.value().maps[2].name, "y");
  EXPECT_EQ(spec.value().maps[3].type, hostrt::MapType::kAlloc);
}

TEST(DirectiveParseTest, ReductionClause) {
  auto spec = parseDirective("parallel for simd reduction(+: sum, norm)");
  ASSERT_TRUE(spec.isOk());
  ASSERT_EQ(spec.value().reductions.size(), 2u);
  EXPECT_EQ(spec.value().reductions[0].name, "sum");
  EXPECT_EQ(spec.value().reductions[1].name, "norm");
}

TEST(DirectiveParseTest, ModeOverrideClauses) {
  auto spec = parseDirective(
      "target teams distribute parallel for simd "
      "teams_mode(generic) parallel_mode(spmd)");
  ASSERT_TRUE(spec.isOk());
  EXPECT_TRUE(spec.value().teamsModeExplicit);
  EXPECT_EQ(spec.value().teamsMode, ExecMode::kGeneric);
  EXPECT_TRUE(spec.value().parallelModeExplicit);
  EXPECT_EQ(spec.value().parallelMode, ExecMode::kSPMD);
}

TEST(DirectiveParseTest, TuneClauseNamesTheKernel) {
  auto spec = parseDirective(
      "target teams distribute parallel for simd tune(spmv_main)");
  ASSERT_TRUE(spec.isOk()) << spec.status().toString();
  EXPECT_EQ(spec.value().tuneKey, "spmv_main");
  // tune() records the key only; auto-ness is decided at lowering.
  EXPECT_FALSE(spec.value().numTeamsAuto);
  EXPECT_FALSE(spec.value().simdlenAuto);
}

TEST(DirectiveParseTest, AutoClauseArguments) {
  auto spec = parseDirective(
      "target teams distribute parallel for simd "
      "num_teams(auto) thread_limit(auto) simdlen(auto) "
      "mode(auto) parallel_mode(auto)");
  ASSERT_TRUE(spec.isOk()) << spec.status().toString();
  EXPECT_TRUE(spec.value().numTeamsAuto);
  EXPECT_TRUE(spec.value().threadLimitAuto);
  EXPECT_TRUE(spec.value().simdlenAuto);
  EXPECT_TRUE(spec.value().teamsModeAuto);
  EXPECT_TRUE(spec.value().parallelModeAuto);
  // auto is not an explicit mode override.
  EXPECT_FALSE(spec.value().teamsModeExplicit);
  EXPECT_FALSE(spec.value().parallelModeExplicit);
  EXPECT_EQ(spec.value().numTeams, 0u);
  EXPECT_EQ(spec.value().simdlen, 0u);
}

TEST(DirectiveParseTest, Errors) {
  EXPECT_FALSE(parseDirective("").isOk());
  EXPECT_FALSE(parseDirective("num_teams(4)").isOk());  // no construct
  EXPECT_FALSE(parseDirective("target frobnicate").isOk());
  EXPECT_FALSE(parseDirective("target num_teams(x)").isOk());
  EXPECT_FALSE(parseDirective("target num_teams(4").isOk());
  EXPECT_FALSE(parseDirective("target map(sideways: a)").isOk());
  EXPECT_FALSE(parseDirective("target teams collapse(3)").isOk());
  EXPECT_FALSE(parseDirective("parallel for schedule(guided)").isOk());
  EXPECT_FALSE(parseDirective("parallel reduction(*: x)").isOk());
  // Constructs after clauses are malformed.
  EXPECT_FALSE(parseDirective("target num_teams(4) teams").isOk());
  EXPECT_FALSE(parseDirective("target teams tune()").isOk());
  EXPECT_FALSE(parseDirective("target teams tune(42)").isOk());
  EXPECT_FALSE(parseDirective("target teams mode(sideways)").isOk());
}

TEST(DirectiveLowerTest, TightlyNestedInfersSpmd) {
  const ArchSpec arch = ArchSpec::nvidiaA100();
  auto spec =
      parseDirective("target teams distribute parallel for simd simdlen(8)");
  ASSERT_TRUE(spec.isOk());
  const dsl::LaunchSpec launch = spec.value().toLaunchSpec(arch);
  EXPECT_EQ(launch.teamsMode, ExecMode::kSPMD);
  EXPECT_EQ(launch.parallelMode, ExecMode::kSPMD);
  EXPECT_EQ(launch.simdlen, 8u);
}

TEST(DirectiveLowerTest, SplitConstructsInferGeneric) {
  const ArchSpec arch = ArchSpec::nvidiaA100();
  auto teams_only = parseDirective("target teams distribute");
  ASSERT_TRUE(teams_only.isOk());
  EXPECT_EQ(teams_only.value().toLaunchSpec(arch).teamsMode,
            ExecMode::kGeneric);

  auto no_simd = parseDirective("target teams distribute parallel for");
  ASSERT_TRUE(no_simd.isOk());
  const dsl::LaunchSpec launch = no_simd.value().toLaunchSpec(arch);
  EXPECT_EQ(launch.teamsMode, ExecMode::kSPMD);       // combined with parallel
  EXPECT_EQ(launch.parallelMode, ExecMode::kGeneric); // no simd attached
}

TEST(DirectiveLowerTest, ExplicitModesWin) {
  const ArchSpec arch = ArchSpec::nvidiaA100();
  auto spec = parseDirective(
      "target teams distribute parallel for simd parallel_mode(generic)");
  ASSERT_TRUE(spec.isOk());
  EXPECT_EQ(spec.value().toLaunchSpec(arch).parallelMode,
            ExecMode::kGeneric);
}

TEST(DirectiveLowerTest, DefaultsFollowArch) {
  auto spec = parseDirective("target teams distribute parallel for simd");
  ASSERT_TRUE(spec.isOk());
  const dsl::LaunchSpec nv =
      spec.value().toLaunchSpec(ArchSpec::nvidiaA100());
  EXPECT_EQ(nv.numTeams, 108u);       // default: one team per SM
  EXPECT_EQ(nv.threadsPerTeam, 128u);
  EXPECT_EQ(nv.simdlen, 32u);         // default simdlen: the warp

  const dsl::LaunchSpec amd =
      spec.value().toLaunchSpec(ArchSpec::amdMI100());
  EXPECT_EQ(amd.simdlen, 64u);
  EXPECT_EQ(amd.threadsPerTeam % 64, 0u);
}

TEST(DirectiveLowerTest, ThreadLimitRoundedToWarpMultiple) {
  auto spec = parseDirective("target teams thread_limit(100)");
  ASSERT_TRUE(spec.isOk());
  EXPECT_EQ(spec.value().toLaunchSpec(ArchSpec::nvidiaA100()).threadsPerTeam,
            128u);
}

TEST(DirectiveLowerTest, AutoClausesLowerToAutoFields) {
  const ArchSpec arch = ArchSpec::nvidiaA100();
  auto spec = parseDirective(
      "target teams distribute parallel for simd "
      "num_teams(auto) thread_limit(auto) simdlen(auto) "
      "mode(auto) parallel_mode(auto)");
  ASSERT_TRUE(spec.isOk());
  const dsl::LaunchSpec launch = spec.value().toLaunchSpec(arch);
  // Auto numeric fields lower to 0 instead of the arch defaults.
  EXPECT_EQ(launch.numTeams, 0u);
  EXPECT_EQ(launch.threadsPerTeam, 0u);
  EXPECT_EQ(launch.simdlen, 0u);
  // Auto modes keep the inferred mode as a fallback but mark the field
  // as tunable.
  EXPECT_TRUE(launch.teamsModeAuto);
  EXPECT_TRUE(launch.parallelModeAuto);
  EXPECT_EQ(launch.teamsMode, ExecMode::kSPMD);  // tightly nested fallback
}

TEST(DirectiveLowerTest, TuneKeyMakesUnspecifiedClausesAuto) {
  const ArchSpec arch = ArchSpec::nvidiaA100();
  auto spec = parseDirective(
      "target teams distribute parallel for simd tune(kern) num_teams(4)");
  ASSERT_TRUE(spec.isOk());
  const dsl::LaunchSpec launch = spec.value().toLaunchSpec(arch);
  EXPECT_EQ(launch.tuneKey, "kern");
  // Explicit clauses survive; everything else defers to the tuner.
  EXPECT_EQ(launch.numTeams, 4u);
  EXPECT_EQ(launch.threadsPerTeam, 0u);
  EXPECT_EQ(launch.simdlen, 0u);
  EXPECT_TRUE(launch.teamsModeAuto);
  EXPECT_TRUE(launch.parallelModeAuto);
}

TEST(DirectiveLowerTest, TuneKeyRespectsExplicitModes) {
  const ArchSpec arch = ArchSpec::nvidiaA100();
  auto spec = parseDirective(
      "target teams distribute parallel for simd tune(kern) "
      "mode(generic) simdlen(16)");
  ASSERT_TRUE(spec.isOk());
  const dsl::LaunchSpec launch = spec.value().toLaunchSpec(arch);
  EXPECT_EQ(launch.teamsMode, ExecMode::kGeneric);
  EXPECT_FALSE(launch.teamsModeAuto);   // pinned by the explicit clause
  EXPECT_TRUE(launch.parallelModeAuto); // still free for the tuner
  EXPECT_EQ(launch.simdlen, 16u);
}

TEST(DirectiveParseTest, FaultClauseCarriesValidatedPlan) {
  auto spec = parseDirective(
      "target teams distribute parallel for simd "
      "fault(trap:block=0:step=50:when=simd)");
  ASSERT_TRUE(spec.isOk()) << spec.status().toString();
  EXPECT_EQ(spec.value().options.fault.spec, "trap:block=0:step=50:when=simd");
  const dsl::LaunchSpec launch =
      spec.value().toLaunchSpec(ArchSpec::testTiny());
  EXPECT_EQ(launch.fault.spec, "trap:block=0:step=50:when=simd");
  EXPECT_EQ(launch.targetConfig().fault.spec,
            "trap:block=0:step=50:when=simd");
}

TEST(DirectiveParseTest, FaultClauseOffAndMultiEntry) {
  auto off = parseDirective("target teams fault(off)");
  ASSERT_TRUE(off.isOk());
  EXPECT_EQ(off.value().options.fault.spec, "off");
  auto multi =
      parseDirective("target teams fault(device_lost_pre:count=1;livelock)");
  ASSERT_TRUE(multi.isOk()) << multi.status().toString();
  EXPECT_EQ(multi.value().options.fault.spec,
            "device_lost_pre:count=1;livelock");
}

TEST(DirectiveParseTest, FaultClauseRejectsBadPlans) {
  EXPECT_FALSE(parseDirective("target teams fault()").isOk());
  EXPECT_FALSE(parseDirective("target teams fault(explode)").isOk());
  EXPECT_FALSE(parseDirective("target teams fault(trap:when=never)").isOk());
}

TEST(DirectiveParseTest, WatchdogClause) {
  auto steps = parseDirective("target teams watchdog(100000)");
  ASSERT_TRUE(steps.isOk()) << steps.status().toString();
  EXPECT_EQ(steps.value().options.watchdogSteps, 100000u);
  auto off = parseDirective("target teams watchdog(off)");
  ASSERT_TRUE(off.isOk());
  EXPECT_EQ(off.value().options.watchdogSteps, simfault::kWatchdogOff);
  auto zero = parseDirective("target teams watchdog(0)");
  ASSERT_TRUE(zero.isOk());
  EXPECT_EQ(zero.value().options.watchdogSteps, simfault::kWatchdogOff);
  EXPECT_FALSE(parseDirective("target teams watchdog(soon)").isOk());
  // Lowering carries the budget into the launch config.
  const dsl::LaunchSpec launch =
      steps.value().toLaunchSpec(ArchSpec::testTiny());
  EXPECT_EQ(launch.targetConfig().watchdogSteps, 100000u);
}

TEST(DirectiveParseTest, ProfileClause) {
  auto on = parseDirective("target teams profile(on)");
  ASSERT_TRUE(on.isOk()) << on.status().toString();
  EXPECT_EQ(on.value().options.profile.mode, simprof::ProfileMode::kOn);
  auto off = parseDirective("target teams profile(off)");
  ASSERT_TRUE(off.isOk());
  EXPECT_EQ(off.value().options.profile.mode, simprof::ProfileMode::kOff);
  auto auto_mode = parseDirective("target teams profile(auto)");
  ASSERT_TRUE(auto_mode.isOk());
  EXPECT_EQ(auto_mode.value().options.profile.mode,
            simprof::ProfileMode::kAuto);
  // Unset defaults to auto (SIMTOMP_PROF decides per launch).
  auto unset = parseDirective("target teams");
  ASSERT_TRUE(unset.isOk());
  EXPECT_EQ(unset.value().options.profile.mode, simprof::ProfileMode::kAuto);
  // Lowering carries the mode into the launch config.
  const dsl::LaunchSpec launch = on.value().toLaunchSpec(ArchSpec::testTiny());
  EXPECT_EQ(launch.profile.mode, simprof::ProfileMode::kOn);
  EXPECT_EQ(launch.targetConfig().profile.mode, simprof::ProfileMode::kOn);
}

TEST(DirectiveParseTest, ProfileClauseRejectsGarbage) {
  EXPECT_FALSE(parseDirective("target teams profile()").isOk());
  EXPECT_FALSE(parseDirective("target teams profile(loud)").isOk());
  EXPECT_FALSE(parseDirective("target teams profile(1)").isOk());
}

TEST(DirectiveEndToEndTest, ParsedSpecDrivesARealLaunch) {
  auto parsed = parseDirective(
      "target teams distribute parallel for simd "
      "num_teams(2) thread_limit(64) simdlen(8)");
  ASSERT_TRUE(parsed.isOk());
  gpusim::Device dev(ArchSpec::testTiny());
  dsl::LaunchSpec spec = parsed.value().toLaunchSpec(dev.arch());
  std::vector<int> hits(100, 0);
  auto stats = dsl::targetTeamsDistributeParallelFor(
      dev, spec, 100, [&](dsl::OmpContext& ctx, uint64_t iv) {
        if (ctx.simdGroupId() == 0) hits[iv] += 1;
      });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace simtomp::front
