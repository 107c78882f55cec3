// Unit + integration tests for simprof: construct-tree semantics, mode
// resolution, the root == KernelStats.cycles invariant, and byte-stable
// output across host worker counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include "dsl/dsl.h"
#include "gpusim/device.h"
#include "gpusim/stats.h"
#include "simprof/profile.h"

namespace simtomp::simprof {
namespace {

using gpusim::kProfileKnob;
using gpusim::resolveKnob;

// ---------------- Names and mode resolution ----------------

TEST(SimprofNamesTest, ConstructNamesUniqueAndNonEmpty) {
  std::set<std::string> seen;
  for (size_t i = 0; i < kNumConstructs; ++i) {
    const std::string name(constructName(static_cast<Construct>(i)));
    EXPECT_FALSE(name.empty()) << "construct " << i;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(SimprofNamesTest, ModeNames) {
  EXPECT_EQ(profileModeName(ProfileMode::kAuto), "auto");
  EXPECT_EQ(profileModeName(ProfileMode::kOff), "off");
  EXPECT_EQ(profileModeName(ProfileMode::kOn), "on");
}

class ProfileEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("SIMTOMP_PROF");
    if (old != nullptr) saved_ = old;
    ::unsetenv("SIMTOMP_PROF");
  }
  void TearDown() override {
    if (!saved_.empty()) {
      ::setenv("SIMTOMP_PROF", saved_.c_str(), 1);
    } else {
      ::unsetenv("SIMTOMP_PROF");
    }
  }
  std::string saved_;
};

TEST_F(ProfileEnvTest, ExplicitModeAlwaysWins) {
  ::setenv("SIMTOMP_PROF", "1", 1);
  EXPECT_EQ(resolveKnob(kProfileKnob, ProfileMode::kOff).value,
            ProfileMode::kOff);
  EXPECT_STREQ(resolveKnob(kProfileKnob, ProfileMode::kOff).source,
               "explicit");
  ::setenv("SIMTOMP_PROF", "0", 1);
  EXPECT_EQ(resolveKnob(kProfileKnob, ProfileMode::kOn).value,
            ProfileMode::kOn);
}

TEST_F(ProfileEnvTest, AutoConsultsEnv) {
  EXPECT_EQ(resolveKnob(kProfileKnob, ProfileMode::kAuto).value,
            ProfileMode::kOff);
  ::setenv("SIMTOMP_PROF", "1", 1);
  EXPECT_EQ(resolveKnob(kProfileKnob, ProfileMode::kAuto).value,
            ProfileMode::kOn);
  EXPECT_STREQ(resolveKnob(kProfileKnob, ProfileMode::kAuto).source,
               "SIMTOMP_PROF");
  ::setenv("SIMTOMP_PROF", "on", 1);
  EXPECT_EQ(resolveKnob(kProfileKnob, ProfileMode::kAuto).value,
            ProfileMode::kOn);
  ::setenv("SIMTOMP_PROF", "garbage", 1);
  EXPECT_EQ(resolveKnob(kProfileKnob, ProfileMode::kAuto).value,
            ProfileMode::kOff);
}

// ---------------- ThreadProfile tree semantics ----------------

TEST(ThreadProfileTest, NestedSpansAttributeInclusiveAndExclusive) {
  ThreadProfile prof(/*num_counters=*/4, /*capture_spans=*/false);
  // Implicit team frame opens at 0; a parallel region [10, 50) with a
  // simd loop [20, 35) inside it.
  prof.enter(Construct::kParallel, 0, 10);
  prof.enter(Construct::kSimdLoop, 8, 20);
  prof.onCharge(/*counter_id=*/2, /*cycles=*/15, /*count=*/1);
  prof.exit(35);
  prof.exit(50);
  prof.finish(60);

  const ProfileNode& team = prof.root();
  EXPECT_EQ(team.construct, Construct::kTeam);
  EXPECT_EQ(team.inclusiveCycles, 60u);
  EXPECT_EQ(team.exclusiveCycles, 60u - 40u);
  ASSERT_EQ(team.children.size(), 1u);

  const ProfileNode& parallel = team.children[0];
  EXPECT_EQ(parallel.construct, Construct::kParallel);
  EXPECT_EQ(parallel.inclusiveCycles, 40u);
  EXPECT_EQ(parallel.exclusiveCycles, 25u);
  EXPECT_EQ(parallel.visits, 1u);
  ASSERT_EQ(parallel.children.size(), 1u);

  const ProfileNode& simd = parallel.children[0];
  EXPECT_EQ(simd.construct, Construct::kSimdLoop);
  EXPECT_EQ(simd.detail, 8u);
  EXPECT_EQ(simd.inclusiveCycles, 15u);
  EXPECT_EQ(simd.exclusiveCycles, 15u);
  EXPECT_EQ(simd.busyCycles, 15u);
  ASSERT_EQ(simd.counters.size(), 4u);
  EXPECT_EQ(simd.counters[2], 1u);
}

TEST(ThreadProfileTest, RepeatVisitsAccumulateOnOneNode) {
  ThreadProfile prof(1, false);
  for (uint64_t i = 0; i < 3; ++i) {
    prof.enter(Construct::kBarrier, 0, i * 100);
    prof.exit(i * 100 + 10);
  }
  prof.finish(300);
  ASSERT_EQ(prof.root().children.size(), 1u);
  const ProfileNode& barrier = prof.root().children[0];
  EXPECT_EQ(barrier.visits, 3u);
  EXPECT_EQ(barrier.inclusiveCycles, 30u);
}

TEST(ThreadProfileTest, FinishClosesOpenFrames) {
  ThreadProfile prof(1, false);
  prof.enter(Construct::kParallel, 0, 5);
  prof.finish(25);  // parallel never exited explicitly
  ASSERT_EQ(prof.root().children.size(), 1u);
  EXPECT_EQ(prof.root().children[0].inclusiveCycles, 20u);
  EXPECT_EQ(prof.root().inclusiveCycles, 25u);
}

TEST(ThreadProfileTest, CapturesSpansWhenAsked) {
  ThreadProfile prof(1, /*capture_spans=*/true);
  prof.enter(Construct::kSimdLoop, 4, 10);
  prof.exit(30);
  prof.finish(40);
  ASSERT_EQ(prof.spans().size(), 1u);
  EXPECT_EQ(prof.spans()[0].construct, Construct::kSimdLoop);
  EXPECT_EQ(prof.spans()[0].detail, 4u);
  EXPECT_EQ(prof.spans()[0].start, 10u);
  EXPECT_EQ(prof.spans()[0].end, 30u);
}

TEST(ThreadProfileTest, NoSpansWhenCaptureOff) {
  ThreadProfile prof(1, /*capture_spans=*/false);
  prof.enter(Construct::kSimdLoop, 4, 10);
  prof.exit(30);
  prof.finish(40);
  EXPECT_TRUE(prof.spans().empty());
}

// ---------------- Merging ----------------

TEST(ProfileNodeTest, MergeAccumulatesAndKeepsChildren) {
  ThreadProfile a(2, false);
  a.enter(Construct::kParallel, 0, 0);
  a.onCharge(0, 7, 2);
  a.exit(50);
  a.finish(50);

  ThreadProfile b(2, false);
  b.enter(Construct::kParallel, 0, 10);
  b.onCharge(0, 3, 1);
  b.exit(40);
  b.finish(50);

  ProfileNode merged = a.root();
  merged.mergeFrom(b.root());
  EXPECT_EQ(merged.inclusiveCycles, 100u);
  ASSERT_EQ(merged.children.size(), 1u);
  EXPECT_EQ(merged.children[0].inclusiveCycles, 50u + 30u);
  EXPECT_EQ(merged.children[0].visits, 2u);
  EXPECT_EQ(merged.children[0].counters[0], 3u);
  EXPECT_EQ(merged.children[0].busyCycles, 10u);
}

TEST(ProfileNodeTest, SortChildrenIsCanonical) {
  ProfileNode root;
  root.findOrCreateChild(Construct::kBarrier, 0, 0);
  root.findOrCreateChild(Construct::kParallel, 0, 0);
  root.findOrCreateChild(Construct::kSimdLoop, 16, 0);
  root.findOrCreateChild(Construct::kSimdLoop, 4, 0);
  root.sortChildren();
  ASSERT_EQ(root.children.size(), 4u);
  EXPECT_EQ(root.children[0].construct, Construct::kParallel);
  EXPECT_EQ(root.children[1].construct, Construct::kSimdLoop);
  EXPECT_EQ(root.children[1].detail, 4u);
  EXPECT_EQ(root.children[2].detail, 16u);
  EXPECT_EQ(root.children[3].construct, Construct::kBarrier);
}

TEST(ProfileNodeTest, LabelIncludesSimdGroupSize) {
  ProfileNode node;
  node.construct = Construct::kSimdLoop;
  node.detail = 8;
  EXPECT_EQ(node.label(), "simd_loop@8");
  node.construct = Construct::kBarrier;
  node.detail = 0;
  EXPECT_EQ(node.label(), "barrier");
}

// ---------------- Launch integration ----------------

gpusim::KernelStats launchProfiled(gpusim::Device& dev, ProfileMode mode,
                                   uint32_t host_workers) {
  dsl::LaunchSpec spec;
  spec.numTeams = 8;
  spec.threadsPerTeam = 64;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = omprt::ExecMode::kSPMD;
  spec.simdlen = 8;
  spec.hostWorkers = host_workers;
  spec.fault.spec = "off";
  spec.profile.mode = mode;
  auto stats = dsl::targetTeamsDistributeParallelFor(
      dev, spec, 1024, [](dsl::OmpContext& ctx, uint64_t) {
        dsl::simd(ctx, 16,
                  [](dsl::OmpContext& c, uint64_t) { c.gpu().work(3); });
      });
  EXPECT_TRUE(stats.isOk()) << stats.status().toString();
  return stats.value();
}

std::string_view testCounterName(uint32_t id) {
  return gpusim::counterName(static_cast<gpusim::Counter>(id));
}

RenderOptions testRenderOptions() {
  RenderOptions opts;
  opts.counterName = &testCounterName;
  opts.laneRoundsCounter =
      static_cast<uint32_t>(gpusim::Counter::kSimdLaneRounds);
  opts.idleLaneRoundsCounter =
      static_cast<uint32_t>(gpusim::Counter::kSimdIdleLaneRounds);
  return opts;
}

TEST(LaunchProfileTest, RootInclusiveEqualsKernelStatsCycles) {
  gpusim::Device dev;
  const gpusim::KernelStats stats =
      launchProfiled(dev, ProfileMode::kOn, 1);
  const LaunchProfile& profile = dev.lastProfile();
  ASSERT_TRUE(profile.enabled);
  EXPECT_EQ(profile.root.construct, Construct::kKernel);
  EXPECT_EQ(profile.root.inclusiveCycles, stats.cycles);
  EXPECT_EQ(profile.root.exclusiveCycles, 0u);
  EXPECT_EQ(profile.root.visits, 1u);
  EXPECT_EQ(profile.rootCycles, stats.cycles);
  // The grid collapses into one merged team node, which saw every
  // construct the kernel ran.
  ASSERT_EQ(profile.root.children.size(), 1u);
  const ProfileNode& team = profile.root.children[0];
  EXPECT_EQ(team.construct, Construct::kTeam);
  EXPECT_GT(team.inclusiveCycles, 0u);
  EXPECT_FALSE(team.children.empty());
}

TEST(LaunchProfileTest, ProfilingOffLeavesProfileDisabled) {
  gpusim::Device dev;
  launchProfiled(dev, ProfileMode::kOff, 1);
  EXPECT_FALSE(dev.lastProfile().enabled);
  EXPECT_EQ(dev.lastProfileMode(), ProfileMode::kOff);
}

TEST(LaunchProfileTest, ProfilingDoesNotPerturbStats) {
  gpusim::Device dev_off;
  gpusim::Device dev_on;
  const gpusim::KernelStats off =
      launchProfiled(dev_off, ProfileMode::kOff, 1);
  const gpusim::KernelStats on = launchProfiled(dev_on, ProfileMode::kOn, 1);
  EXPECT_EQ(off.toJson(), on.toJson());
}

TEST(LaunchProfileTest, OutputByteIdenticalAcrossWorkerCounts) {
  gpusim::Device dev1;
  gpusim::Device dev8;
  const gpusim::KernelStats s1 = launchProfiled(dev1, ProfileMode::kOn, 1);
  const gpusim::KernelStats s8 = launchProfiled(dev8, ProfileMode::kOn, 8);
  EXPECT_EQ(s1.toJson(), s8.toJson());

  const RenderOptions opts = testRenderOptions();
  EXPECT_EQ(dev1.lastProfile().table(opts), dev8.lastProfile().table(opts));
  EXPECT_EQ(dev1.lastProfile().folded(), dev8.lastProfile().folded());
  std::ostringstream json1;
  std::ostringstream json8;
  dev1.lastProfile().writeJson(json1, opts);
  dev8.lastProfile().writeJson(json8, opts);
  EXPECT_EQ(json1.str(), json8.str());
}

TEST(LaunchProfileTest, TableShowsConstructsAndLaneEfficiency) {
  gpusim::Device dev;
  launchProfiled(dev, ProfileMode::kOn, 1);
  const std::string table = dev.lastProfile().table(testRenderOptions());
  EXPECT_NE(table.find("kernel"), std::string::npos);
  EXPECT_NE(table.find("team"), std::string::npos);
  EXPECT_NE(table.find("parallel"), std::string::npos);
  // The node detail is the launch's simd group size (simdlen 8), not
  // the loop's requested width.
  EXPECT_NE(table.find("simd_loop@8"), std::string::npos);
  EXPECT_NE(table.find("lane_eff="), std::string::npos);
}

TEST(LaunchProfileTest, FoldedStacksAreSortedAndRootedAtKernel) {
  gpusim::Device dev;
  launchProfiled(dev, ProfileMode::kOn, 1);
  const std::string folded = dev.lastProfile().folded();
  ASSERT_FALSE(folded.empty());
  std::istringstream lines(folded);
  std::string prev;
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    // Every stack is rooted at the kernel frame and carries a weight.
    EXPECT_EQ(line.rfind("kernel", 0) == 0 || line.rfind("kernel;", 0) == 0,
              true)
        << line;
    EXPECT_NE(line.find_last_of(' '), std::string::npos);
    EXPECT_LE(prev, line) << "folded output must be sorted";
    prev = line;
  }
}

TEST(LaunchProfileTest, WriteJsonIsValidEnoughAndDeterministic) {
  gpusim::Device dev;
  launchProfiled(dev, ProfileMode::kOn, 1);
  std::ostringstream a;
  std::ostringstream b;
  dev.lastProfile().writeJson(a, testRenderOptions());
  dev.lastProfile().writeJson(b, testRenderOptions());
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"root_cycles\""), std::string::npos);
  EXPECT_NE(a.str().find("\"construct\": \"kernel\""), std::string::npos);
}

}  // namespace
}  // namespace simtomp::simprof
