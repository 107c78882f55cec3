// Unit and integration tests for simtune: the persistent tuning cache
// (roundtrip, determinism, eviction, key invalidation), the tuner's two
// search strategies, its determinism contract across host-worker
// counts, and the end-to-end auto-field resolution through
// hostrt::DeviceManager.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/tunable.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "hostrt/device_manager.h"
#include "omprt/target.h"
#include "simprof/metrics.h"
#include "simtune/cache.h"
#include "simtune/tuner.h"

namespace simtomp::simtune {
namespace {

using gpusim::ArchSpec;
using gpusim::CostModel;
using gpusim::kTuneKnob;
using gpusim::resolveKnob;
using gpusim::Resolved;

std::string tempPath(const char* name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TunedShape sampleShape() {
  TunedShape shape;
  shape.candidate = {omprt::ExecMode::kGeneric, omprt::ExecMode::kSPMD, 64,
                     256, 8, 4};
  shape.cycles = 12345;
  shape.trials = 17;
  return shape;
}

// ---------------- Cache keys ----------------

TEST(TuneKeyTest, TripBucketIsLog2Band) {
  EXPECT_EQ(tripBucket(0), 0u);   // unknown
  EXPECT_EQ(tripBucket(1), 1u);
  EXPECT_EQ(tripBucket(2), 2u);
  EXPECT_EQ(tripBucket(3), 2u);
  EXPECT_EQ(tripBucket(4), 3u);
  EXPECT_EQ(tripBucket(4095), 12u);
  EXPECT_EQ(tripBucket(4096), 13u);
}

TEST(TuneKeyTest, ArchFingerprintSeparatesPresets) {
  const std::string a100 = archFingerprint(ArchSpec::nvidiaA100());
  const std::string mi100 = archFingerprint(ArchSpec::amdMI100());
  const std::string tiny = archFingerprint(ArchSpec::testTiny());
  EXPECT_NE(a100, mi100);
  EXPECT_NE(a100, tiny);
  EXPECT_NE(mi100, tiny);
  // Any modeled field must invalidate: warp barriers flip AMD fallback.
  ArchSpec tweaked = ArchSpec::nvidiaA100();
  tweaked.hasWarpLevelBarrier = false;
  EXPECT_NE(archFingerprint(tweaked), a100);
}

TEST(TuneKeyTest, CostFingerprintCoversVersionAndConstants) {
  const CostModel base{};
  const std::string fp = costFingerprint(base);
  EXPECT_EQ(fp.rfind("v1:", 0), 0u) << fp;  // records kCostModelVersion
  // Recalibrating any constant must produce a different fingerprint —
  // a cached decision ranked under other costs would silently lie.
  CostModel recalibrated = base;
  recalibrated.atomicRmw += 1;
  EXPECT_NE(costFingerprint(recalibrated), fp);
  CostModel scaled = base.scaled(2);
  EXPECT_NE(costFingerprint(scaled), fp);
}

TEST(TuneKeyTest, CompositeKeySeparatesBuckets) {
  const ArchSpec arch = ArchSpec::testTiny();
  const CostModel cost{};
  const TuneKey small = makeTuneKey("k", arch, cost, 1000);
  const TuneKey large = makeTuneKey("k", arch, cost, 1'000'000);
  EXPECT_NE(small.composite(), large.composite());
  EXPECT_EQ(small.composite(),
            makeTuneKey("k", arch, cost, 1023).composite());
}

// ---------------- Cache persistence ----------------

TEST(TuneCacheTest, RoundTripsThroughFile) {
  const std::string path = tempPath("simtune_roundtrip.json");
  const TuneKey key =
      makeTuneKey("kern", ArchSpec::testTiny(), CostModel{}, 512);
  {
    TuneCache cache(path);
    cache.insert(key, sampleShape());
    ASSERT_TRUE(cache.save().isOk());
  }
  TuneCache reloaded(path);
  ASSERT_TRUE(reloaded.load().isOk());
  const auto hit = reloaded.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, sampleShape());
  std::remove(path.c_str());
}

TEST(TuneCacheTest, KeysWithControlBytesRoundTrip) {
  // The saved key is escaped by the one JSON escaper; the loader must
  // read back every escape it writes.
  std::string kernel = "k\"\\";
  for (int c = 0; c < 0x20; ++c) kernel += static_cast<char>(c);
  const TuneKey key =
      makeTuneKey(kernel, ArchSpec::testTiny(), CostModel{}, 64);
  const std::string path = tempPath("simtune_control_bytes.json");
  {
    TuneCache cache(path);
    cache.insert(key, sampleShape());
    ASSERT_TRUE(cache.save().isOk());
  }
  const std::string text = slurp(path);
  for (const char c : text) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control byte " << static_cast<int>(c) << " in the file";
  }
  TuneCache reloaded(path);
  ASSERT_TRUE(reloaded.load().isOk());
  const auto hit = reloaded.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, sampleShape());
  std::remove(path.c_str());
}

TEST(TuneCacheTest, SavesAreByteIdenticalRegardlessOfInsertOrder) {
  const ArchSpec arch = ArchSpec::testTiny();
  const TuneKey a = makeTuneKey("alpha", arch, CostModel{}, 100);
  const TuneKey b = makeTuneKey("beta", arch, CostModel{}, 200);
  const std::string p1 = tempPath("simtune_det1.json");
  const std::string p2 = tempPath("simtune_det2.json");
  {
    TuneCache cache(p1);
    cache.insert(a, sampleShape());
    cache.insert(b, TunedShape{});
    ASSERT_TRUE(cache.save().isOk());
  }
  {
    TuneCache cache(p2);
    cache.insert(b, TunedShape{});  // reversed insert order
    cache.insert(a, sampleShape());
    ASSERT_TRUE(cache.save().isOk());
  }
  EXPECT_EQ(slurp(p1), slurp(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(TuneCacheTest, MissingFileIsEmptyMalformedIsError) {
  TuneCache missing(tempPath("simtune_nonexistent.json"));
  EXPECT_TRUE(missing.load().isOk());
  EXPECT_EQ(missing.size(), 0u);

  const std::string path = tempPath("simtune_malformed.json");
  {
    std::ofstream out(path);
    out << "{\"simtune_cache\": 1, \"entries\": [nonsense";
  }
  TuneCache malformed(path);
  malformed.insert(makeTuneKey("k", ArchSpec::testTiny(), CostModel{}, 1),
                   sampleShape());
  EXPECT_FALSE(malformed.load().isOk());
  EXPECT_EQ(malformed.size(), 1u);  // failed load leaves entries alone
  std::remove(path.c_str());
}

TEST(TuneCacheTest, LoadRejectsOutOfRangeNumbers) {
  // Each number must fit the field it is stored in: a uint32_t field
  // refuses 2^32 + 108 rather than wrapping to 108, and no field takes
  // a number wider than 64 bits.
  const auto load = [](const std::string& numbers) {
    const std::string path = tempPath("simtune_range.json");
    {
      std::ofstream out(path);
      out << "{\"simtune_cache\": 1, \"entries\": [{\"key\": \"k\", "
             "\"teamsMode\": \"spmd\", \"parallelMode\": \"spmd\", "
          << numbers << "}]}";
    }
    TuneCache cache(path);
    const Status status = cache.load();
    std::remove(path.c_str());
    return status;
  };
  const std::string rest =
      ", \"scheduleChunk\": 18446744073709551615, \"cycles\": 1, "
      "\"trials\": 4294967295";
  EXPECT_TRUE(load("\"numTeams\": 4294967295, \"threadsPerTeam\": 128, "
                   "\"simdlen\": 8" + rest)
                  .isOk());
  EXPECT_FALSE(load("\"numTeams\": 4294967404, \"threadsPerTeam\": 128, "
                    "\"simdlen\": 8" + rest)
                   .isOk());
  EXPECT_FALSE(load("\"numTeams\": 32, \"threadsPerTeam\": 128, "
                    "\"simdlen\": 99999999999999999999999" + rest)
                   .isOk());
  EXPECT_FALSE(load("\"numTeams\": 32, \"threadsPerTeam\": 128, "
                    "\"simdlen\": 8, \"scheduleChunk\": "
                    "18446744073709551616")
                   .isOk());
}

TEST(TuneCacheTest, EvictByKernelPrefix) {
  const ArchSpec arch = ArchSpec::testTiny();
  TuneCache cache;
  cache.insert(makeTuneKey("spmv", arch, CostModel{}, 1), TunedShape{});
  cache.insert(makeTuneKey("spmv", arch, CostModel{}, 4096), TunedShape{});
  cache.insert(makeTuneKey("su3", arch, CostModel{}, 1), TunedShape{});
  EXPECT_EQ(cache.evict("spmv"), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evict(""), 1u);  // empty prefix = everything
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------- Mode resolution ----------------

class TuneModeEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("SIMTOMP_TUNE");
    saved_ = old != nullptr ? std::optional<std::string>(old) : std::nullopt;
  }
  void TearDown() override {
    if (saved_.has_value()) {
      ::setenv("SIMTOMP_TUNE", saved_->c_str(), 1);
    } else {
      ::unsetenv("SIMTOMP_TUNE");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST_F(TuneModeEnvTest, AutoConsultsEnv) {
  ::unsetenv("SIMTOMP_TUNE");
  EXPECT_EQ(resolveKnob(kTuneKnob, TuneMode::kAuto).value, TuneMode::kOff);
  for (const char* v : {"1", "on", "cache"}) {
    ::setenv("SIMTOMP_TUNE", v, 1);
    const Resolved<TuneMode> r = resolveKnob(kTuneKnob, TuneMode::kAuto);
    EXPECT_EQ(r.value, TuneMode::kCache) << v;
    EXPECT_STREQ(r.source, "SIMTOMP_TUNE");
  }
  for (const char* v : {"2", "tune", "trial"}) {
    ::setenv("SIMTOMP_TUNE", v, 1);
    EXPECT_EQ(resolveKnob(kTuneKnob, TuneMode::kAuto).value, TuneMode::kTune)
        << v;
  }
  for (const char* v : {"0", "off", "bogus"}) {
    ::setenv("SIMTOMP_TUNE", v, 1);
    EXPECT_EQ(resolveKnob(kTuneKnob, TuneMode::kAuto).value, TuneMode::kOff)
        << v;
  }
}

TEST_F(TuneModeEnvTest, ExplicitRequestIgnoresEnv) {
  ::setenv("SIMTOMP_TUNE", "2", 1);
  const Resolved<TuneMode> r = resolveKnob(kTuneKnob, TuneMode::kOff);
  EXPECT_EQ(r.value, TuneMode::kOff);
  EXPECT_STREQ(r.source, "explicit");
}

// ---------------- Searching the corpus ----------------

class CorpusTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kWorkers = 4;

  const ArchSpec arch_ = ArchSpec::nvidiaA100();
  const CostModel cost_{};

  Result<TuneOutcome> tuneApp(const apps::TunableApp& app,
                              TuneStrategy strategy, uint32_t workers,
                              std::shared_ptr<TuneCache> cache = nullptr) {
    Tuner tuner(cache != nullptr ? std::move(cache)
                                 : std::make_shared<TuneCache>());
    TuneRequest request;
    request.strategy = strategy;
    request.hostWorkers = workers;
    request.tripCount = app.tripCount;
    return tuner.tune(app.name, arch_, cost_, app.axes, app.trial, request);
  }
};

TEST_F(CorpusTest, ExhaustiveNeverLosesToHandPicked) {
  for (const apps::TunableApp& app :
       apps::tunableCorpus(arch_, /*small=*/true)) {
    // The hand-picked default is a member of the axes, so it was one of
    // the evaluated candidates; the winner can only match or beat it.
    const auto result =
        tuneApp(app, TuneStrategy::kExhaustive, kWorkers);
    ASSERT_TRUE(result.isOk()) << app.name;
    uint64_t hand_picked_cycles = 0;
    for (const auto& [candidate, cycles] : result.value().evaluated) {
      if (candidate == app.handPicked) hand_picked_cycles = cycles;
    }
    ASSERT_GT(hand_picked_cycles, 0u)
        << app.name << ": hand-picked candidate not in the search space";
    EXPECT_LE(result.value().shape.cycles, hand_picked_cycles) << app.name;
  }
}

TEST_F(CorpusTest, HillClimbAgreesWithExhaustiveOnSmallCorpus) {
  for (const apps::TunableApp& app :
       apps::tunableCorpus(arch_, /*small=*/true)) {
    const auto exhaustive =
        tuneApp(app, TuneStrategy::kExhaustive, kWorkers);
    const auto hill = tuneApp(app, TuneStrategy::kHillClimb, kWorkers);
    ASSERT_TRUE(exhaustive.isOk() && hill.isOk()) << app.name;
    EXPECT_EQ(exhaustive.value().shape.cycles, hill.value().shape.cycles)
        << app.name;
    EXPECT_LE(hill.value().trialsRun, exhaustive.value().trialsRun)
        << app.name << ": hill-climb spent more trials than exhaustive";
  }
}

TEST_F(CorpusTest, WinnerIsIdenticalForAnyWorkerCount) {
  const apps::TunableApp app = apps::tunableSpmv(arch_, /*small=*/true);
  for (const TuneStrategy strategy :
       {TuneStrategy::kExhaustive, TuneStrategy::kHillClimb}) {
    const auto serial = tuneApp(app, strategy, 1);
    const auto parallel = tuneApp(app, strategy, 8);
    ASSERT_TRUE(serial.isOk() && parallel.isOk());
    EXPECT_EQ(serial.value().shape, parallel.value().shape)
        << tuneStrategyName(strategy);
  }
}

TEST_F(CorpusTest, WarmCacheRunsZeroTrials) {
  const apps::TunableApp app = apps::tunableIdeal(arch_, /*small=*/true);
  auto cache = std::make_shared<TuneCache>();
  Tuner tuner(cache);
  TuneRequest request;
  request.tripCount = app.tripCount;
  request.hostWorkers = kWorkers;
  const auto cold =
      tuner.tune(app.name, arch_, cost_, app.axes, app.trial, request);
  ASSERT_TRUE(cold.isOk());
  EXPECT_FALSE(cold.value().fromCache);
  EXPECT_GT(tuner.trialLaunches(), 0u);

  const uint64_t launches_after_cold = tuner.trialLaunches();
  const auto warm =
      tuner.tune(app.name, arch_, cost_, app.axes, app.trial, request);
  ASSERT_TRUE(warm.isOk());
  EXPECT_TRUE(warm.value().fromCache);
  EXPECT_EQ(warm.value().shape, cold.value().shape);
  EXPECT_EQ(warm.value().trialsRun, 0u);
  EXPECT_EQ(tuner.trialLaunches(), launches_after_cold);
  EXPECT_EQ(tuner.cacheHits(), 1u);
}

TEST_F(CorpusTest, TuningTwiceProducesByteIdenticalCacheFiles) {
  const std::string p1 = tempPath("simtune_corpus1.json");
  const std::string p2 = tempPath("simtune_corpus2.json");
  for (const std::string& path : {p1, p2}) {
    auto cache = std::make_shared<TuneCache>(path);
    Tuner tuner(cache);
    for (const apps::TunableApp& app :
         {apps::tunableSu3(arch_, true), apps::tunableIdeal(arch_, true)}) {
      TuneRequest request;
      request.tripCount = app.tripCount;
      // Different worker counts per run: the file must not care.
      request.hostWorkers = path == p1 ? 1 : 8;
      ASSERT_TRUE(
          tuner.tune(app.name, arch_, cost_, app.axes, app.trial, request)
              .isOk());
    }
  }
  EXPECT_EQ(slurp(p1), slurp(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST_F(CorpusTest, BudgetCapsTrialLaunches) {
  const apps::TunableApp app = apps::tunableSpmv(arch_, /*small=*/true);
  Tuner tuner(std::make_shared<TuneCache>());
  TuneRequest request;
  request.maxTrials = 3;
  request.tripCount = app.tripCount;
  request.hostWorkers = kWorkers;
  const auto result =
      tuner.tune(app.name, arch_, cost_, app.axes, app.trial, request);
  ASSERT_TRUE(result.isOk());
  EXPECT_LE(result.value().trialsRun, 3u);
  EXPECT_LE(tuner.trialLaunches(), 3u);
}

TEST_F(CorpusTest, CheckedTrialsStillTune) {
  // Tuning composes with simcheck: the corpus apps resolve their
  // checking mode from SIMTOMP_CHECK inside each trial launch, so a
  // fatal-mode sweep sanitizes every candidate — and, the apps being
  // race-free, must land on the same winner as an unchecked sweep.
  const apps::TunableApp app = apps::tunableSu3(arch_, /*small=*/true);
  TuneRequest request;
  request.tripCount = app.tripCount;
  request.hostWorkers = kWorkers;

  Tuner plain(std::make_shared<TuneCache>());
  const auto base =
      plain.tune(app.name, arch_, cost_, app.axes, app.trial, request);

  const char* old = std::getenv("SIMTOMP_CHECK");
  ::setenv("SIMTOMP_CHECK", "2", 1);  // fatal: a report fails the trial
  Tuner checked(std::make_shared<TuneCache>());
  const auto under_check =
      checked.tune(app.name, arch_, cost_, app.axes, app.trial, request);
  if (old != nullptr) {
    ::setenv("SIMTOMP_CHECK", old, 1);
  } else {
    ::unsetenv("SIMTOMP_CHECK");
  }

  ASSERT_TRUE(base.isOk() && under_check.isOk());
  EXPECT_EQ(base.value().shape, under_check.value().shape);
}

TEST(TunerTest, AllTrialsFailingSurfacesError) {
  Tuner tuner(std::make_shared<TuneCache>());
  TuneAxes axes = TuneAxes::defaults(ArchSpec::testTiny());
  const TrialFn failing = [](gpusim::Device&, const TuneCandidate&)
      -> Result<gpusim::KernelStats> {
    return Status::internal("trial exploded");
  };
  TuneRequest request;
  request.maxTrials = 4;
  const auto result = tuner.tune("boom", ArchSpec::testTiny(), CostModel{},
                                 axes, failing, request);
  EXPECT_FALSE(result.isOk());
}

TEST(TunerTest, EmptyLaunchSpaceIsInvalidArgument) {
  Tuner tuner(std::make_shared<TuneCache>());
  TuneAxes axes;  // all axes empty
  const TrialFn trial = [](gpusim::Device&, const TuneCandidate&)
      -> Result<gpusim::KernelStats> { return gpusim::KernelStats{}; };
  EXPECT_FALSE(tuner
                   .tune("empty", ArchSpec::testTiny(), CostModel{}, axes,
                         trial, TuneRequest{})
                   .isOk());
}

// ---------------- Candidate enumeration ----------------

TEST(TuneAxesTest, EnumerateDropsInvalidCombinations) {
  ArchSpec arch = ArchSpec::amdMI100();
  ASSERT_FALSE(arch.hasWarpLevelBarrier);
  TuneAxes axes;
  axes.teamsModes = {omprt::ExecMode::kSPMD};
  axes.parallelModes = {omprt::ExecMode::kGeneric};
  axes.numTeams = {8};
  axes.threadsPerTeam = {arch.warpSize, arch.warpSize + 1};
  axes.simdlens = {1, 2};
  axes.scheduleChunks = {0};
  const auto all = axes.enumerate(arch);
  // Non-warp-multiple widths are dropped, and generic-SIMD simdlen 2
  // would be degraded to 1 by the runtime (no warp barriers) so only
  // the simdlen-1 candidate survives.
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].threadsPerTeam, arch.warpSize);
  EXPECT_EQ(all[0].simdlen, 1u);
}

TEST(TuneAxesTest, DefaultsEnumerateNonEmptyForPresets) {
  for (const ArchSpec& arch :
       {ArchSpec::nvidiaA100(), ArchSpec::amdMI100(), ArchSpec::testTiny()}) {
    const auto all = TuneAxes::defaults(arch).enumerate(arch);
    EXPECT_FALSE(all.empty()) << arch.name;
  }
}

// ---------------- End-to-end through DeviceManager ----------------

TEST(DeviceManagerTuningTest, SyncLaunchTunesThenHitsCache) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  auto cache = std::make_shared<TuneCache>();
  auto tuner = std::make_shared<Tuner>(cache);
  mgr.setDefaultTuner(tuner, TuneMode::kTune);

  omprt::TargetConfig config;
  config.tuneKey = "e2e";
  config.numTeams = 2;
  config.threadsPerTeam = 0;  // auto: let the tuner decide
  config.simdlen = 0;         // auto
  config.tripCount = 64;

  const omprt::TargetRegionFn region = [](omprt::OmpContext& ctx) {
    ctx.gpu().work(5);
  };
  const auto first = mgr.launchOn(0, config, region);
  ASSERT_TRUE(first.isOk()) << first.status().toString();
  EXPECT_GT(tuner->trialLaunches(), 0u);
  EXPECT_EQ(cache->size(), 1u);

  const uint64_t launches_after_first = tuner->trialLaunches();
  const auto second = mgr.launchOn(0, config, region);
  ASSERT_TRUE(second.isOk());
  // Warm cache: the relaunch resolved without a single extra trial.
  EXPECT_EQ(tuner->trialLaunches(), launches_after_first);
  EXPECT_GE(tuner->cacheHits(), 1u);

  // The observable effective config now carries the cached winner.
  const omprt::TargetConfig effective = mgr.effectiveConfig(0, config);
  EXPECT_NE(effective.threadsPerTeam, 0u);
  EXPECT_NE(effective.simdlen, 0u);
  EXPECT_EQ(effective.numTeams, 2u);  // explicit field untouched
}

TEST(DeviceManagerTuningTest, FaultedSyncLaunchTunesFaultFreeThenRecovers) {
  // A trial measures a shape, so the search runs without the launch's
  // fault plan: the transient device loss fires once, on the tuned
  // launch's first attempt, and the retry rung heals it.
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  auto cache = std::make_shared<TuneCache>();
  auto tuner = std::make_shared<Tuner>(cache);
  mgr.setDefaultTuner(tuner, TuneMode::kTune);
  mgr.setDefaultResilience(simfault::ResiliencePolicy{},
                           simfault::ResilienceMode::kOn);

  omprt::TargetConfig config;
  config.tuneKey = "e2e_faulted";
  config.numTeams = 2;
  config.threadsPerTeam = 0;  // auto: let the tuner decide
  config.simdlen = 0;         // auto
  config.tripCount = 64;
  config.fault.spec = "device_lost_pre:count=1";

  auto& metrics = simprof::MetricsRegistry::global();
  const uint64_t injected_before =
      metrics.value(simprof::metric::kFaultInjectionsTotal);
  const auto result = mgr.launchOn(0, config, [](omprt::OmpContext& ctx) {
    ctx.gpu().work(5);
  });
  ASSERT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_GT(tuner->trialLaunches(), 1u);
  EXPECT_EQ(cache->size(), 1u);
  EXPECT_EQ(metrics.value(simprof::metric::kFaultInjectionsTotal) -
                injected_before,
            1u);

  const simfault::ResilienceReport& report = mgr.lastResilienceReport(0);
  ASSERT_EQ(report.attempts.size(), 2u) << report.toString();
  EXPECT_EQ(report.attempts[0].stage, simfault::RecoveryStage::kInitial);
  EXPECT_EQ(report.attempts[0].code, StatusCode::kUnavailable);
  EXPECT_EQ(report.attempts[1].stage, simfault::RecoveryStage::kRetry);
  EXPECT_EQ(report.attempts[1].code, StatusCode::kOk);
  EXPECT_TRUE(report.recovered);
}

TEST(DeviceManagerTuningTest, AsyncLaunchNeverRunsTrials) {
  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  auto tuner = std::make_shared<Tuner>(std::make_shared<TuneCache>());
  mgr.setDefaultTuner(tuner, TuneMode::kTune);

  omprt::TargetConfig config;
  config.tuneKey = "e2e_async";
  config.numTeams = 1;
  config.threadsPerTeam = 0;
  config.tripCount = 32;

  auto future = mgr.launchOnAsync(0, config,
                                  [](omprt::OmpContext& ctx) {
                                    ctx.gpu().work(1);
                                  });
  ASSERT_TRUE(future.get().isOk());
  // Deferred launches degrade kTune to cache-only: heuristics filled
  // the auto fields, no trial launch happened.
  EXPECT_EQ(tuner->trialLaunches(), 0u);
}

}  // namespace
}  // namespace simtomp::simtune
