// DeviceManager precedence for the one launch input that still has a
// manager level, the autotuner:
//
//   explicit launch config  >  setDefaultTuner on the manager  >  env var
//
// Each level is observed via DeviceManager::effectiveConfig — no kernel
// is launched. The per-launch knobs have no manager level (explicit >
// env > built-in); tests/knobs_test.cpp covers them row by row.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "hostrt/device_manager.h"
#include "simtune/cache.h"
#include "simtune/tuner.h"
#include "scoped_env.h"

namespace simtomp::hostrt {
namespace {

using gpusim::ArchSpec;

// The seeded tuning-cache entries: the env-level cache file answers
// simdlen 16, the manager-level tuner answers 8, the explicit config
// pins 4, and the heuristic fallback is 1 — four distinguishable
// outcomes for one observed field.
simtune::TuneKey precKey() {
  return simtune::makeTuneKey("prec", ArchSpec::testTiny(),
                              gpusim::CostModel{}, /*tripCount=*/0);
}

simtune::TunedShape shapeWithSimdlen(uint32_t simdlen) {
  simtune::TunedShape shape;
  shape.candidate.simdlen = simdlen;
  return shape;
}

std::string envCachePath() {
  return ::testing::TempDir() + "hostrt_defaults_tune_cache.json";
}

/// Parameterized by channel name; the tuner is the only channel left.
class DefaultsPrecedenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { std::remove(envCachePath().c_str()); }

 private:
  test::ScopedEnv tune_{"SIMTOMP_TUNE", nullptr};
  test::ScopedEnv tune_cache_{"SIMTOMP_TUNE_CACHE", nullptr};
};

TEST_P(DefaultsPrecedenceTest, ExplicitBeatsManagerBeatsEnv) {
  omprt::TargetConfig base;
  base.tuneKey = "prec";
  base.simdlen = 0;  // the one auto field the cache entries decide
  const auto simdlen = [](DeviceManager& mgr, const omprt::TargetConfig& c) {
    return mgr.effectiveConfig(0, c).simdlen;
  };
  const auto setManager = [](DeviceManager& mgr) {
    auto cache = std::make_shared<simtune::TuneCache>();
    cache->insert(precKey(), shapeWithSimdlen(8));
    mgr.setDefaultTuner(std::make_shared<simtune::Tuner>(std::move(cache)),
                        simtune::TuneMode::kCache);
  };

  // Stage 1: nothing set — heuristics, tuning is off.
  {
    DeviceManager mgr({ArchSpec::testTiny()});
    EXPECT_EQ(simdlen(mgr, base), 1u) << "stage: default";
  }
  // Stage 2: only the env var — env wins. Cache-mode tuning answering
  // from a cache file: the zero-code-changes SIMTOMP_TUNE=1 path (lazy
  // default tuner).
  simtune::TuneCache file(envCachePath());
  file.insert(precKey(), shapeWithSimdlen(16));
  ASSERT_TRUE(file.save().isOk());
  ::setenv("SIMTOMP_TUNE", "1", 1);
  ::setenv("SIMTOMP_TUNE_CACHE", envCachePath().c_str(), 1);
  {
    DeviceManager mgr({ArchSpec::testTiny()});
    EXPECT_EQ(simdlen(mgr, base), 16u) << "stage: env";
  }
  // Stage 3: env + manager default — the manager default wins.
  {
    DeviceManager mgr({ArchSpec::testTiny()});
    setManager(mgr);
    EXPECT_EQ(simdlen(mgr, base), 8u) << "stage: manager";
  }
  // Stage 4: env + manager + explicit config — explicit wins.
  {
    DeviceManager mgr({ArchSpec::testTiny()});
    setManager(mgr);
    omprt::TargetConfig config = base;
    config.simdlen = 4;
    EXPECT_EQ(simdlen(mgr, config), 4u) << "stage: explicit";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllChannels, DefaultsPrecedenceTest, ::testing::Values("tuner"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

// setDefaultTuner and setDefaultResilience are documented safe against
// concurrent launches: their fields sit behind a shared_mutex. This
// test hammers both setters from one thread while another launches;
// it is part of the TSan suite (hostrt_ matches the stage-2 regex in
// tools/ci.sh), where a missing lock shows up as a reported race
// rather than a flaky value.
TEST(DefaultsConcurrencyTest, SettersDoNotRaceLaunches) {
  DeviceManager mgr({ArchSpec::testTiny()});
  std::atomic<bool> stop{false};
  std::thread setter([&] {
    uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      mgr.setDefaultTuner(std::make_shared<simtune::Tuner>(),
                          (i % 2) != 0u ? simtune::TuneMode::kCache
                                        : simtune::TuneMode::kOff);
      mgr.setDefaultResilience({}, (i % 2) != 0u
                                       ? simfault::ResilienceMode::kOn
                                       : simfault::ResilienceMode::kOff);
      ++i;
    }
  });
  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kSPMD;
  config.numTeams = 1;
  config.threadsPerTeam = 64;
  config.tuneKey = "race";  // with an auto field: the default_tuner_ read
  config.simdlen = 0;
  config.fault.spec = "off";
  for (int i = 0; i < 50; ++i) {
    const auto stats = mgr.launchOn(0, config, [](omprt::OmpContext&) {});
    EXPECT_TRUE(stats.isOk());
    (void)mgr.effectiveConfig(0, config);
  }
  stop.store(true, std::memory_order_relaxed);
  setter.join();
}

}  // namespace
}  // namespace simtomp::hostrt
