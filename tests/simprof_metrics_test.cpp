// Unit tests for the simprof metrics registry: catalog integrity,
// counter/gauge/histogram semantics, Prometheus and JSON exposition,
// and launch-path integration (metrics record even with profiling off).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <string>

#include "apps/laplace3d.h"
#include "apps/muram.h"
#include "apps/sparse_matvec.h"
#include "dsl/dsl.h"
#include "gpusim/device.h"
#include "simprof/metrics.h"

namespace simtomp::simprof {
namespace {

/// The registry is process-wide; every test starts it from zero.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::global().reset(); }
  void TearDown() override { MetricsRegistry::global().reset(); }
};

TEST(MetricsCatalogTest, NamesUniqueNonEmptyAndPrometheusLegal) {
  std::set<std::string> seen;
  for (const MetricDef& def : allMetricDefs()) {
    const std::string name(def.name);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate metric " << name;
    EXPECT_EQ(name.rfind("simtomp_", 0), 0u)
        << name << " must carry the namespace prefix";
    for (char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')
          << name << " contains illegal character " << c;
    }
    EXPECT_FALSE(std::string(def.help).empty()) << name << " needs help text";
  }
  EXPECT_EQ(allMetricDefs().size(), MetricsRegistry::kNumMetrics);
}

TEST_F(MetricsTest, CounterAddAccumulates) {
  auto& reg = MetricsRegistry::global();
  EXPECT_EQ(reg.value(metric::kLaunchesTotal), 0u);
  reg.add(metric::kLaunchesTotal);
  reg.add(metric::kLaunchesTotal, 4);
  EXPECT_EQ(reg.value(metric::kLaunchesTotal), 5u);
}

TEST_F(MetricsTest, UnknownNameIsIgnored) {
  auto& reg = MetricsRegistry::global();
  reg.add("simtomp_no_such_metric");
  reg.gaugeMax("simtomp_no_such_metric", 7);
  reg.observe("simtomp_no_such_metric", 7);
  EXPECT_EQ(reg.value("simtomp_no_such_metric"), 0u);
}

TEST_F(MetricsTest, GaugeKeepsHighWaterMark) {
  auto& reg = MetricsRegistry::global();
  reg.gaugeMax(metric::kSharingHighWaterBytes, 128);
  reg.gaugeMax(metric::kSharingHighWaterBytes, 64);
  EXPECT_EQ(reg.value(metric::kSharingHighWaterBytes), 128u);
  reg.gaugeMax(metric::kSharingHighWaterBytes, 256);
  EXPECT_EQ(reg.value(metric::kSharingHighWaterBytes), 256u);
}

TEST_F(MetricsTest, HistogramCountsSumAndBuckets) {
  auto& reg = MetricsRegistry::global();
  reg.observe(metric::kLaunchCycles, 3);      // <= 4
  reg.observe(metric::kLaunchCycles, 100);    // <= 256
  reg.observe(metric::kLaunchCycles, 1u << 30);  // beyond 4^14 -> +Inf
  EXPECT_EQ(reg.value(metric::kLaunchCycles), 3u);
  EXPECT_EQ(reg.histogramSum(metric::kLaunchCycles),
            3u + 100u + (1u << 30));

  std::ostringstream out;
  reg.writePrometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("simtomp_launch_cycles_bucket{le=\"4\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("simtomp_launch_cycles_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("simtomp_launch_cycles_count 3"), std::string::npos);
}

TEST_F(MetricsTest, PrometheusExpositionCoversTheCatalog) {
  std::ostringstream out;
  MetricsRegistry::global().writePrometheus(out);
  const std::string text = out.str();
  for (const MetricDef& def : allMetricDefs()) {
    const std::string name(def.name);
    EXPECT_NE(text.find("# HELP " + name + " "), std::string::npos) << name;
    EXPECT_NE(text.find("# TYPE " + name + " " +
                        std::string(metricTypeName(def.type))),
              std::string::npos)
        << name;
  }
}

TEST_F(MetricsTest, JsonSnapshotIsSortedAndDeterministic) {
  auto& reg = MetricsRegistry::global();
  reg.add(metric::kLaunchesTotal, 2);
  std::ostringstream a;
  std::ostringstream b;
  reg.writeJson(a);
  reg.writeJson(b);
  EXPECT_EQ(a.str(), b.str());
  // Keys appear in sorted order.
  std::istringstream lines(a.str());
  std::string prev;
  std::string line;
  while (std::getline(lines, line)) {
    const size_t open = line.find('"');
    if (open == std::string::npos) continue;
    const size_t close = line.find('"', open + 1);
    ASSERT_NE(close, std::string::npos);
    const std::string key = line.substr(open + 1, close - open - 1);
    EXPECT_LT(prev, key) << "keys must be strictly sorted";
    prev = key;
  }
  EXPECT_NE(a.str().find("\"simtomp_launches_total\": 2"), std::string::npos);
}

TEST_F(MetricsTest, ResetZeroesEverything) {
  auto& reg = MetricsRegistry::global();
  reg.add(metric::kLaunchesTotal, 3);
  reg.observe(metric::kLaunchCycles, 99);
  reg.gaugeMax(metric::kSharingHighWaterBytes, 7);
  reg.reset();
  EXPECT_EQ(reg.value(metric::kLaunchesTotal), 0u);
  EXPECT_EQ(reg.value(metric::kLaunchCycles), 0u);
  EXPECT_EQ(reg.histogramSum(metric::kLaunchCycles), 0u);
  EXPECT_EQ(reg.value(metric::kSharingHighWaterBytes), 0u);
}

TEST_F(MetricsTest, LaunchRecordsMetricsEvenWithProfilingOff) {
  auto& reg = MetricsRegistry::global();
  gpusim::Device dev;
  dsl::LaunchSpec spec;
  spec.numTeams = 2;
  spec.threadsPerTeam = 64;
  spec.simdlen = 1;
  spec.fault.spec = "off";
  spec.profile.mode = ProfileMode::kOff;
  auto stats = dsl::targetTeamsDistributeParallelFor(
      dev, spec, 128, [](dsl::OmpContext& ctx, uint64_t) {
        ctx.gpu().work(1);
      });
  ASSERT_TRUE(stats.isOk()) << stats.status().toString();
  EXPECT_EQ(reg.value(metric::kLaunchesTotal), 1u);
  EXPECT_EQ(reg.value(metric::kLaunchFailuresTotal), 0u);
  EXPECT_EQ(reg.value(metric::kLaunchCycles), 1u);
  EXPECT_EQ(reg.histogramSum(metric::kLaunchCycles), stats.value().cycles);
}

TEST_F(MetricsTest, SuccessfulLaunchesCountFiberHostWork) {
  auto& reg = MetricsRegistry::global();
  const auto launch = [](uint32_t workers, const char* fault) {
    gpusim::Device dev;
    dsl::LaunchSpec spec;
    spec.numTeams = 4;
    spec.threadsPerTeam = 64;
    spec.simdlen = 1;
    spec.hostWorkers = workers;
    spec.fault.spec = fault;
    spec.fastPath = gpusim::FastPathMode::kOff;
    return dsl::targetTeamsDistributeParallelFor(
               dev, spec, 256,
               [](dsl::OmpContext& ctx, uint64_t) { ctx.gpu().work(1); })
        .isOk();
  };
  ASSERT_TRUE(launch(1, "off"));
  const uint64_t switches = reg.value(metric::kFiberSwitchesTotal);
  EXPECT_EQ(reg.value(metric::kFibersSpawnedTotal), 4u * 64u);
  EXPECT_GE(switches, 4u * 64u) << "every fiber is switched to at least once";

  // Block-order merge: the same counts at any host worker count.
  reg.reset();
  ASSERT_TRUE(launch(4, "off"));
  EXPECT_EQ(reg.value(metric::kFiberSwitchesTotal), switches);
  EXPECT_EQ(reg.value(metric::kFibersSpawnedTotal), 4u * 64u);

  // A failed launch adds nothing.
  reg.reset();
  EXPECT_FALSE(launch(1, "trap:step=1"));
  EXPECT_EQ(reg.value(metric::kLaunchFailuresTotal), 1u);
  EXPECT_EQ(reg.value(metric::kFiberSwitchesTotal), 0u);
  EXPECT_EQ(reg.value(metric::kFibersSpawnedTotal), 0u);
}

/// Scheduler steps of generic-mode app launches, recorded at 1 and 4
/// host workers before fibers handed the processor to each other
/// directly. Any change to the fibers' round-robin order, or to what
/// counts as a step, moves these counts.
TEST_F(MetricsTest, GenericAppLaunchesTakePinnedFiberSteps) {
  auto& reg = MetricsRegistry::global();
  const apps::CsrMatrix csr = [] {
    apps::CsrGenConfig config;
    config.numRows = 512;
    config.numCols = 512;
    return apps::generateCsr(config);
  }();
  const apps::Laplace3dWorkload grid = apps::generateLaplace3d(18, 5);
  const apps::MuramWorkload muram = apps::generateMuram(12, 10, 16, 5);
  struct Case {
    const char* name;
    std::function<Result<apps::AppRunResult>(gpusim::Device&)> run;
    uint64_t steps;
  };
  const Case cases[] = {
      {"spmv 3-level generic",
       [&](gpusim::Device& dev) {
         apps::SpmvOptions options;
         options.numTeams = 8;
         options.threadsPerTeam = 128;
         return apps::runSpmv(dev, csr, options);
       },
       14704},
      {"spmv 2-level",
       [&](gpusim::Device& dev) {
         apps::SpmvOptions options;
         options.variant = apps::SpmvVariant::kTwoLevel;
         options.numTeams = 8;
         options.threadsPerTeam = 64;
         return apps::runSpmv(dev, csr, options);
       },
       98808},
      {"laplace3d generic simd",
       [&](gpusim::Device& dev) {
         apps::Laplace3dOptions options;
         options.mode = apps::SimdMode::kGenericSimd;
         options.numTeams = 4;
         options.threadsPerTeam = 64;
         return apps::runLaplace3d(dev, grid, options);
       },
       24816},
      {"muram interpol generic simd",
       [&](gpusim::Device& dev) {
         apps::MuramOptions options;
         options.mode = apps::SimdMode::kGenericSimd;
         options.numTeams = 4;
         options.threadsPerTeam = 64;
         return apps::runMuramInterpol(dev, muram, options);
       },
       12168},
  };
  // laplace3d and muram take their worker count from the environment.
  struct RestoreWorkersEnv {
    const char* saved = std::getenv("SIMTOMP_HOST_WORKERS");
    std::string value = saved != nullptr ? saved : "";
    ~RestoreWorkersEnv() {
      if (saved != nullptr) {
        ::setenv("SIMTOMP_HOST_WORKERS", value.c_str(), 1);
      } else {
        ::unsetenv("SIMTOMP_HOST_WORKERS");
      }
    }
  } restore;
  for (const char* workers : {"1", "4"}) {
    ASSERT_EQ(::setenv("SIMTOMP_HOST_WORKERS", workers, 1), 0);
    for (const Case& c : cases) {
      reg.reset();
      gpusim::Device dev;
      const auto result = c.run(dev);
      ASSERT_TRUE(result.isOk()) << c.name << ": "
                                 << result.status().toString();
      EXPECT_TRUE(result.value().verified) << c.name;
      EXPECT_EQ(reg.value(metric::kFiberSwitchesTotal), c.steps)
          << c.name << " at " << workers << " host workers";
    }
  }
}

}  // namespace
}  // namespace simtomp::simprof
