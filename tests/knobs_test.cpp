// The environment-knob table (gpusim/knobs.h), checked row by row.
//
// Every row honours one contract: the built-in value when its env var
// is unset; every accepted spelling; the built-in again for
// unrecognized text; an explicit request beats the env; and resolving
// a resolved value returns it unchanged. The cases are written out per
// row, independently of the table, and a table word no case covers
// fails the row.
//
// LaunchOptionsTest.NoKnobMovesModeledStats states the other half of
// the knob contract, "none of them changes modeled cycles", once for
// every knob: each host-knob setting is a row, each tunable app a
// column, and every cell's KernelStats must equal the all-off anchor's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/tunable.h"
#include "gpusim/device.h"
#include "gpusim/knobs.h"
#include "gpusim/trace.h"
#include "scoped_env.h"
#include "simtune/tuner.h"

namespace simtomp::gpusim {
namespace {

struct Outcome {
  std::string value;  ///< knobValueName of the resolved value
  std::string source;
};

/// One table row, type-erased to value names so one parameterized
/// suite covers knobs of every value type.
struct Row {
  const char* env = nullptr;
  std::string builtin;
  /// Env text -> the value name it must resolve to.
  std::vector<std::pair<std::string, std::string>> accepted;
  /// Env texts that must resolve to the built-in value.
  std::vector<std::string> unrecognized;
  /// An env text and the explicit request (by name) that must beat it.
  std::string envToBeat;
  std::string explicitValue;
  /// Resolve the auto request, or the explicit one; `twice` resolves
  /// the result again.
  std::function<Outcome(bool explicit_request, bool twice)> resolve;
  std::vector<std::string> tableWords;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.env; }

template <typename T>
Row makeRow(const Knob<T>& knob, std::string builtin,
            std::vector<std::pair<std::string, std::string>> accepted,
            std::vector<std::string> unrecognized, std::string env_to_beat,
            T explicit_value) {
  Row row{knob.env, std::move(builtin), std::move(accepted),
          std::move(unrecognized), std::move(env_to_beat),
          knobValueName(knob, explicit_value), nullptr, {}};
  row.resolve = [&knob, explicit_value](bool explicit_request, bool twice) {
    Resolved<T> r =
        resolveKnob(knob, explicit_request ? explicit_value : knob.autoValue);
    if (twice) r = resolveKnob(knob, r.value);
    return Outcome{knobValueName(knob, r.value), r.source};
  };
  for (const Spelling<T>& s : knob.spellings) row.tableWords.push_back(s.text);
  return row;
}

std::string hardwareWorkers() {
  return std::to_string(std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<Row> knobRows() {
  using simcheck::CheckMode;
  using simfault::ResilienceMode;
  using simprof::ProfileMode;
  return {
      makeRow<uint32_t>(kHostWorkersKnob, hardwareWorkers(),
                        {{"1", "1"}, {"5", "5"}, {"65", "65"}},
                        {"banana", "0", "66", "-3", "18446744073709551617"},
                        "16", 3),
      makeRow(kCheckKnob, "off",
              {{"0", "off"}, {"off", "off"}, {"1", "report"},
               {"on", "report"}, {"report", "report"}, {"2", "fatal"},
               {"fatal", "fatal"}},
              {"bogus", "ON", ""}, "fatal", CheckMode::kReport),
      makeRow<std::string>(kFaultKnob, "off",
                           {{"0", "off"}, {"none", "off"}, {"off", "off"},
                            {"trap:block=1", "trap:block=1"}},
                           {""}, "trap", "livelock"),
      makeRow<uint64_t>(kWatchdogKnob, "67108864",
                        {{"0", "off"}, {"off", "off"}, {"12345", "12345"}},
                        {"soon", "-1", "18446744073709551616"}, "off", 777),
      makeRow(kProfileKnob, "off",
              {{"0", "off"}, {"off", "off"}, {"OFF", "off"}, {"1", "on"},
               {"on", "on"}, {"On", "on"}},
              {"garbage", "2"}, "1", ProfileMode::kOff),
      makeRow(kFastPathKnob, "on",
              {{"0", "off"}, {"false", "off"}, {"off", "off"}, {"1", "on"},
               {"true", "on"}, {"on", "on"}},
              {"maybe", "OFF"}, "on", FastPathMode::kOff),
      makeRow(kTuneKnob, "off",
              {{"0", "off"}, {"off", "off"}, {"1", "cache"}, {"on", "cache"},
               {"cache", "cache"}, {"2", "tune"}, {"tune", "tune"},
               {"trial", "tune"}},
              {"bogus"}, "2", TuneMode::kOff),
      makeRow(kResilienceKnob, "on",
              {{"0", "off"}, {"off", "off"}, {"1", "on"}, {"on", "on"}},
              {"maybe", "OFF"}, "on", ResilienceMode::kOff),
  };
}

/// Clears every table env var for the test and restores it afterwards.
class KnobEnvTest {
 protected:
  KnobEnvTest() {
    for (const Row& row : knobRows()) saved_.emplace_back(row.env, nullptr);
  }

 private:
  std::deque<test::ScopedEnv> saved_;
};

class KnobTableTest : public KnobEnvTest,
                      public ::testing::TestWithParam<Row> {
 protected:
  Outcome resolveAuto() const { return GetParam().resolve(false, false); }
};

TEST_P(KnobTableTest, UnsetEnvGivesTheBuiltin) {
  const Outcome r = resolveAuto();
  EXPECT_EQ(r.value, GetParam().builtin);
  EXPECT_EQ(r.source, "default");
}

TEST_P(KnobTableTest, EveryAcceptedSpelling) {
  const Row& row = GetParam();
  for (const auto& [text, want] : row.accepted) {
    ::setenv(row.env, text.c_str(), 1);
    const Outcome r = resolveAuto();
    EXPECT_EQ(r.value, want) << row.env << "=" << text;
    EXPECT_EQ(r.source, row.env);
  }
  for (const std::string& word : row.tableWords) {
    EXPECT_TRUE(std::any_of(row.accepted.begin(), row.accepted.end(),
                            [&word](const auto& c) { return c.first == word; }))
        << row.env << " table word '" << word << "' has no test case";
  }
}

TEST_P(KnobTableTest, UnrecognizedTextGivesTheBuiltin) {
  const Row& row = GetParam();
  for (const std::string& text : row.unrecognized) {
    ::setenv(row.env, text.c_str(), 1);
    const Outcome r = resolveAuto();
    EXPECT_EQ(r.value, row.builtin) << row.env << "=" << text;
    EXPECT_EQ(r.source, row.env);
  }
}

TEST_P(KnobTableTest, ExplicitBeatsEnv) {
  const Row& row = GetParam();
  ::setenv(row.env, row.envToBeat.c_str(), 1);
  ASSERT_NE(resolveAuto().value, row.explicitValue);
  const Outcome r = row.resolve(true, false);
  EXPECT_EQ(r.value, row.explicitValue);
  EXPECT_EQ(r.source, "explicit");
}

TEST_P(KnobTableTest, ResolveIsIdempotent) {
  const Row& row = GetParam();
  std::vector<std::string> envs;
  for (const auto& c : row.accepted) envs.push_back(c.first);
  envs.insert(envs.end(), row.unrecognized.begin(), row.unrecognized.end());
  ::unsetenv(row.env);
  for (size_t i = 0; i <= envs.size(); ++i) {
    const Outcome twice = row.resolve(false, true);
    EXPECT_EQ(twice.value, resolveAuto().value) << row.env << " case " << i;
    EXPECT_EQ(twice.source, "explicit");
    if (i < envs.size()) ::setenv(row.env, envs[i].c_str(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(KnobTable, KnobTableTest,
                         ::testing::ValuesIn(knobRows()),
                         [](const ::testing::TestParamInfo<Row>& param_info) {
                           return std::string(param_info.param.env);
                         });

class LaunchOptionsTest : public KnobEnvTest, public ::testing::Test {};

TEST_F(LaunchOptionsTest, ResolvesEveryKnobOnceForAllLayers) {
  ::setenv("SIMTOMP_WATCHDOG", "off", 1);
  LaunchOptions options;
  options.check.maxDiagnostics = 3;
  options.fault.simdActive = true;
  const LaunchOptions once = resolveLaunchOptions(options);
  EXPECT_EQ(std::to_string(once.hostWorkers), hardwareWorkers());
  EXPECT_EQ(once.check.mode, simcheck::CheckMode::kOff);
  EXPECT_EQ(once.check.maxDiagnostics, 3u);
  EXPECT_EQ(once.fault.spec, "off");
  EXPECT_TRUE(once.fault.simdActive);
  EXPECT_EQ(once.watchdogSteps, simfault::kWatchdogOff);
  EXPECT_EQ(once.profile.mode, simprof::ProfileMode::kOff);
  EXPECT_EQ(once.fastPath, FastPathMode::kOn);

  // A later layer resolving again sees explicit values everywhere, so
  // an env change in between cannot alter them.
  for (const char* var : {"SIMTOMP_HOST_WORKERS", "SIMTOMP_CHECK",
                          "SIMTOMP_FAULT", "SIMTOMP_WATCHDOG",
                          "SIMTOMP_PROF", "SIMTOMP_FAST"}) {
    ::setenv(var, "2", 1);
  }
  const LaunchOptions twice = resolveLaunchOptions(once);
  EXPECT_EQ(twice.hostWorkers, once.hostWorkers);
  EXPECT_EQ(twice.check.mode, once.check.mode);
  EXPECT_EQ(twice.fault.spec, once.fault.spec);
  EXPECT_EQ(twice.watchdogSteps, once.watchdogSteps);
  EXPECT_EQ(twice.profile.mode, once.profile.mode);
  EXPECT_EQ(twice.fastPath, once.fastPath);
}

/// One host-knob setting of the modeled-stats contract: env values
/// set on top of the anchor, and whether the trial device records a
/// deep trace.
struct KnobFlip {
  const char* name;
  std::vector<std::pair<const char*, const char*>> env;
  bool traced = false;
};

/// The anchor pins every launch knob off, so a knob set for the whole
/// test process (SIMTOMP_CHECK=1 in ci.sh stage 3) cannot leak in.
const std::vector<std::pair<const char*, const char*>> kAnchorEnv = {
    {"SIMTOMP_HOST_WORKERS", "1"}, {"SIMTOMP_CHECK", "0"},
    {"SIMTOMP_FAULT", "off"},      {"SIMTOMP_WATCHDOG", "off"},
    {"SIMTOMP_PROF", "0"},         {"SIMTOMP_FAST", "0"},
};

/// Each row flips one knob. The last arms a trap on block 0 at step
/// 2^40, which never fires but sends that block down the lane-per-fiber
/// path while the others take the fast path.
const std::vector<KnobFlip> kKnobFlips = {
    {"host workers 8", {{"SIMTOMP_HOST_WORKERS", "8"}}},
    {"check report", {{"SIMTOMP_CHECK", "report"}}},
    {"profile on", {{"SIMTOMP_PROF", "1"}}},
    {"profile on + trace recorder", {{"SIMTOMP_PROF", "1"}}, true},
    {"watchdog default budget", {{"SIMTOMP_WATCHDOG", nullptr}}},
    {"fast path on", {{"SIMTOMP_FAST", "1"}}},
    {"fast path on + armed fault",
     {{"SIMTOMP_FAST", "1"}, {"SIMTOMP_FAULT", "trap:step=1099511627776"}}},
};

/// The app's first SPMD-parallel SIMD candidate, so the fast-path rows
/// change the path taken; apps whose parallel region is only generic
/// give their first SIMD candidate.
simtune::TuneCandidate simdCandidate(const apps::TunableApp& app,
                                     const ArchSpec& arch) {
  const std::vector<simtune::TuneCandidate> all = app.axes.enumerate(arch);
  const auto simd = [](const simtune::TuneCandidate& c) {
    return c.simdlen > 1;
  };
  for (const simtune::TuneCandidate& c : all) {
    if (simd(c) && c.parallelMode == omprt::ExecMode::kSPMD) return c;
  }
  const auto first = std::find_if(all.begin(), all.end(), simd);
  EXPECT_NE(first, all.end()) << app.name << " has no SIMD candidate";
  return first != all.end() ? *first : app.handPicked;
}

/// Run one trial (which verifies the app's output) under the current
/// env and return its KernelStats as JSON, or the error.
std::string trialStats(const apps::TunableApp& app, const ArchSpec& arch,
                       const simtune::TuneCandidate& candidate, bool traced) {
  Device device(arch);
  TraceRecorder recorder;
  if (traced) device.setTraceRecorder(&recorder);
  const Result<KernelStats> stats = app.trial(device, candidate);
  if (!stats.isOk()) return stats.status().toString();
  if (traced) {
    EXPECT_GT(recorder.events().size(), 0u) << app.name;
  }
  return stats.value().toJson();
}

TEST_F(LaunchOptionsTest, NoKnobMovesModeledStats) {
  const ArchSpec arch = ArchSpec::nvidiaA100();
  std::deque<test::ScopedEnv> anchor;
  for (const auto& [var, value] : kAnchorEnv) anchor.emplace_back(var, value);
  for (const apps::TunableApp& app : apps::tunableCorpus(arch, true)) {
    for (const simtune::TuneCandidate& candidate :
         {app.handPicked, simdCandidate(app, arch)}) {
      const std::string want = trialStats(app, arch, candidate, false);
      ASSERT_EQ(want.rfind("{", 0), 0u) << app.name << ": " << want;
      for (const KnobFlip& flip : kKnobFlips) {
        std::deque<test::ScopedEnv> env;
        for (const auto& [var, value] : flip.env) env.emplace_back(var, value);
        EXPECT_EQ(trialStats(app, arch, candidate, flip.traced), want)
            << app.name << " " << candidate.toString() << ", " << flip.name;
      }
    }
  }
}

TEST(KnobDocsTest, AcceptedValuesRenderFromTheTable) {
  EXPECT_EQ(knobAcceptedValues(kCheckKnob), "0/off, 1/on/report, 2/fatal");
  EXPECT_EQ(knobAcceptedValues(kFaultKnob), "0/none/off, <plan>");
  EXPECT_EQ(knobAcceptedValues(kHostWorkersKnob), "1..65");
  EXPECT_EQ(knobValues(kTuneKnob),
            (std::vector<TuneMode>{TuneMode::kOff, TuneMode::kCache,
                                   TuneMode::kTune}));
}

}  // namespace
}  // namespace simtomp::gpusim
