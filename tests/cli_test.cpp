// The simtomp command line: the table-driven flag parser (tools/cli.h)
// and smoke runs of the binary's exit codes.
#include "cli.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace simtomp::cli {
namespace {

/// Parse `args` against `flags`, returning the status.
Status parse(std::initializer_list<std::string_view> args,
             std::span<const Flag> flags) {
  std::vector<std::string_view> positional;
  return parseFlags(std::span(args.begin(), args.size()), flags, positional);
}

TEST(CliFlags, SpaceAndEqualsFormsAreTheSame) {
  uint32_t a = 0, b = 0;
  std::string path_a, path_b;
  const Flag flags_a[] = {{"--budget", &a}, {"--cache", &path_a}};
  const Flag flags_b[] = {{"--budget", &b}, {"--cache", &path_b}};
  ASSERT_TRUE(parse({"--budget", "12", "--cache", "x=y"}, flags_a).isOk());
  ASSERT_TRUE(parse({"--budget=12", "--cache=x=y"}, flags_b).isOk());
  EXPECT_EQ(a, 12u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(path_a, "x=y");
  EXPECT_EQ(path_a, path_b);
}

TEST(CliFlags, WorkersParseThroughTheKnobRow) {
  uint32_t workers = 0;
  const Flag flags[] = {
      {"--workers", KnobFlag<uint32_t>{&gpusim::kHostWorkersKnob, &workers}}};
  for (const char* bad : {"0", "66", "-1", "abc", ""}) {
    EXPECT_FALSE(parse({"--workers", bad}, flags).isOk()) << bad;
    EXPECT_EQ(workers, 0u) << bad;
  }
  ASSERT_TRUE(parse({"--workers", "1"}, flags).isOk());
  EXPECT_EQ(workers, 1u);
  ASSERT_TRUE(parse({"--workers=65"}, flags).isOk());
  EXPECT_EQ(workers, 65u);
}

TEST(CliFlags, CheckParsesThroughTheKnobRow) {
  simcheck::CheckMode mode = simcheck::CheckMode::kAuto;
  const Flag flags[] = {
      {"--check",
       KnobFlag<simcheck::CheckMode>{&gpusim::kCheckKnob, &mode}}};
  ASSERT_TRUE(parse({"--check", "report"}, flags).isOk());
  EXPECT_EQ(mode, simcheck::CheckMode::kReport);
  ASSERT_TRUE(parse({"--check=2"}, flags).isOk());
  EXPECT_EQ(mode, simcheck::CheckMode::kFatal);
  // The env path falls back to the built-in value; the CLI refuses.
  EXPECT_FALSE(parse({"--check", "banana"}, flags).isOk());
  EXPECT_EQ(mode, simcheck::CheckMode::kFatal);
  EXPECT_FALSE(parse({"--check"}, flags).isOk());
}

TEST(CliFlags, IntegersAreBoundedByTheirDestination) {
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  uint64_t capped = 0;
  const Flag flags[] = {
      {"--u32", &u32}, {"--u64", &u64}, {"--capped", &capped, 10}};
  EXPECT_EQ(parse({"--u32", "4294967296"}, flags).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(parse({"--u32", "4294967295"}, flags).isOk());
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_FALSE(parse({"--u32", "abc"}, flags).isOk());
  EXPECT_FALSE(parse({"--u32", "-1"}, flags).isOk());
  EXPECT_FALSE(parse({"--u64", "18446744073709551616"}, flags).isOk());
  ASSERT_TRUE(parse({"--u64", "18446744073709551615"}, flags).isOk());
  EXPECT_EQ(u64, UINT64_MAX);
  EXPECT_FALSE(parse({"--capped", "11"}, flags).isOk());
  ASSERT_TRUE(parse({"--capped", "10"}, flags).isOk());
  EXPECT_EQ(capped, 10u);
}

TEST(CliFlags, SeedRangesAreHalfOpen) {
  const Result<SeedRange> one = parseSeedRange("5");
  ASSERT_TRUE(one.isOk());
  EXPECT_EQ(one.value().begin, 5u);
  EXPECT_EQ(one.value().end, 6u);
  const Result<SeedRange> span = parseSeedRange("0..17");
  ASSERT_TRUE(span.isOk());
  EXPECT_EQ(span.value().begin, 0u);
  EXPECT_EQ(span.value().end, 17u);
  EXPECT_FALSE(parseSeedRange("9..3").isOk());
  EXPECT_FALSE(parseSeedRange("18446744073709551616").isOk());
  EXPECT_FALSE(parseSeedRange("0..99999999999999999999").isOk());
  // A bare N means [N, N+1), which must not wrap.
  EXPECT_FALSE(parseSeedRange("18446744073709551615").isOk());
  EXPECT_FALSE(parseSeedRange("..4").isOk());
  EXPECT_FALSE(parseSeedRange("1..").isOk());

  SeedRange seeds;
  const Flag flags[] = {{"--seeds", &seeds}};
  ASSERT_TRUE(parse({"--seeds=0..8"}, flags).isOk());
  EXPECT_EQ(seeds.end, 8u);
  ASSERT_TRUE(parse({"--seeds", "3..3"}, flags).isOk());
  EXPECT_EQ(seeds.begin, seeds.end);
}

TEST(CliFlags, UnknownFlagsAndMissingValuesAreRejected) {
  bool on = false;
  std::string out;
  const Flag flags[] = {{"--on", &on}, {"--out", &out}};
  EXPECT_FALSE(parse({"--bogus"}, flags).isOk());
  EXPECT_FALSE(parse({"--out"}, flags).isOk());
  EXPECT_FALSE(parse({"--on=1"}, flags).isOk());
  EXPECT_FALSE(on);
  ASSERT_TRUE(parse({"--on"}, flags).isOk());
  EXPECT_TRUE(on);
}

TEST(CliFlags, PositionalsKeepTheirOrder) {
  bool csv = false;
  const Flag flags[] = {{"--csv", &csv}};
  std::vector<std::string_view> positional;
  const std::initializer_list<std::string_view> args = {"ideal", "--csv",
                                                        "target teams", "-"};
  ASSERT_TRUE(
      parseFlags(std::span(args.begin(), args.size()), flags, positional)
          .isOk());
  ASSERT_EQ(positional.size(), 3u);
  EXPECT_EQ(positional[0], "ideal");
  EXPECT_EQ(positional[1], "target teams");
  EXPECT_EQ(positional[2], "-");
  EXPECT_TRUE(csv);
}

struct Ran {
  int exitCode = -1;
  std::string out;
};

/// Run the simtomp binary with `args` (shell words), capturing stdout.
Ran runCli(const std::string& args) {
  const std::string command =
      std::string(SIMTOMP_CLI_BINARY) + " " + args + " 2>/dev/null";
  Ran ran;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return ran;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    ran.out.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) ran.exitCode = WEXITSTATUS(status);
  return ran;
}

TEST(CliSmoke, NoArgumentsIsAUsageError) { EXPECT_EQ(runCli("").exitCode, 2); }

TEST(CliSmoke, HostileNumbersAreUsageErrors) {
  for (const char* args :
       {"info occupancy abc", "info occupancy -1", "info groups -1",
        "info occupancy 64 4294967296", "serve gen --tenants 4294967297",
        "serve gen --tenants abc", "fuzz run --seeds=9..3",
        "serve chaos --seeds=4..4", "fault matrix --workers 0",
        "tune tune --workers 66", "info --check", "run ideal"}) {
    EXPECT_EQ(runCli(args).exitCode, 2) << args;
  }
}

TEST(CliSmoke, RunPrintsTheCsvRow) {
  const Ran ran = runCli(
      "run ideal 'target teams distribute parallel for simd simdlen(8)' "
      "--csv");
  EXPECT_EQ(ran.exitCode, 0);
  EXPECT_EQ(ran.out.rfind("kernel,cycles,", 0), 0u) << ran.out;
  EXPECT_NE(ran.out.find("\nideal,"), std::string::npos) << ran.out;
}

}  // namespace
}  // namespace simtomp::cli
