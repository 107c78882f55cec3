// Unit tests for src/support: Status/Result, Rng, LaneMask, logging.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "support/lane_mask.h"
#include "support/log.h"
#include "support/parse.h"
#include "support/rng.h"
#include "support/status.h"

namespace simtomp {
namespace {

// ---------------- Status / Result ----------------

TEST(ParseUnsignedTest, AcceptsDigitsUpToTheBound) {
  EXPECT_EQ(parseUnsigned("0").value(), 0u);
  EXPECT_EQ(parseUnsigned("18446744073709551615").value(), UINT64_MAX);
  EXPECT_EQ(parseUnsigned("4294967295", UINT32_MAX).value(), UINT32_MAX);
  EXPECT_EQ(parseUnsigned("65", 65).value(), 65u);
}

TEST(ParseUnsignedTest, RejectsOverflowInsteadOfWrapping) {
  EXPECT_EQ(parseUnsigned("18446744073709551616").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(parseUnsigned("4294967328", UINT32_MAX).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(parseUnsigned("66", 65).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(parseUnsigned("7", 5).status().code(), StatusCode::kOutOfRange);
}

TEST(ParseUnsignedTest, RejectsNonDigits) {
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "0x10", "abc"}) {
    EXPECT_EQ(parseUnsigned(text).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.isOk());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.toString(), "OK");
}

TEST(StatusTest, FactoryFunctionsCarryCodeAndMessage) {
  EXPECT_EQ(Status::invalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::failedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::outOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::resourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::internal("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  const Status s = Status::invalidArgument("bad thing");
  EXPECT_NE(s.toString().find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(s.toString().find("bad thing"), std::string::npos);
}

TEST(StatusTest, CodeNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    names.insert(statusCodeName(static_cast<StatusCode>(c)));
  }
  EXPECT_EQ(names.size(), 7u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.isOk());
  EXPECT_TRUE(r.status().isOk());
  // Read by move: at -O3, GCC 12 otherwise misreports the variant's
  // destructor as reading an uninitialized string.
  EXPECT_EQ(std::move(r).value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::outOfRange("too big"));
  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------- Rng ----------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng a(9);
  const uint64_t first = a.next();
  a.next();
  a.reseed(9);
  EXPECT_EQ(a.next(), first);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.nextBelow(17), 17u);
  }
  EXPECT_EQ(rng.nextBelow(0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(8);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.nextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.nextInRange(5, 5), 5);
  EXPECT_EQ(rng.nextInRange(5, 4), 5);  // degenerate range clamps to lo
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.nextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, SkewedDrawStaysInBounds) {
  Rng rng(6);
  uint64_t sum = 0;
  constexpr int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    const uint32_t v = rng.nextSkewed(8, 64);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 64u);
    sum += v;
  }
  const double mean = static_cast<double>(sum) / kDraws;
  // Clamping shifts the mean a bit; it must stay in a sane band.
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 14.0);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------------- LaneMask ----------------

TEST(LaneMaskTest, FullMaskWidths) {
  EXPECT_EQ(fullMask(0), 0u);
  EXPECT_EQ(fullMask(1), 0x1u);
  EXPECT_EQ(fullMask(8), 0xFFu);
  EXPECT_EQ(fullMask(32), 0xFFFFFFFFu);
  EXPECT_EQ(fullMask(64), ~LaneMask{0});
}

TEST(LaneMaskTest, RangeMask) {
  EXPECT_EQ(rangeMask(0, 4), 0xFu);
  EXPECT_EQ(rangeMask(4, 4), 0xF0u);
  EXPECT_EQ(rangeMask(28, 4), 0xF0000000u);
  EXPECT_EQ(rangeMask(60, 4), 0xF000000000000000u);
}

TEST(LaneMaskTest, LaneInAndPopcount) {
  const LaneMask m = rangeMask(8, 8);
  EXPECT_TRUE(laneIn(m, 8));
  EXPECT_TRUE(laneIn(m, 15));
  EXPECT_FALSE(laneIn(m, 7));
  EXPECT_FALSE(laneIn(m, 16));
  EXPECT_EQ(popcount(m), 8);
}

TEST(LaneMaskTest, LowestLane) {
  EXPECT_EQ(lowestLane(0), -1);
  EXPECT_EQ(lowestLane(0x1), 0);
  EXPECT_EQ(lowestLane(rangeMask(12, 3)), 12);
}

TEST(LaneMaskTest, MaskToString) {
  EXPECT_EQ(maskToString(0b0101, 4), "0b0101");
  EXPECT_EQ(maskToString(rangeMask(2, 2), 6), "0b001100");
}

/// Property sweep: group masks tile a warp exactly.
class GroupMaskProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(GroupMaskProperty, GroupsTileWarpDisjointly) {
  const unsigned group = GetParam();
  const unsigned warp = 32;
  LaneMask seen = 0;
  for (unsigned base = 0; base < warp; base += group) {
    const LaneMask m = rangeMask(base, group);
    EXPECT_EQ(seen & m, 0u) << "overlap at base " << base;
    seen |= m;
    EXPECT_EQ(popcount(m), static_cast<int>(group));
  }
  EXPECT_EQ(seen, fullMask(warp));
}

INSTANTIATE_TEST_SUITE_P(AllGroupSizes, GroupMaskProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// ---------------- Logging ----------------

TEST(LogTest, ParseLevels) {
  EXPECT_EQ(parseLogLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(parseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(parseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(parseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(parseLogLevel("nonsense"), LogLevel::kWarn);
}

TEST(LogTest, SetAndGetLevel) {
  const LogLevel before = logLevel();
  setLogLevel(LogLevel::kError);
  EXPECT_EQ(logLevel(), LogLevel::kError);
  setLogLevel(before);
}

TEST(LogTest, ParseLevelGarbageFallsBackToWarn) {
  EXPECT_EQ(parseLogLevel(""), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel(" "), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("debugx"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("1"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("warn "), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("\ttrace"), LogLevel::kWarn);
}

TEST(LogTest, ParseLevelIsCaseInsensitive) {
  EXPECT_EQ(parseLogLevel("TRACE"), LogLevel::kTrace);
  EXPECT_EQ(parseLogLevel("tRaCe"), LogLevel::kTrace);
  EXPECT_EQ(parseLogLevel("ErRoR"), LogLevel::kError);
  EXPECT_EQ(parseLogLevel("OFF"), LogLevel::kOff);
}

TEST(LogTest, EnvVarSetsLevel) {
  const LogLevel before = logLevel();
  ::setenv("SIMTOMP_LOG", "debug", 1);
  reinitLogFromEnvForTest();
  EXPECT_EQ(logLevel(), LogLevel::kDebug);
  ::setenv("SIMTOMP_LOG", "not-a-level", 1);
  reinitLogFromEnvForTest();
  EXPECT_EQ(logLevel(), LogLevel::kWarn);
  ::unsetenv("SIMTOMP_LOG");
  setLogLevel(before);
}

TEST(LogTest, SetLogFileRedirectsAndRestores) {
  const std::string path = ::testing::TempDir() + "simtomp_log_test.txt";
  std::remove(path.c_str());
  ASSERT_TRUE(setLogFile(path));
  const LogLevel before = logLevel();
  setLogLevel(LogLevel::kError);
  SIMTOMP_ERROR("log-file marker %d", 42);
  setLogLevel(before);
  ASSERT_TRUE(setLogFile(""));  // back to stderr

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("log-file marker 42"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LogTest, UnopenableLogFileKeepsStderr) {
  EXPECT_FALSE(setLogFile("/nonexistent-dir/nope/log.txt"));
}

TEST(LogTest, EnvVarSetsLogFile) {
  const LogLevel before = logLevel();
  const std::string path = ::testing::TempDir() + "simtomp_log_env_test.txt";
  std::remove(path.c_str());
  ::setenv("SIMTOMP_LOG_FILE", path.c_str(), 1);
  ::setenv("SIMTOMP_LOG", "error", 1);
  reinitLogFromEnvForTest();
  SIMTOMP_ERROR("env log-file marker");
  ASSERT_TRUE(setLogFile(""));
  ::unsetenv("SIMTOMP_LOG_FILE");
  ::unsetenv("SIMTOMP_LOG");
  setLogLevel(before);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("env log-file marker"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simtomp
