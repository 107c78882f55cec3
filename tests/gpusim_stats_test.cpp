// Tests for the counter name table and KernelStats serialization: the
// table must cover every counter exactly once (simtomp info counters,
// the profiler and the JSON writer all render from it), and toJson must
// round-trip every counter by name.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gpusim/stats.h"

namespace simtomp::gpusim {
namespace {

TEST(CounterNameTest, EveryCounterHasUniqueNonEmptyName) {
  std::set<std::string> seen;
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::string name(counterName(c));
    EXPECT_FALSE(name.empty()) << "counter " << i;
    EXPECT_EQ(name.find(' '), std::string::npos)
        << name << " must be identifier-like (used as a JSON/CSV key)";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(CounterNameTest, EveryCounterHasDescription) {
  std::set<std::string> seen;
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::string help(counterDescription(c));
    EXPECT_FALSE(help.empty()) << counterName(c);
    EXPECT_TRUE(seen.insert(help).second)
        << "duplicate description for " << counterName(c);
  }
}

TEST(CounterNameTest, FromNameInvertsName) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    EXPECT_EQ(counterFromName(counterName(c)), c);
  }
  EXPECT_EQ(counterFromName("no_such_counter"), Counter::kCount);
  EXPECT_EQ(counterFromName(""), Counter::kCount);
}

TEST(KernelStatsJsonTest, RoundTripsEveryCounterByName) {
  KernelStats stats;
  stats.cycles = 12345;
  stats.busyCycles = 999;
  stats.numBlocks = 8;
  // Give every counter a distinct nonzero value so a swapped or dropped
  // key cannot cancel out.
  for (size_t i = 0; i < kNumCounters; ++i) {
    stats.counters.values[i] = 100 + i;
  }
  const std::string json = stats.toJson();
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    std::string key = "\"";
    key += counterName(c);
    key += "\": ";
    key += std::to_string(100 + i);
    EXPECT_NE(json.find(key), std::string::npos)
        << "missing or wrong: " << key;
    // And the name parses back to the same counter, so a consumer can
    // rebuild the CounterSet from the JSON keys alone.
    EXPECT_EQ(counterFromName(counterName(c)), c);
  }
  EXPECT_NE(json.find("\"cycles\": 12345"), std::string::npos);
  EXPECT_NE(json.find("\"busy_cycles\": 999"), std::string::npos);
}

TEST(KernelStatsJsonTest, DeterministicOutput) {
  KernelStats stats;
  stats.cycles = 7;
  EXPECT_EQ(stats.toJson(), stats.toJson());
}

TEST(KernelStatsCsvTest, HeaderAndRowHaveSameFieldCount) {
  KernelStats stats;
  const std::string header = KernelStats::csvHeader();
  const std::string row = stats.csvRow();
  const auto count = [](const std::string& s) {
    size_t n = 1;
    for (char c : s) n += c == ',' ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count(header), count(row));
}

}  // namespace
}  // namespace simtomp::gpusim
