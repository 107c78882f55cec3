// Mix grammar, seeded generation and replay tests.
#include <gtest/gtest.h>

#include <string>

#include "hostrt/device_manager.h"
#include "simserve/mix.h"

namespace simtomp::simserve {
namespace {

using gpusim::ArchSpec;

TEST(MixTest, GeneratorIsDeterministic) {
  MixProfile profile;
  profile.seed = 7;
  profile.requests = 48;
  profile.tenants = 3;
  profile.pumpEvery = 16;
  profile.faultPermille = 50;
  const std::string a = generateMix(profile).toString();
  const std::string b = generateMix(profile).toString();
  EXPECT_EQ(a, b);
  profile.seed = 8;
  EXPECT_NE(a, generateMix(profile).toString());
}

TEST(MixTest, TextRoundTrips) {
  MixProfile profile;
  profile.requests = 32;
  profile.faultPermille = 100;
  const Mix mix = generateMix(profile);
  const std::string text = mix.toString();
  const Result<Mix> parsed = parseMixText(text);
  ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
  EXPECT_EQ(parsed.value().toString(), text);
  EXPECT_EQ(parsed.value().requestCount(), mix.requestCount());
}

TEST(MixTest, ParserRejectsBadInput) {
  const char* bad[] = {
      "launch t0 axpy trip=64",            // unknown directive
      "req t0 warp trip=64",               // unknown kernel
      "req t0 axpy trip=64 color=red",     // unknown key
      "req t0 axpy trip=sixty",            // non-numeric value
      "req t0 axpy simdlen=4",             // missing trip
      "req t0 axpy trip=64 simdlen=0",     // zero simdlen
      "tenant",                            // missing name
      "tenant t0 priority",                // not key=value
      "tenant t0 color=red",               // unknown tenant key
      "tenant t0 deadline=soon",           // non-numeric deadline
  };
  for (const char* text : bad) {
    const Result<Mix> parsed = parseMixText(text);
    EXPECT_FALSE(parsed.isOk()) << text;
    if (!parsed.isOk()) {
      EXPECT_NE(parsed.status().message().find("line 1"), std::string::npos)
          << text;
    }
  }
  EXPECT_TRUE(parseMixText("# only a comment\n\n").isOk());
}

TEST(MixTest, RejectsOutOfRangeNumbers) {
  // Each number must fit its field: 2^32 + 1 is refused where a
  // uint32_t is stored, not read as 1, and nothing wider than 64 bits
  // is taken anywhere.
  const char* bad[] = {
      "tenant t0 priority=4294967297",
      "tenant t0 inflight=4294967296",
      "tenant t0 queued=4294967296",
      "tenant t0 retries=4294967296",
      "tenant t0 deadline=18446744073709551616",
      "req t0 axpy trip=64 simdlen=4294967298",
      "req t0 axpy trip=18446744073709551616",
      "req t0 axpy trip=64 deadline=99999999999999999999999",
  };
  for (const char* text : bad) {
    const Result<Mix> parsed = parseMixText(text);
    EXPECT_FALSE(parsed.isOk()) << text;
    if (!parsed.isOk()) {
      EXPECT_NE(parsed.status().message().find("exceeds"), std::string::npos)
          << parsed.status().message();
    }
  }
  const Result<Mix> widest = parseMixText(
      "tenant t0 priority=4294967295 deadline=18446744073709551615\n"
      "req t0 axpy trip=64 simdlen=4294967295");
  ASSERT_TRUE(widest.isOk()) << widest.status().toString();
  EXPECT_EQ(widest.value().ops[0].tenant.priority, 4294967295u);
  EXPECT_EQ(widest.value().ops[1].simdlen, 4294967295u);
}

TEST(MixTest, ParserRejectsDuplicateKeys) {
  const Result<Mix> dup_tenant =
      parseMixText("tenant t0 priority=1 priority=2");
  ASSERT_FALSE(dup_tenant.isOk());
  EXPECT_NE(dup_tenant.status().message().find("duplicate tenant key"),
            std::string::npos);
  const Result<Mix> dup_req =
      parseMixText("req t0 axpy trip=64 simdlen=2 trip=32");
  ASSERT_FALSE(dup_req.isOk());
  EXPECT_NE(dup_req.status().message().find("duplicate req key"),
            std::string::npos);
}

TEST(MixTest, SloKeysRoundTripAndDefaultsStayOffTheWire) {
  // deadline=/retries= round-trip byte-exactly in canonical order.
  const std::string text =
      "# simserve mix v1\n"
      "tenant a priority=2 inflight=8 queued=16 deadline=4096 retries=1\n"
      "req a axpy trip=64 simdlen=4 deadline=0\n"
      "req a axpy trip=64 simdlen=4 fault=device_lost_post:count=1 "
      "deadline=8192\n"
      "pump\n"
      "drain\n";
  const Result<Mix> parsed = parseMixText(text);
  ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
  EXPECT_EQ(parsed.value().toString(), text);
  EXPECT_EQ(parsed.value().ops[0].tenant.deadlineCycles, 4096u);
  EXPECT_EQ(parsed.value().ops[0].tenant.maxRetries, 1u);
  EXPECT_EQ(parsed.value().ops[1].deadline, 0u);
  EXPECT_EQ(parsed.value().ops[2].deadline, 8192u);

  // Tenants and requests at the SLO defaults serialize without the new
  // keys, so mixes recorded before PR 9 keep their exact bytes.
  const std::string legacy =
      "# simserve mix v1\n"
      "tenant a priority=1 inflight=64 queued=256\n"
      "req a axpy trip=64 simdlen=4\n";
  const Result<Mix> old = parseMixText(legacy);
  ASSERT_TRUE(old.isOk());
  EXPECT_EQ(old.value().toString(), legacy);
  EXPECT_EQ(old.value().ops[0].tenant.deadlineCycles, kNoDeadline);
  EXPECT_EQ(old.value().ops[1].deadline, kInheritDeadline);
}

TEST(MixTest, ReplayCountsDeadlineSheds) {
  // A zero-budget request can never be met (dispatch alone costs
  // kDispatchCycles), so replay must shed it as DEADLINE_EXCEEDED and
  // account it separately from quota sheds.
  const char* text =
      "tenant a priority=1 inflight=8 queued=8\n"
      "req a axpy trip=64 simdlen=4\n"
      "req a axpy trip=64 simdlen=4 deadline=0\n"
      "pump\n"
      "drain\n";
  const Result<Mix> mix = parseMixText(text);
  ASSERT_TRUE(mix.isOk()) << mix.status().toString();

  hostrt::DeviceManager mgr({ArchSpec::testTiny()});
  LaunchService service(mgr);
  const Result<ReplayReport> report = replayMix(service, mix.value());
  ASSERT_TRUE(report.isOk()) << report.status().toString();
  EXPECT_EQ(report.value().submitted, 2u);
  EXPECT_EQ(report.value().admitted, 1u);
  EXPECT_EQ(report.value().deadlineShed, 1u);
  EXPECT_EQ(report.value().verified, 1u);
  EXPECT_NE(report.value().toString().find("deadline_shed=1"),
            std::string::npos);
  EXPECT_EQ(service.tenantStats("a").deadlineShed, 1u);
}

TEST(MixTest, ReplayCompletesAndVerifies) {
  MixProfile profile;
  profile.seed = 3;
  profile.requests = 24;
  profile.tenants = 2;
  profile.pumpEvery = 8;
  const Mix mix = generateMix(profile);

  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  LaunchService service(mgr);
  const Result<ReplayReport> report = replayMix(service, mix);
  ASSERT_TRUE(report.isOk()) << report.status().toString();
  EXPECT_EQ(report.value().submitted, 24u);
  EXPECT_EQ(report.value().admitted, 24u);
  EXPECT_EQ(report.value().verified, 24u);
  EXPECT_EQ(report.value().verifyFailures, 0u);
  EXPECT_EQ(service.queuedRequests(), 0u);
}

TEST(MixTest, ReplayMigratesInjectedDeviceLoss) {
  const char* text =
      "tenant a priority=1 inflight=64 queued=64\n"
      "req a axpy trip=64 simdlen=4\n"
      "req a axpy trip=64 simdlen=4 fault=device_lost_post:count=1\n"
      "req a stencil trip=64 simdlen=2\n"
      "pump\n"
      "drain\n";
  const Result<Mix> mix = parseMixText(text);
  ASSERT_TRUE(mix.isOk()) << mix.status().toString();

  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  LaunchService service(mgr);
  const Result<ReplayReport> report = replayMix(service, mix.value());
  ASSERT_TRUE(report.isOk()) << report.status().toString();
  EXPECT_EQ(report.value().verified, 3u);
  const TenantStats stats = service.tenantStats("a");
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.migrated, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(MixTest, IdenticalDeviceLossSpecsOnOneDeviceBothMigrate) {
  // One fingerprint means one shard, so both requests launch on the
  // same device in the same wave. A fault plan is consumed by the
  // launch that carries it, so the second identical spec fires too.
  const char* text =
      "tenant a priority=1 inflight=64 queued=64\n"
      "req a axpy trip=64 simdlen=4 fault=device_lost_post:count=1\n"
      "req a axpy trip=64 simdlen=4 fault=device_lost_post:count=1\n"
      "pump\n"
      "drain\n";
  const Result<Mix> mix = parseMixText(text);
  ASSERT_TRUE(mix.isOk()) << mix.status().toString();

  hostrt::DeviceManager mgr({ArchSpec::testTiny(), ArchSpec::testTiny()});
  LaunchService service(mgr);
  const Result<ReplayReport> report = replayMix(service, mix.value());
  ASSERT_TRUE(report.isOk()) << report.status().toString();
  EXPECT_EQ(service.outcome(0).shard, service.outcome(1).shard);
  EXPECT_TRUE(service.outcome(0).migrated);
  EXPECT_TRUE(service.outcome(1).migrated);
  const TenantStats stats = service.tenantStats("a");
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.migrated, 2u);
  EXPECT_EQ(report.value().verified, 2u);
}

}  // namespace
}  // namespace simtomp::simserve
