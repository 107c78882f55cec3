#include "simserve/chaos.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "hostrt/device_manager.h"
#include "simprof/metrics.h"
#include "simserve/mix.h"
#include "simserve/service.h"
#include "support/rng.h"

namespace simtomp::simserve {

namespace {

constexpr uint64_t kTile = 8;
// Forked stream ids: one per campaign axis, so a draw on one axis
// never perturbs another's sequence.
constexpr uint64_t kTenantStream = 1;
constexpr uint64_t kArrivalStream = 2;
constexpr uint64_t kFaultStream = 3;

const char* const kTenantNames[3] = {"lo", "mid", "hi"};

/// Everything the harness remembers about one admitted request, enough
/// to re-derive what the service *must* report about it.
struct Tracked {
  uint64_t id = 0;
  uint32_t tenant = 0;   ///< index into kTenantNames
  uint64_t deadline = kNoDeadline;  ///< resolved budget
  size_t kernel = 0;
  uint64_t trip = 0;
  std::shared_ptr<std::vector<uint64_t>> out;
};

/// Mutable state for one seed's run.
struct SeedRun {
  uint64_t seed = 0;
  TenantSpec specs[3];
  std::vector<Tracked> tracked;
  uint64_t drains = 0;
  uint64_t faultsArmed = 0;
  uint64_t violationsBefore = 0;
};

void report(std::vector<ChaosViolation>& violations, uint64_t seed,
            const char* invariant, std::string detail) {
  simprof::MetricsRegistry::global().add(
      simprof::metric::kServeChaosViolationsTotal);
  violations.push_back(ChaosViolation{seed, invariant, std::move(detail)});
}

/// Admit one request and remember it. Shedding statuses are expected
/// service behavior; anything else is a violation.
void submitOne(LaunchService& service, SeedRun& run,
               std::vector<ChaosViolation>& violations, uint32_t tenant,
               size_t kernel, uint64_t trip, uint32_t simdlen,
               uint64_t deadlineOverride, const std::string& fault,
               uint32_t workers) {
  auto out = std::make_shared<std::vector<uint64_t>>(trip, 0);
  MixRequest request =
      mixRequest(mixKernelNames()[kernel], trip, simdlen, fault, workers);
  const Result<uint64_t> admitted = service.submit(
      kTenantNames[tenant], std::move(request.config),
      makeMixRegion(kernel, trip, out), request.fingerprint,
      deadlineOverride);
  if (admitted.isOk()) {
    Tracked t;
    t.id = admitted.value();
    t.tenant = tenant;
    t.deadline = deadlineOverride == kInheritDeadline
                     ? run.specs[tenant].deadlineCycles
                     : deadlineOverride;
    t.kernel = kernel;
    t.trip = trip;
    t.out = std::move(out);
    run.tracked.push_back(std::move(t));
    if (!fault.empty()) ++run.faultsArmed;
    return;
  }
  const StatusCode code = admitted.status().code();
  if (code != StatusCode::kResourceExhausted &&
      code != StatusCode::kDeadlineExceeded) {
    report(violations, run.seed, "admission",
           "unexpected submit status: " + admitted.status().toString());
  }
}

/// Per-wave invariants: conservation and the absence of in-flight work
/// after a drain, plus the epoch clock tracking completed drains.
void checkWave(const LaunchService& service, const SeedRun& run,
               std::vector<ChaosViolation>& violations) {
  for (const char* name : kTenantNames) {
    const TenantStats s = service.tenantStats(name);
    if (s.submitted !=
        s.accepted + (s.shed - s.evicted) + s.deadlineShed) {
      report(violations, run.seed, "conservation",
             std::string(name) + ": submitted=" + std::to_string(s.submitted) +
                 " accepted=" + std::to_string(s.accepted) +
                 " shed=" + std::to_string(s.shed) +
                 " evicted=" + std::to_string(s.evicted) +
                 " deadline_shed=" + std::to_string(s.deadlineShed));
    }
  }
  if (service.dispatchedOutstanding() != 0) {
    report(violations, run.seed, "drain-left-work",
           std::to_string(service.dispatchedOutstanding()) +
               " requests still dispatched after drain");
  }
  if (service.epoch() != run.drains) {
    report(violations, run.seed, "epoch-clock",
           "epoch=" + std::to_string(service.epoch()) + " after " +
               std::to_string(run.drains) + " drains");
  }
}

/// Campaign-end invariants: definiteness, no loss, no reorder, SLO
/// accounting. See chaos.h for the list.
void checkFinal(const LaunchService& service, const SeedRun& run,
                std::vector<ChaosViolation>& violations) {
  if (service.queuedRequests() != 0 || service.dispatchedOutstanding() != 0) {
    report(violations, run.seed, "not-empty",
           "queued=" + std::to_string(service.queuedRequests()) +
               " outstanding=" +
               std::to_string(service.dispatchedOutstanding()));
  }

  const std::vector<uint64_t> order = service.dispatchOrder();
  std::map<uint64_t, uint64_t> occurrences;
  std::map<uint64_t, size_t> firstAt;
  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (++occurrences[order[pos]] == 1) firstAt[order[pos]] = pos;
  }

  // Per-request definiteness and loss checks.
  uint64_t doneWithDeadline[3] = {0, 0, 0};
  for (const Tracked& t : run.tracked) {
    const RequestOutcome o = service.outcome(t.id);
    const uint64_t dispatched = occurrences.count(t.id) ? occurrences[t.id] : 0;
    const std::string tag = "id " + std::to_string(t.id);
    switch (o.state) {
      case RequestState::kDone: {
        if (!o.status.isOk()) {
          report(violations, run.seed, "definiteness",
                 tag + " done with non-ok status " + o.status.toString());
        }
        if (dispatched != uint64_t{o.retries} + 1) {
          report(violations, run.seed, "no-loss",
                 tag + " done after " + std::to_string(dispatched) +
                     " dispatches but " + std::to_string(o.retries) +
                     " retries");
        }
        bool verified = true;
        for (uint64_t i = 0; i < t.trip; ++i) {
          if ((*t.out)[i] != mixKernelValue(t.kernel, i)) verified = false;
        }
        if (!verified) {
          report(violations, run.seed, "output-oracle",
                 tag + " buffer does not match kernel " +
                     mixKernelNames()[t.kernel]);
        }
        if (t.deadline != kNoDeadline) ++doneWithDeadline[t.tenant];
        break;
      }
      case RequestState::kShed:
        if (o.status.isOk()) {
          report(violations, run.seed, "definiteness",
                 tag + " shed with ok status");
        }
        if (dispatched != 0) {
          report(violations, run.seed, "no-loss",
                 tag + " shed but dispatched " + std::to_string(dispatched) +
                     " times");
        }
        break;
      case RequestState::kFailed:
        if (o.status.isOk()) {
          report(violations, run.seed, "definiteness",
                 tag + " failed with ok status");
        }
        if (dispatched > uint64_t{o.retries} + 1) {
          report(violations, run.seed, "no-loss",
                 tag + " failed after " + std::to_string(dispatched) +
                     " dispatches with " + std::to_string(o.retries) +
                     " retries");
        }
        break;
      default:
        report(violations, run.seed, "definiteness",
               tag + " not terminal: " +
                   std::string(requestStateName(o.state)));
        break;
    }
  }

  // No reorder: each tenant owns one priority class, so its admitted
  // requests must first-dispatch in admission (id) order — globally
  // and restricted to any one shard.
  for (uint32_t tenant = 0; tenant < 3; ++tenant) {
    std::vector<std::pair<size_t, uint64_t>> firsts;  // (position, id)
    for (const Tracked& t : run.tracked) {
      if (t.tenant != tenant || firstAt.count(t.id) == 0) continue;
      firsts.emplace_back(firstAt[t.id], t.id);
    }
    std::sort(firsts.begin(), firsts.end());
    std::map<uint32_t, uint64_t> lastIdByShard;
    uint64_t lastId = 0;
    bool haveLast = false;
    for (const auto& [pos, id] : firsts) {
      (void)pos;
      if (haveLast && id < lastId) {
        report(violations, run.seed, "no-reorder",
               std::string(kTenantNames[tenant]) + ": id " +
                   std::to_string(id) + " first-dispatched after id " +
                   std::to_string(lastId));
      }
      lastId = id;
      haveLast = true;
      const uint32_t shard = service.outcome(id).shard;
      const auto it = lastIdByShard.find(shard);
      if (it != lastIdByShard.end() && id < it->second) {
        report(violations, run.seed, "no-reorder",
               std::string(kTenantNames[tenant]) + " shard " +
                   std::to_string(shard) + ": id " + std::to_string(id) +
                   " first-dispatched after id " + std::to_string(it->second));
      }
      lastIdByShard[shard] = id;
    }
  }

  // SLO accounting against the harness's own bookkeeping.
  for (uint32_t tenant = 0; tenant < 3; ++tenant) {
    const TenantStats s = service.tenantStats(kTenantNames[tenant]);
    if (s.deadlineHit + s.deadlineMiss != doneWithDeadline[tenant]) {
      report(violations, run.seed, "slo-accounting",
             std::string(kTenantNames[tenant]) + ": hit+miss=" +
                 std::to_string(s.deadlineHit + s.deadlineMiss) +
                 " but completed-with-deadline=" +
                 std::to_string(doneWithDeadline[tenant]));
    }
    if (s.latency.count() != s.completed) {
      report(violations, run.seed, "slo-accounting",
             std::string(kTenantNames[tenant]) + ": latency count=" +
                 std::to_string(s.latency.count()) + " != completed=" +
                 std::to_string(s.completed));
    }
    if (s.completed + s.failed + s.evicted != s.accepted) {
      report(violations, run.seed, "conservation",
             std::string(kTenantNames[tenant]) + ": completed=" +
                 std::to_string(s.completed) + " failed=" +
                 std::to_string(s.failed) + " evicted=" +
                 std::to_string(s.evicted) + " accepted=" +
                 std::to_string(s.accepted));
    }
  }
}

void runSeed(const ChaosConfig& cfg, uint64_t seed, ChaosReport& out) {
  Rng root(seed);
  Rng tenantRng = root.fork(kTenantStream);
  Rng arrivalRng = root.fork(kArrivalStream);
  Rng faultRng = root.fork(kFaultStream);

  std::vector<gpusim::ArchSpec> archs(cfg.devices,
                                      gpusim::ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(archs));
  ServiceConfig config;
  config.shardCount = cfg.shards;
  // A hard bound two waves deep: congested waves overflow it (global
  // shedding + eviction) and brownout engages at the derived 3/4 mark.
  config.maxQueued = uint64_t{2} * cfg.requests;
  config.trace.enabled = cfg.trace;
  LaunchService service(mgr, config);

  SeedRun run;
  run.seed = seed;
  run.violationsBefore = out.violations.size();

  // Tenant plane, drawn from the tenants stream. Distinct priorities:
  // each tenant owns a priority class, which is what makes per-tenant
  // first-dispatch order assertable (within one class the service is
  // strict-arrival; across classes it weights by priority).
  run.specs[0].name = kTenantNames[0];
  run.specs[0].priority = 1;  // brownout sheds this class first
  run.specs[0].maxQueued = uint64_t{4} * cfg.requests;
  run.specs[0].deadlineCycles = uint64_t{1}
                                << (11 + tenantRng.nextBelow(6));
  run.specs[1].name = kTenantNames[1];
  run.specs[1].priority = 2;
  run.specs[1].maxQueued = uint64_t{4} * cfg.requests;
  run.specs[1].deadlineCycles =
      tenantRng.nextBelow(2) == 0
          ? kNoDeadline
          : uint64_t{1} << (12 + tenantRng.nextBelow(5));
  run.specs[2].name = kTenantNames[2];
  run.specs[2].priority = 3;
  run.specs[2].maxInFlight = 4;  // budget-limited: work outlives waves
  run.specs[2].maxQueued = uint64_t{4} * cfg.requests;
  run.specs[2].maxRetries = static_cast<uint32_t>(tenantRng.nextBelow(2));
  for (const TenantSpec& spec : run.specs) {
    const Status st = service.registerTenant(spec);
    if (!st.isOk()) {
      report(out.violations, seed, "setup", st.toString());
      return;
    }
  }

  const auto drawArrival = [&](Rng& rng, bool allowFault) {
    const uint32_t tenant = static_cast<uint32_t>(rng.nextBelow(3));
    const size_t kernel = static_cast<size_t>(rng.nextBelow(3));
    // A coarse shape grid (3 x 3 x 2 fingerprints): bursts then carry
    // adjacent same-fingerprint requests, so same-kernel batching runs
    // under chaos too (a fine grid would never batch).
    const uint64_t trip = kTile * (8 + 8 * rng.nextBelow(3));  // 64/128/192
    const uint32_t simdlen = uint32_t{1} << rng.nextBelow(2);
    uint64_t deadline = kInheritDeadline;
    const uint64_t roll = rng.nextBelow(16);
    if (roll == 0) {
      deadline = 0;  // unmeetable: must shed DEADLINE_EXCEEDED
    } else if (roll == 1) {
      deadline = uint64_t{1} << (10 + rng.nextBelow(8));
    }
    std::string fault;
    if (allowFault && faultRng.nextBelow(8) == 0) {
      // Traps fail only their own launch (INTERNAL, no migration), so
      // they are safe inside a congested wave.
      fault = "trap:step=1";
    }
    submitOne(service, run, out.violations, tenant, kernel, trip, simdlen,
              deadline, fault, cfg.workers);
  };

  for (uint32_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    // Congested wave: a burst past the brownout mark (sometimes past
    // the hard bound), a pump, a trailing burst, a second pump, drain.
    const uint64_t burst = cfg.requests + arrivalRng.nextBelow(cfg.requests + 1);
    for (uint64_t j = 0; j < burst; ++j) drawArrival(arrivalRng, true);
    service.pump();
    const uint64_t trailing = arrivalRng.nextBelow(cfg.requests / 2 + 1);
    for (uint64_t j = 0; j < trailing; ++j) drawArrival(arrivalRng, true);
    service.pump();
    Status st = service.drain();
    ++run.drains;
    if (!st.isOk()) {
      report(out.violations, seed, "drain", st.toString());
    }
    checkWave(service, run, out.violations);

    // Device-lost storms ride in single-request waves, so each loss's
    // breaker trip and migration get a drain (and an epoch) of their
    // own; see the placement note in chaos.h.
    const uint64_t storms = faultRng.nextBelow(3);
    for (uint64_t k = 0; k < storms; ++k) {
      const uint32_t tenant = static_cast<uint32_t>(faultRng.nextBelow(3));
      const size_t kernel = static_cast<size_t>(faultRng.nextBelow(3));
      const uint64_t trip = kTile * (4 + faultRng.nextBelow(13));
      const char* fault = faultRng.nextBelow(2) == 0 ? "device_lost_pre"
                                                     : "device_lost_post";
      submitOne(service, run, out.violations, tenant, kernel, trip,
                /*simdlen=*/1, kInheritDeadline, fault, cfg.workers);
      service.pump();
      st = service.drain();
      ++run.drains;
      if (!st.isOk()) {
        report(out.violations, seed, "drain", st.toString());
      }
      checkWave(service, run, out.violations);
    }
  }

  const Status done = service.runToCompletion();
  if (!done.isOk()) {
    report(out.violations, seed, "run-to-completion", done.toString());
  }
  checkFinal(service, run, out.violations);
  if (cfg.plantViolation && seed == cfg.seedLo) {
    report(out.violations, seed, "planted",
           "synthetic violation planted for flight-dump drills");
  }
  // Invariant violation: the flight-recorder drop. The campaign keeps
  // going (later seeds still run); the dump captures the first broken
  // seed's window because that is the one a post-mortem starts from.
  if (cfg.trace && !cfg.flightPath.empty() &&
      out.violations.size() > run.violationsBefore &&
      run.violationsBefore == 0) {
    if (ServiceTracer* tracer = service.tracer()) {
      tracer->onFailureTrigger("invariant_violation");
      (void)tracer->dumpFlightToFile(cfg.flightPath, /*physical=*/true,
                                     "invariant_violation");
    }
  }

  // Per-seed report lines, built exclusively from shard-invariant
  // surfaces (tenant stats and the harness's own draws).
  TenantStats totals;
  std::ostringstream text;
  for (const char* name : kTenantNames) {
    const TenantStats s = service.tenantStats(name);
    totals.submitted += s.submitted;
    totals.accepted += s.accepted;
    totals.shed += s.shed;
    totals.evicted += s.evicted;
    totals.brownoutShed += s.brownoutShed;
    totals.deadlineShed += s.deadlineShed;
    totals.completed += s.completed;
    totals.failed += s.failed;
    totals.migrated += s.migrated;
    totals.deadlineHit += s.deadlineHit;
    totals.deadlineMiss += s.deadlineMiss;
    totals.retriesExhausted += s.retriesExhausted;
    totals.breakerTrips += s.breakerTrips;
  }
  const uint64_t seedViolations =
      out.violations.size() - run.violationsBefore;
  text << "seed=" << seed << " submitted=" << totals.submitted
       << " accepted=" << totals.accepted << " shed=" << totals.shed
       << " evicted=" << totals.evicted
       << " brownout_shed=" << totals.brownoutShed
       << " deadline_shed=" << totals.deadlineShed
       << " completed=" << totals.completed << " failed=" << totals.failed
       << " migrated=" << totals.migrated
       << " deadline_hit=" << totals.deadlineHit
       << " deadline_miss=" << totals.deadlineMiss
       << " retries_exhausted=" << totals.retriesExhausted
       << " breaker_trips=" << totals.breakerTrips
       << " faults_armed=" << run.faultsArmed
       << " violations=" << seedViolations << "\n";
  for (const char* name : kTenantNames) {
    text << "seed=" << seed << " tenant " << name << " "
         << service.tenantStats(name).toString() << "\n";
  }
  for (size_t v = run.violationsBefore; v < out.violations.size(); ++v) {
    text << "violation seed=" << seed << " " << out.violations[v].invariant
         << ": " << out.violations[v].detail << "\n";
  }
  out.text += text.str();
  out.submitted += totals.submitted;
  out.completed += totals.completed;
  out.failed += totals.failed;
  out.faultsArmed += run.faultsArmed;
  ++out.seeds;
}

}  // namespace

Result<ChaosReport> runChaosCampaign(const ChaosConfig& config) {
  if (config.devices == 0) {
    return Status::invalidArgument("chaos: devices must be >= 1");
  }
  if (config.workers == 0) {
    return Status::invalidArgument("chaos: workers must be >= 1");
  }
  if (config.seedHi < config.seedLo) {
    return Status::invalidArgument("chaos: seed range is empty");
  }
  if (config.requests == 0 || config.epochs == 0) {
    return Status::invalidArgument("chaos: epochs and requests must be >= 1");
  }
  ChaosReport out;
  out.text = "# simserve chaos campaign v1\n";
  for (uint64_t seed = config.seedLo; seed <= config.seedHi; ++seed) {
    runSeed(config, seed, out);
  }
  std::ostringstream footer;
  footer << "campaign seeds=" << out.seeds << " submitted=" << out.submitted
         << " completed=" << out.completed << " failed=" << out.failed
         << " faults_armed=" << out.faultsArmed
         << " violations=" << out.violations.size() << "\n";
  out.text += footer.str();
  return out;
}

}  // namespace simtomp::simserve
