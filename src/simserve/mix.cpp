#include "simserve/mix.h"

#include <algorithm>
#include <istream>
#include <memory>
#include <sstream>

#include "dsl/dsl.h"
#include "omprt/runtime.h"
#include "support/parse.h"
#include "support/rng.h"

namespace simtomp::simserve {

namespace {

constexpr uint64_t kTile = 8;
constexpr size_t kNoKernel = static_cast<size_t>(-1);

const std::vector<std::string> kKernels = {"axpy", "stencil", "square"};

size_t kernelIndex(std::string_view name) {
  for (size_t i = 0; i < kKernels.size(); ++i) {
    if (kKernels[i] == name) return i;
  }
  return kNoKernel;
}

Status lineError(size_t lineno, const std::string& what) {
  return Status::invalidArgument("mix line " + std::to_string(lineno) + ": " +
                                 what);
}

/// Parse an attribute's number into `field`, capped at its width.
template <typename T>
Status parseAttr(size_t lineno, const char* what, const std::string& token,
                 const std::string& value, T& field) {
  const Status parsed = parseUnsignedInto(value, field);
  if (parsed.isOk()) return parsed;
  return lineError(lineno, std::string("bad ") + what + " attribute '" +
                               token + "': " + parsed.message());
}

/// Split "key=value"; returns false when there is no '='.
bool splitKv(const std::string& token, std::string& key, std::string& value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

/// Has `key` already appeared on this line? Linear scan: lines carry a
/// handful of keys, and the recording marks the duplicate as an error.
bool noteKey(std::vector<std::string>& seen, const std::string& key) {
  for (const std::string& s : seen) {
    if (s == key) return false;
  }
  seen.push_back(key);
  return true;
}

}  // namespace

const std::vector<std::string>& mixKernelNames() { return kKernels; }

// The verification oracle. axpy: y = 2x + 3 with x[i] = i; stencil:
// 3-point sum over the virtual input x[j] = j; square: i^2 + 1.
uint64_t mixKernelValue(size_t kernel, uint64_t i) {
  switch (kernel) {
    case 0: return 2 * i + 3;
    case 1: return (i - 1) + i + (i + 1);
    default: return i * i + 1;
  }
}

// Three-level region (teams / tiles / simd lanes), the structure every
// driver in this repo uses; kernels differ in per-lane cost so the
// mix's latency histograms have spread.
omprt::TargetRegionFn makeMixRegion(
    size_t kernel, uint64_t trip, std::shared_ptr<std::vector<uint64_t>> out) {
  return [kernel, trip, out](omprt::OmpContext& ctx) {
    const uint64_t tiles = (trip + kTile - 1) / kTile;
    const omprt::rt::Range r = omprt::rt::distributeStatic(ctx, tiles);
    omprt::ParallelConfig pc;
    pc.modeAuto = true;    // follow the launch-wide parallel mode
    pc.simdGroupSize = 0;  // follow the launch-wide simdlen
    auto tile_body = [kernel, trip, out, base = r.begin](omprt::OmpContext& c,
                                                         uint64_t logical) {
      const uint64_t tile = base + logical;
      c.gpu().work(1);
      // Hazard-free: the tail guard charges no branch and the body has
      // no barrier, cross-lane op or atomic.
      dsl::simd(c, kTile,
                dsl::convergent([kernel, trip, out, tile](
                                    omprt::OmpContext& cc, uint64_t lane) {
                  const uint64_t i = tile * kTile + lane;
                  if (i >= trip) return;
                  cc.gpu().work(1 + 2 * static_cast<uint64_t>(kernel));
                  (*out)[i] = mixKernelValue(kernel, i);
                }));
    };
    dsl::parallelFor(ctx, r.size(), tile_body, pc);
  };
}

size_t Mix::requestCount() const {
  size_t n = 0;
  for (const MixOp& op : ops) {
    if (op.kind == MixOp::Kind::kRequest) ++n;
  }
  return n;
}

std::string Mix::toString() const {
  std::string out = "# simserve mix v1\n";
  for (const MixOp& op : ops) {
    switch (op.kind) {
      case MixOp::Kind::kTenant:
        out += "tenant " + op.tenant.name +
               " priority=" + std::to_string(op.tenant.priority) +
               " inflight=" + std::to_string(op.tenant.maxInFlight) +
               " queued=" + std::to_string(op.tenant.maxQueued);
        // SLO keys render only off their defaults, so mixes recorded
        // before they existed keep their exact bytes.
        if (op.tenant.deadlineCycles != kNoDeadline) {
          out += " deadline=" + std::to_string(op.tenant.deadlineCycles);
        }
        if (op.tenant.maxRetries != TenantSpec{}.maxRetries) {
          out += " retries=" + std::to_string(op.tenant.maxRetries);
        }
        out += "\n";
        break;
      case MixOp::Kind::kRequest:
        out += "req " + op.reqTenant + " " + op.kernel +
               " trip=" + std::to_string(op.trip) +
               " simdlen=" + std::to_string(op.simdlen);
        if (!op.fault.empty()) out += " fault=" + op.fault;
        if (op.deadline != kInheritDeadline) {
          out += " deadline=" + std::to_string(op.deadline);
        }
        out += "\n";
        break;
      case MixOp::Kind::kPump: out += "pump\n"; break;
      case MixOp::Kind::kDrain: out += "drain\n"; break;
    }
  }
  return out;
}

Result<Mix> parseMix(std::istream& in) {
  Mix mix;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream tokens(line);
    std::string word;
    if (!(tokens >> word) || word[0] == '#') continue;
    MixOp op;
    if (word == "pump") {
      op.kind = MixOp::Kind::kPump;
    } else if (word == "drain") {
      op.kind = MixOp::Kind::kDrain;
    } else if (word == "tenant") {
      op.kind = MixOp::Kind::kTenant;
      if (!(tokens >> op.tenant.name)) {
        return lineError(lineno, "tenant needs a name");
      }
      std::string token, key, value;
      std::vector<std::string> seen;
      while (tokens >> token) {
        if (!splitKv(token, key, value)) {
          return lineError(lineno, "bad tenant attribute '" + token + "'");
        }
        if (!noteKey(seen, key)) {
          return lineError(lineno, "duplicate tenant key '" + key + "'");
        }
        TenantSpec& t = op.tenant;
        Status parsed;
        if (key == "priority") {
          parsed = parseAttr(lineno, "tenant", token, value, t.priority);
        } else if (key == "inflight") {
          parsed = parseAttr(lineno, "tenant", token, value, t.maxInFlight);
        } else if (key == "queued") {
          parsed = parseAttr(lineno, "tenant", token, value, t.maxQueued);
        } else if (key == "deadline") {
          parsed = parseAttr(lineno, "tenant", token, value, t.deadlineCycles);
        } else if (key == "retries") {
          parsed = parseAttr(lineno, "tenant", token, value, t.maxRetries);
        } else {
          return lineError(lineno, "unknown tenant key '" + key + "'");
        }
        if (!parsed.isOk()) return parsed;
      }
    } else if (word == "req") {
      op.kind = MixOp::Kind::kRequest;
      if (!(tokens >> op.reqTenant >> op.kernel)) {
        return lineError(lineno, "req needs TENANT KERNEL");
      }
      if (kernelIndex(op.kernel) == kNoKernel) {
        return lineError(lineno, "unknown kernel '" + op.kernel + "'");
      }
      std::string token, key, value;
      std::vector<std::string> seen;
      while (tokens >> token) {
        if (!splitKv(token, key, value)) {
          return lineError(lineno, "bad req attribute '" + token + "'");
        }
        if (!noteKey(seen, key)) {
          return lineError(lineno, "duplicate req key '" + key + "'");
        }
        if (key == "fault") {
          op.fault = value;
          continue;
        }
        Status parsed;
        if (key == "trip") {
          parsed = parseAttr(lineno, "req", token, value, op.trip);
        } else if (key == "simdlen") {
          parsed = parseAttr(lineno, "req", token, value, op.simdlen);
        } else if (key == "deadline") {
          parsed = parseAttr(lineno, "req", token, value, op.deadline);
        } else {
          return lineError(lineno, "unknown req key '" + key + "'");
        }
        if (!parsed.isOk()) return parsed;
      }
      if (op.trip == 0) return lineError(lineno, "req needs trip=N > 0");
      if (op.simdlen == 0) return lineError(lineno, "simdlen must be >= 1");
    } else {
      return lineError(lineno, "unknown directive '" + word + "'");
    }
    mix.ops.push_back(std::move(op));
  }
  return mix;
}

Result<Mix> parseMixText(const std::string& text) {
  std::istringstream in(text);
  return parseMix(in);
}

Mix generateMix(const MixProfile& profile) {
  Mix mix;
  Rng rng(profile.seed);
  for (uint32_t t = 0; t < profile.tenants; ++t) {
    MixOp op;
    op.kind = MixOp::Kind::kTenant;
    op.tenant.name = "t";
    op.tenant.name += std::to_string(t);
    op.tenant.priority = 1 + (t % 4);
    op.tenant.maxInFlight = profile.maxInFlight;
    op.tenant.maxQueued = profile.maxQueued;
    mix.ops.push_back(std::move(op));
  }
  for (uint32_t r = 0; r < profile.requests; ++r) {
    MixOp op;
    op.kind = MixOp::Kind::kRequest;
    op.reqTenant = "t";
    op.reqTenant +=
        std::to_string(rng.nextBelow(std::max(1u, profile.tenants)));
    op.kernel = kKernels[rng.nextBelow(kKernels.size())];
    op.trip = kTile * (8 + rng.nextBelow(25));  // 64 .. 256
    op.simdlen = uint32_t{1} << rng.nextBelow(4);  // 1, 2, 4, 8
    if (profile.faultPermille != 0 &&
        rng.nextBelow(1000) < profile.faultPermille) {
      op.fault = "device_lost_post:count=1";
    }
    mix.ops.push_back(std::move(op));
    if (profile.pumpEvery != 0 && (r + 1) % profile.pumpEvery == 0) {
      mix.ops.push_back(MixOp{MixOp::Kind::kPump, {}, "", "", 0, 1, ""});
      mix.ops.push_back(MixOp{MixOp::Kind::kDrain, {}, "", "", 0, 1, ""});
    }
  }
  mix.ops.push_back(MixOp{MixOp::Kind::kPump, {}, "", "", 0, 1, ""});
  mix.ops.push_back(MixOp{MixOp::Kind::kDrain, {}, "", "", 0, 1, ""});
  return mix;
}

std::string ReplayReport::toString() const {
  return "submitted=" + std::to_string(submitted) +
         " admitted=" + std::to_string(admitted) +
         " shed_at_submit=" + std::to_string(shedAtSubmit) +
         " deadline_shed=" + std::to_string(deadlineShed) +
         " completed=" + std::to_string(completed) +
         " failed=" + std::to_string(failed) +
         " verified=" + std::to_string(verified) +
         " verify_failures=" + std::to_string(verifyFailures);
}

Result<ReplayReport> replayMix(LaunchService& service, const Mix& mix,
                               uint32_t hostWorkers) {
  ReplayReport report;
  struct Pending {
    uint64_t id;
    size_t kernel;
    uint64_t trip;
    std::shared_ptr<std::vector<uint64_t>> out;
  };
  std::vector<Pending> pending;
  for (const MixOp& op : mix.ops) {
    switch (op.kind) {
      case MixOp::Kind::kTenant: {
        const Status st = service.registerTenant(op.tenant);
        if (!st.isOk()) return st;
        break;
      }
      case MixOp::Kind::kPump:
        service.pump();
        break;
      case MixOp::Kind::kDrain: {
        const Status st = service.drain();
        if (!st.isOk()) return st;
        break;
      }
      case MixOp::Kind::kRequest: {
        const size_t kernel = kernelIndex(op.kernel);
        auto out = std::make_shared<std::vector<uint64_t>>(op.trip, 0);
        omprt::TargetConfig config;
        config.teamsMode = omprt::ExecMode::kSPMD;
        config.numTeams = 2;
        config.threadsPerTeam = 64;
        config.parallelMode = omprt::ExecMode::kSPMD;
        config.simdlen = op.simdlen;
        config.hostWorkers = hostWorkers;
        config.check.mode = simcheck::CheckMode::kOff;
        config.tuneKey = op.kernel;
        config.tripCount = op.trip;
        // Pin the plan: an empty spec would consult SIMTOMP_FAULT and
        // let the environment perturb the replay.
        config.fault.spec = op.fault.empty() ? "off" : op.fault;
        config.watchdogSteps = kRequestWatchdogSteps;
        const std::string fingerprint =
            op.kernel + "/t" + std::to_string(op.trip) + "/s" +
            std::to_string(op.simdlen);
        ++report.submitted;
        const Result<uint64_t> admitted = service.submit(
            op.reqTenant, std::move(config),
            makeMixRegion(kernel, op.trip, out), fingerprint, op.deadline);
        if (admitted.isOk()) {
          ++report.admitted;
          pending.push_back(Pending{admitted.value(), kernel, op.trip, out});
        } else if (admitted.status().code() == StatusCode::kResourceExhausted) {
          ++report.shedAtSubmit;  // deterministic shedding is expected
        } else if (admitted.status().code() == StatusCode::kDeadlineExceeded) {
          ++report.deadlineShed;  // SLO admission control, also expected
        } else {
          return admitted.status();
        }
        break;
      }
    }
  }
  const Status done = service.runToCompletion();
  if (!done.isOk()) return done;
  for (const Pending& p : pending) {
    const RequestState state = service.outcome(p.id).state;
    if (state == RequestState::kFailed) ++report.failed;
    if (state != RequestState::kDone) continue;
    ++report.completed;
    bool ok = true;
    for (uint64_t i = 0; i < p.trip; ++i) {
      if ((*p.out)[i] != mixKernelValue(p.kernel, i)) ok = false;
    }
    if (ok) {
      ++report.verified;
    } else {
      ++report.verifyFailures;
    }
  }
  if (report.verifyFailures != 0) {
    return Status::internal("mix replay verify failed for " +
                            std::to_string(report.verifyFailures) +
                            " requests");
  }
  return report;
}

}  // namespace simtomp::simserve
