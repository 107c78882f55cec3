#include "simfuzz/program.h"

#include <bit>
#include <charconv>
#include <sstream>
#include <vector>

#include "support/parse.h"

namespace simtomp::simfuzz {

namespace {

using omprt::ExecMode;
using omprt::ForSchedule;

std::string_view schedName(ForSchedule kind) {
  switch (kind) {
    case ForSchedule::kStaticCyclic: return "cyclic";
    case ForSchedule::kStaticChunked: return "chunked";
    case ForSchedule::kDynamic: return "dynamic";
  }
  return "cyclic";
}

bool parseInt(std::string_view text, int64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

uint32_t floorPow2(uint32_t v) {
  if (v == 0) return 1;
  return uint32_t{1} << (31 - static_cast<uint32_t>(std::countl_zero(v)));
}

}  // namespace

std::string_view constructName(Construct c) {
  switch (c) {
    case Construct::kDistributeParallelFor: return "dpf";
    case Construct::kScheduledFor: return "sched";
    case Construct::kBarrierParallel: return "barrier";
  }
  return "dpf";
}

std::string_view bodyKindName(BodyKind b) {
  switch (b) {
    case BodyKind::kAffineMap: return "map";
    case BodyKind::kSimdNest: return "nest";
    case BodyKind::kSimdReduce: return "reduce";
    case BodyKind::kAtomicSum: return "atomic";
    case BodyKind::kConvergentMap: return "conv";
  }
  return "map";
}

std::string_view injectKindName(InjectKind k) {
  switch (k) {
    case InjectKind::kNone: return "none";
    case InjectKind::kOffByOne: return "offbyone";
    case InjectKind::kDropIteration: return "dropiter";
  }
  return "none";
}

void FuzzProgram::normalize() {
  // Launch shape: keep every program valid on all three arch profiles.
  // threadsPerTeam must be a multiple of 64 (AMD wavefronts) and leave
  // room for the generic-mode main warp under testTiny's 256-thread
  // block cap: 192 + 32 = 224 fits; 192 + 64 = 256 fits sim-mi100.
  if (numTeams == 0) numTeams = 1;
  if (numTeams > 4) numTeams = 1 + (numTeams - 1) % 4;
  threadsPerTeam = threadsPerTeam - threadsPerTeam % 64;
  if (threadsPerTeam == 0) threadsPerTeam = 64;
  if (threadsPerTeam > 192) threadsPerTeam = 192;

  simdlen = floorPow2(simdlen);
  if (simdlen > 64) simdlen = 64;

  if (outerTrip == 0) outerTrip = 1;
  if (outerTrip > 256) outerTrip = 1 + (outerTrip - 1) % 256;
  if (innerTrip > 96) innerTrip = innerTrip % 97;

  // Coefficients stay small so every computed value is an exact
  // integer-valued double (sums compare bitwise in any order).
  if (a == 0) a = 1;
  a = a > 0 ? 1 + (a - 1) % 3 : -(1 + (-a - 1) % 3);
  b = b >= 0 ? b % 6 : -((-b) % 6);

  if (pressure > 2) pressure = pressure % 3;
  if (sharingSpaceBytes != 256 && sharingSpaceBytes != 1024 &&
      sharingSpaceBytes != omprt::kDefaultSharingSpaceBytes) {
    sharingSpaceBytes = omprt::kDefaultSharingSpaceBytes;
  }

  // Grammar constraints per construct/body.
  if (construct == Construct::kBarrierParallel) {
    // rt::teamBarrier needs a full-SPMD launch; the two phases use the
    // out2 segment as a one-entry-per-row scratch.
    teamsMode = ExecMode::kSPMD;
    parallelMode = ExecMode::kSPMD;
    body = BodyKind::kAffineMap;
    innerTrip = 1;
  }
  if (construct != Construct::kScheduledFor) {
    schedKind = ForSchedule::kStaticCyclic;
    schedChunk = 0;
  }
  if (schedChunk > 16) schedChunk = schedChunk % 17;

  // Sharing pressure rides the globalized simd payload; only the
  // inner-simd bodies have one.
  const bool has_simd_payload = body == BodyKind::kSimdNest ||
                                body == BodyKind::kConvergentMap ||
                                body == BodyKind::kSimdReduce;
  if (!has_simd_payload) pressure = 0;
}

dsl::LaunchSpec FuzzProgram::launchSpec() const {
  dsl::LaunchSpec spec;
  spec.numTeams = numTeams;
  spec.threadsPerTeam = threadsPerTeam;
  spec.teamsMode = teamsMode;
  spec.parallelMode = parallelMode;
  spec.simdlen = simdlen;
  spec.sharingSpaceBytes = sharingSpaceBytes;
  // Environment-independent by construction: checking pinned on
  // (explicit beats SIMTOMP_CHECK), fault injection pinned off.
  spec.check.mode = simcheck::CheckMode::kReport;
  spec.fault.spec = "off";
  return spec;
}

std::string FuzzProgram::serialize() const {
  std::ostringstream out;
  out << "fuzzprog v1"
      << " seed=" << seed
      << " construct=" << constructName(construct)
      << " body=" << bodyKindName(body)
      << " teams=" << numTeams
      << " threads=" << threadsPerTeam
      << " tmode=" << omprt::execModeName(teamsMode)
      << " pmode=" << omprt::execModeName(parallelMode)
      << " simdlen=" << simdlen
      << " sched=" << schedName(schedKind)
      << " chunk=" << schedChunk
      << " outer=" << outerTrip
      << " inner=" << innerTrip
      << " pressure=" << pressure
      << " sharing=" << sharingSpaceBytes
      << " a=" << a
      << " b=" << b
      << " inject=" << injectKindName(inject);
  return out.str();
}

Result<FuzzProgram> FuzzProgram::parse(std::string_view text) {
  // Pick the first non-comment, non-blank line.
  std::string_view line;
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{}
                                         : text.substr(eol + 1);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (!line.empty() && line.front() != '#') break;
    line = {};
  }
  if (line.empty()) {
    return Status::invalidArgument("simfuzz: no program line found");
  }

  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    const size_t next = line.find(' ', pos);
    const std::string_view tok =
        line.substr(pos, next == std::string_view::npos ? next : next - pos);
    if (!tok.empty()) tokens.push_back(tok);
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  if (tokens.size() < 2 || tokens[0] != "fuzzprog" || tokens[1] != "v1") {
    return Status::invalidArgument(
        "simfuzz: program line must start with 'fuzzprog v1'");
  }

  FuzzProgram p;
  for (size_t i = 2; i < tokens.size(); ++i) {
    const std::string_view tok = tokens[i];
    const size_t eq = tok.find('=');
    if (eq == std::string_view::npos) {
      return Status::invalidArgument("simfuzz: malformed token '" +
                                     std::string(tok) + "'");
    }
    const std::string_view key = tok.substr(0, eq);
    const std::string_view value = tok.substr(eq + 1);
    bool ok = true;
    if (key == "seed") {
      ok = parseUnsignedInto(value, p.seed).isOk();
    } else if (key == "construct") {
      if (value == "dpf") p.construct = Construct::kDistributeParallelFor;
      else if (value == "sched") p.construct = Construct::kScheduledFor;
      else if (value == "barrier") p.construct = Construct::kBarrierParallel;
      else ok = false;
    } else if (key == "body") {
      if (value == "map") p.body = BodyKind::kAffineMap;
      else if (value == "nest") p.body = BodyKind::kSimdNest;
      else if (value == "reduce") p.body = BodyKind::kSimdReduce;
      else if (value == "atomic") p.body = BodyKind::kAtomicSum;
      else if (value == "conv") p.body = BodyKind::kConvergentMap;
      else ok = false;
    } else if (key == "teams") {
      ok = parseUnsignedInto(value, p.numTeams).isOk();
    } else if (key == "threads") {
      ok = parseUnsignedInto(value, p.threadsPerTeam).isOk();
    } else if (key == "tmode" || key == "pmode") {
      ExecMode mode = ExecMode::kSPMD;
      if (value == "spmd") mode = ExecMode::kSPMD;
      else if (value == "generic") mode = ExecMode::kGeneric;
      else ok = false;
      (key == "tmode" ? p.teamsMode : p.parallelMode) = mode;
    } else if (key == "simdlen") {
      ok = parseUnsignedInto(value, p.simdlen).isOk();
    } else if (key == "sched") {
      if (value == "cyclic") p.schedKind = ForSchedule::kStaticCyclic;
      else if (value == "chunked") p.schedKind = ForSchedule::kStaticChunked;
      else if (value == "dynamic") p.schedKind = ForSchedule::kDynamic;
      else ok = false;
    } else if (key == "chunk") {
      ok = parseUnsignedInto(value, p.schedChunk).isOk();
    } else if (key == "outer") {
      ok = parseUnsignedInto(value, p.outerTrip).isOk();
    } else if (key == "inner") {
      ok = parseUnsignedInto(value, p.innerTrip).isOk();
    } else if (key == "pressure") {
      ok = parseUnsignedInto(value, p.pressure).isOk();
    } else if (key == "sharing") {
      ok = parseUnsignedInto(value, p.sharingSpaceBytes).isOk();
    } else if (key == "a") {
      ok = parseInt(value, p.a);
    } else if (key == "b") {
      ok = parseInt(value, p.b);
    } else if (key == "inject") {
      if (value == "none") p.inject = InjectKind::kNone;
      else if (value == "offbyone") p.inject = InjectKind::kOffByOne;
      else if (value == "dropiter") p.inject = InjectKind::kDropIteration;
      else ok = false;
    } else {
      return Status::invalidArgument("simfuzz: unknown key '" +
                                     std::string(key) + "'");
    }
    if (!ok) {
      return Status::invalidArgument("simfuzz: bad value in token '" +
                                     std::string(tok) + "'");
    }
  }
  p.normalize();
  return p;
}

}  // namespace simtomp::simfuzz
