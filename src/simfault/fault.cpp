#include "simfault/fault.h"

#include <algorithm>

#include "simprof/metrics.h"
#include "support/parse.h"

namespace simtomp::simfault {
namespace {

struct KindName {
  FaultKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kDeviceLostPre, "device_lost_pre"},
    {FaultKind::kDeviceLostPost, "device_lost_post"},
    {FaultKind::kTrap, "trap"},
    {FaultKind::kLivelock, "livelock"},
    {FaultKind::kBarrierCorrupt, "barrier_corrupt"},
    {FaultKind::kSharingExhausted, "sharing_exhausted"},
};

Status planError(std::string detail) {
  return Status::invalidArgument("fault plan: " + std::move(detail));
}

/// Parse one ';'-separated entry: kind[:key=value]...
Result<FaultSpec> parseEntry(std::string_view entry) {
  FaultSpec spec;
  size_t pos = entry.find(':');
  const std::string_view kind_text = entry.substr(0, pos);
  bool found = false;
  for (const KindName& kn : kKindNames) {
    if (kind_text == kn.name) {
      spec.kind = kn.kind;
      found = true;
      break;
    }
  }
  if (!found) {
    return planError("unknown fault kind '" + std::string(kind_text) + "'");
  }
  while (pos != std::string_view::npos) {
    const size_t start = pos + 1;
    pos = entry.find(':', start);
    const std::string_view option =
        entry.substr(start, pos == std::string_view::npos ? pos : pos - start);
    const size_t eq = option.find('=');
    if (eq == std::string_view::npos) {
      return planError("option '" + std::string(option) +
                       "' is not key=value");
    }
    const std::string_view key = option.substr(0, eq);
    const std::string_view value = option.substr(eq + 1);
    if (key == "when") {
      if (value == "any") {
        spec.when = FaultWhen::kAny;
      } else if (value == "simd") {
        spec.when = FaultWhen::kSimd;
      } else {
        return planError("when= expects any|simd, got '" + std::string(value) +
                         "'");
      }
      continue;
    }
    uint32_t* narrow = nullptr;  // the 32-bit options; step is 64-bit
    if (key == "block") {
      narrow = &spec.block;
    } else if (key == "count") {
      narrow = &spec.count;
    } else if (key == "after") {
      narrow = &spec.after;
    } else if (key != "step") {
      return planError("unknown option '" + std::string(key) + "'");
    }
    const Result<uint64_t> number =
        parseUnsigned(value, narrow != nullptr ? UINT32_MAX : UINT64_MAX);
    if (!number.isOk()) {
      return planError("option '" + std::string(key) + "': " +
                       number.status().message());
    }
    if (narrow != nullptr) {
      *narrow = static_cast<uint32_t>(number.value());
    } else {
      spec.step = number.value();
    }
  }
  return spec;
}

void appendOption(std::string* out, const char* key, uint64_t value) {
  *out += ':';
  *out += key;
  *out += '=';
  *out += std::to_string(value);
}

}  // namespace

std::string_view faultKindName(FaultKind kind) {
  for (const KindName& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

std::string_view faultWhenName(FaultWhen when) {
  return when == FaultWhen::kSimd ? "simd" : "any";
}

std::string FaultSpec::canonical() const {
  std::string out(faultKindName(kind));
  if (block != 0) appendOption(&out, "block", block);
  if (step != 1) appendOption(&out, "step", step);
  if (when != FaultWhen::kAny) {
    out += ":when=";
    out += faultWhenName(when);
  }
  if (count != 1) appendOption(&out, "count", count);
  if (after != 0) appendOption(&out, "after", after);
  return out;
}

std::string FaultPlan::canonical() const {
  if (faults.empty()) return explicitOff ? "off" : "";
  std::string out;
  for (const FaultSpec& spec : faults) {
    if (!out.empty()) out += ';';
    out += spec.canonical();
  }
  return out;
}

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  if (text.empty()) return plan;
  if (text == "off" || text == "none" || text == "0") {
    plan.explicitOff = true;
    return plan;
  }
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(';', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view entry = text.substr(start, end - start);
    if (!entry.empty()) {
      Result<FaultSpec> spec = parseEntry(entry);
      if (!spec.isOk()) return spec.status();
      plan.faults.push_back(spec.value());
    }
    start = end + 1;
  }
  if (plan.faults.empty()) return planError("no entries in non-empty plan");
  return plan;
}

const BlockFaultArm* LaunchArm::forBlock(uint32_t block) const {
  const auto it = std::lower_bound(
      blockFaults.begin(), blockFaults.end(), block,
      [](const auto& entry, uint32_t b) { return entry.first < b; });
  if (it == blockFaults.end() || it->first != block) return nullptr;
  return &it->second;
}

Result<LaunchArm> armLaunch(const FaultConfig& config, uint32_t numBlocks) {
  Result<FaultPlan> parsed = FaultPlan::parse(config.spec);
  if (!parsed.isOk()) return parsed.status();
  const FaultPlan& plan = parsed.value();

  const uint32_t attempt = config.attempt;
  LaunchArm arm;
  for (const FaultSpec& spec : plan.faults) {
    if (spec.when == FaultWhen::kSimd && !config.simdActive) continue;
    if (attempt < spec.after) continue;
    if (spec.count != 0 && attempt - spec.after >= spec.count) continue;
    const bool blockFault = spec.kind != FaultKind::kDeviceLostPre &&
                            spec.kind != FaultKind::kDeviceLostPost;
    if (blockFault && spec.block >= numBlocks) continue;  // arms nothing
    simprof::MetricsRegistry::global().add(
        simprof::metric::kFaultInjectionsTotal);
    switch (spec.kind) {
      case FaultKind::kDeviceLostPre:
        arm.lostPre = true;
        break;
      case FaultKind::kDeviceLostPost:
        arm.lostPost = true;
        break;
      case FaultKind::kTrap:
      case FaultKind::kLivelock:
      case FaultKind::kBarrierCorrupt:
      case FaultKind::kSharingExhausted: {
        auto it = std::lower_bound(
            arm.blockFaults.begin(), arm.blockFaults.end(), spec.block,
            [](const auto& entry, uint32_t b) { return entry.first < b; });
        if (it == arm.blockFaults.end() || it->first != spec.block) {
          it = arm.blockFaults.insert(it, {spec.block, BlockFaultArm{}});
        }
        BlockFaultArm& block_arm = it->second;
        const uint64_t step = spec.step == 0 ? 1 : spec.step;
        if (spec.kind == FaultKind::kTrap) {
          block_arm.trap = true;
          block_arm.trapStep = step;
        } else if (spec.kind == FaultKind::kLivelock) {
          block_arm.livelock = true;
          block_arm.livelockArrival = step;
        } else if (spec.kind == FaultKind::kBarrierCorrupt) {
          block_arm.barrierCorrupt = true;
          block_arm.corruptArrival = step;
        } else {
          block_arm.sharingExhausted = true;
          block_arm.sharingBegin = step;
        }
        break;
      }
    }
  }
  return arm;
}

}  // namespace simtomp::simfault
