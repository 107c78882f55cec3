#include "simprof/profile.h"

#include <algorithm>
#include <cstdio>

#include "support/log.h"
#include "support/status.h"

namespace simtomp::simprof {

std::string_view constructName(Construct c) {
  switch (c) {
    case Construct::kKernel: return "kernel";
    case Construct::kTeam: return "team";
    case Construct::kParallel: return "parallel";
    case Construct::kSimdLoop: return "simd_loop";
    case Construct::kWorkshare: return "workshare";
    case Construct::kDistribute: return "distribute";
    case Construct::kBarrier: return "barrier";
    case Construct::kStatePoll: return "state_poll";
    case Construct::kSharing: return "sharing";
    case Construct::kCritical: return "critical";
    case Construct::kCount: break;
  }
  return "unknown";
}

std::string_view profileModeName(ProfileMode mode) {
  switch (mode) {
    case ProfileMode::kAuto: return "auto";
    case ProfileMode::kOff: return "off";
    case ProfileMode::kOn: return "on";
  }
  return "unknown";
}

std::string constructLabel(Construct c, uint64_t detail) {
  std::string out(constructName(c));
  if (c == Construct::kSimdLoop && detail != 0) {
    out += '@';
    out += std::to_string(detail);
  }
  return out;
}

// ---- ProfileNode ----

ProfileNode* ProfileNode::findOrCreateChild(Construct c, uint64_t d,
                                            size_t numCounters) {
  for (ProfileNode& child : children) {
    if (child.construct == c && child.detail == d) return &child;
  }
  ProfileNode node;
  node.construct = c;
  node.detail = d;
  node.counters.assign(numCounters, 0);
  children.push_back(std::move(node));
  return &children.back();
}

void ProfileNode::mergeFrom(const ProfileNode& other) {
  inclusiveCycles += other.inclusiveCycles;
  exclusiveCycles += other.exclusiveCycles;
  busyCycles += other.busyCycles;
  visits += other.visits;
  if (counters.size() < other.counters.size()) {
    counters.resize(other.counters.size(), 0);
  }
  for (size_t i = 0; i < other.counters.size(); ++i) {
    counters[i] += other.counters[i];
  }
  for (const ProfileNode& child : other.children) {
    ProfileNode* mine =
        findOrCreateChild(child.construct, child.detail, counters.size());
    mine->mergeFrom(child);
  }
}

void ProfileNode::sortChildren() {
  std::sort(children.begin(), children.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              if (a.construct != b.construct) return a.construct < b.construct;
              return a.detail < b.detail;
            });
  for (ProfileNode& child : children) child.sortChildren();
}

// ---- ThreadProfile ----

ThreadProfile::ThreadProfile(size_t num_counters, bool capture_spans)
    : num_counters_(num_counters), capture_spans_(capture_spans) {
  root_.construct = Construct::kTeam;
  root_.counters.assign(num_counters_, 0);
  root_.visits = 1;
  frames_.push_back({&root_, 0, 0});
}

void ThreadProfile::enter(Construct c, uint64_t detail, uint64_t now) {
  ProfileNode* node =
      frames_.back().node->findOrCreateChild(c, detail, num_counters_);
  node->visits += 1;
  frames_.push_back({node, now, 0});
}

void ThreadProfile::exit(uint64_t now) {
  SIMTOMP_CHECK(frames_.size() > 1, "simprof: construct exit without enter");
  const Frame frame = frames_.back();
  frames_.pop_back();
  const uint64_t span = now >= frame.enterTime ? now - frame.enterTime : 0;
  frame.node->inclusiveCycles += span;
  frame.node->exclusiveCycles +=
      span >= frame.childCycles ? span - frame.childCycles : 0;
  frames_.back().childCycles += span;
  if (capture_spans_ && spans_.size() < kMaxSpans) {
    spans_.push_back({frame.node->construct, frame.node->detail,
                      frame.enterTime, now,
                      static_cast<uint32_t>(frames_.size() - 1)});
  }
}

void ThreadProfile::onCharge(uint32_t counter_id, uint64_t cycles,
                             uint64_t count) {
  ProfileNode* node = frames_.back().node;
  node->busyCycles += cycles;
  if (counter_id < node->counters.size()) node->counters[counter_id] += count;
}

void ThreadProfile::finish(uint64_t final_time) {
  while (frames_.size() > 1) exit(final_time);
  const Frame frame = frames_.back();
  root_.inclusiveCycles += final_time;
  root_.exclusiveCycles +=
      final_time >= frame.childCycles ? final_time - frame.childCycles : 0;
  frames_.back().childCycles = 0;
}

// ---- BlockProfiler ----

BlockProfiler::BlockProfiler(uint32_t block_id, uint32_t num_threads,
                             size_t num_counters, bool capture_spans)
    : block_id_(block_id), num_counters_(num_counters) {
  threads_.reserve(num_threads);
  for (uint32_t tid = 0; tid < num_threads; ++tid) {
    // Only the block's thread 0 captures raw spans: one representative
    // nested timeline per block keeps traces readable and bounded.
    threads_.emplace_back(num_counters, capture_spans && tid == 0);
  }
}

ProfileNode BlockProfiler::teamTree() const {
  ProfileNode team;
  team.construct = Construct::kTeam;
  team.counters.assign(num_counters_, 0);
  for (const ThreadProfile& t : threads_) team.mergeFrom(t.root());
  return team;
}

// ---- LaunchProfile ----

void LaunchProfile::mergeTeam(const ProfileNode& team) {
  if (root.counters.size() < numCounters) {
    root.counters.assign(numCounters, 0);
  }
  ProfileNode* child =
      root.findOrCreateChild(Construct::kTeam, 0, numCounters);
  child->mergeFrom(team);
}

void LaunchProfile::finalize(uint64_t cycles) {
  rootCycles = cycles;
  root.construct = Construct::kKernel;
  root.inclusiveCycles = cycles;
  root.exclusiveCycles = 0;
  root.visits = 1;
  root.sortChildren();
}

namespace {

void appendTableRow(std::string& out, const ProfileNode& node, int depth,
                    uint64_t parentInclusive, const RenderOptions& opts) {
  char buf[160];
  std::string name(static_cast<size_t>(depth) * 2, ' ');
  name += node.label();
  if (name.size() > 26) name.resize(26);
  // The root is in launch cycles but its descendants are in summed
  // thread-cycles (see ProfileNode), so a team/root ratio would compare
  // different units: the team row prints no share.
  if (depth == 1) {
    std::snprintf(buf, sizeof(buf), "%-26s %14llu %14llu %14llu %8llu %7s",
                  name.c_str(),
                  static_cast<unsigned long long>(node.inclusiveCycles),
                  static_cast<unsigned long long>(node.exclusiveCycles),
                  static_cast<unsigned long long>(node.busyCycles),
                  static_cast<unsigned long long>(node.visits), "-");
  } else {
    const double share =
        parentInclusive > 0
            ? 100.0 * static_cast<double>(node.inclusiveCycles) /
                  static_cast<double>(parentInclusive)
            : 100.0;
    std::snprintf(buf, sizeof(buf), "%-26s %14llu %14llu %14llu %8llu %6.1f%%",
                  name.c_str(),
                  static_cast<unsigned long long>(node.inclusiveCycles),
                  static_cast<unsigned long long>(node.exclusiveCycles),
                  static_cast<unsigned long long>(node.busyCycles),
                  static_cast<unsigned long long>(node.visits), share);
  }
  out += buf;
  const size_t lanes = opts.laneRoundsCounter;
  const size_t idle = opts.idleLaneRoundsCounter;
  if (lanes < node.counters.size() && idle < node.counters.size() &&
      node.counters[lanes] > 0) {
    const uint64_t rounds = node.counters[lanes];
    const uint64_t busy_rounds = rounds - node.counters[idle];
    std::snprintf(buf, sizeof(buf), "  lane_eff=%5.1f%%",
                  100.0 * static_cast<double>(busy_rounds) /
                      static_cast<double>(rounds));
    out += buf;
  }
  out += "\n";
  for (const ProfileNode& child : node.children) {
    appendTableRow(out, child, depth + 1, node.inclusiveCycles, opts);
  }
}

void appendFolded(std::vector<std::string>& lines, const ProfileNode& node,
                  const std::string& prefix) {
  const std::string stack =
      prefix.empty() ? node.label() : prefix + ";" + node.label();
  if (node.exclusiveCycles > 0) {
    lines.push_back(stack + " " + std::to_string(node.exclusiveCycles));
  }
  for (const ProfileNode& child : node.children) {
    appendFolded(lines, child, stack);
  }
}

void writeJsonNode(std::ostream& out, const ProfileNode& node,
                   const RenderOptions& opts, int indent) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  out << pad << "{\"construct\": \"" << node.label() << "\",\n";
  out << pad << " \"inclusive_cycles\": " << node.inclusiveCycles << ",\n";
  out << pad << " \"exclusive_cycles\": " << node.exclusiveCycles << ",\n";
  out << pad << " \"busy_cycles\": " << node.busyCycles << ",\n";
  out << pad << " \"visits\": " << node.visits << ",\n";
  out << pad << " \"counters\": {";
  bool first = true;
  for (size_t i = 0; i < node.counters.size(); ++i) {
    if (node.counters[i] == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << "\"";
    if (opts.counterName != nullptr) {
      out << opts.counterName(static_cast<uint32_t>(i));
    } else {
      out << "counter_" << i;
    }
    out << "\": " << node.counters[i];
  }
  out << "},\n";
  out << pad << " \"children\": [";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n";
    writeJsonNode(out, node.children[i], opts, indent + 1);
  }
  if (!node.children.empty()) out << "\n" << pad;
  out << "]}";
}

}  // namespace

std::string LaunchProfile::table(const RenderOptions& opts) const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-26s %14s %14s %14s %8s %7s\n",
                "construct", "incl_cycles", "excl_cycles", "busy_cycles",
                "visits", "share");
  out += buf;
  out += std::string(98, '-');
  out += "\n";
  appendTableRow(out, root, 0, root.inclusiveCycles, opts);
  return out;
}

std::string LaunchProfile::folded() const {
  std::vector<std::string> lines;
  appendFolded(lines, root, "");
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

void LaunchProfile::writeJson(std::ostream& out,
                              const RenderOptions& opts) const {
  out << "{\"enabled\": " << (enabled ? "true" : "false")
      << ",\n \"root_cycles\": " << rootCycles << ",\n \"tree\":\n";
  writeJsonNode(out, root, opts, 1);
  out << "\n}\n";
}

}  // namespace simtomp::simprof
