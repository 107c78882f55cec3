// simprof: hierarchical profiling for the simulated SIMD runtime.
//
// The paper's central questions (Figs. 9-10) are about *where cycles
// go* in the three-level hierarchy: state-machine polling vs. SIMD
// lockstep work vs. idle lanes. This subsystem attributes modeled
// cycles to a construct tree
//
//   kernel -> team -> parallel -> simd loop / workshare
//                      \-> barrier / state-poll / sharing phases
//
// and renders it as an nvprof-style table, a folded-stack (flamegraph)
// dump, or JSON. Profiling rides *alongside* the cost model: hooks
// observe the thread clocks, they never charge cycles, so KernelStats
// are bit-identical with profiling on or off, and per-thread trees are
// merged in (block, thread) order so every output is byte-identical
// for any SIMTOMP_HOST_WORKERS.
//
// Like simcheck/simfault, the subsystem deliberately sits *below*
// gpusim in the build: it depends only on simtomp_support and speaks
// raw counter ids (gpusim passes its Counter enum values through as
// uint32_t and supplies names only at print time), so gpusim can link
// it without a dependency cycle.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace simtomp::simprof {

/// Nodes of the construct tree, in nesting order.
enum class Construct : uint8_t {
  kKernel = 0,  ///< whole launch (root; inclusive == KernelStats.cycles)
  kTeam,        ///< one per-thread implicit frame, merged over the grid
  kParallel,    ///< parallel region (generic or SPMD)
  kSimdLoop,    ///< simd / simd-reduction loop (detail = group size)
  kWorkshare,   ///< for-worksharing loop
  kDistribute,  ///< distribute chunk loop
  kBarrier,     ///< warp/block barrier rendezvous + wait
  kStatePoll,   ///< team/simd state-machine poll phase
  kSharing,     ///< sharing-space argument staging
  kCritical,    ///< critical section (lock + body)
  kCount        // sentinel
};
inline constexpr size_t kNumConstructs = static_cast<size_t>(Construct::kCount);

[[nodiscard]] std::string_view constructName(Construct c);
/// "simd_loop@8" for kSimdLoop with detail 8, else the plain name: how
/// profile tables, folded stacks, JSON and deep-trace spans name a
/// construct.
[[nodiscard]] std::string constructLabel(Construct c, uint64_t detail);

/// How a launch should be profiled. Mirrors simcheck::CheckMode.
enum class ProfileMode : uint8_t {
  kAuto = 0,  ///< resolve from the SIMTOMP_PROF knob (default: off)
  kOff,       ///< no profiling, zero overhead (one null-pointer branch)
  kOn,        ///< build the construct tree into Device::lastProfile()
};

[[nodiscard]] std::string_view profileModeName(ProfileMode mode);

/// Per-launch profiling configuration; one of gpusim::LaunchOptions.
struct ProfileConfig {
  ProfileMode mode = ProfileMode::kAuto;
};

/// One node of the construct tree. All cycle fields of non-root nodes
/// are *thread-cycles*: per-(thread, visit) modeled-timeline spans,
/// summed over every thread that visited the node — additive, so the
/// exclusive share is well defined and barrier waiting is visible. The
/// root kernel node instead carries the launch-level cycle count
/// (KernelStats.cycles), set by LaunchProfile::finalize.
struct ProfileNode {
  Construct construct = Construct::kKernel;
  uint64_t detail = 0;  ///< simd group size for kSimdLoop, else 0
  uint64_t inclusiveCycles = 0;  ///< span including children
  uint64_t exclusiveCycles = 0;  ///< span minus child spans
  uint64_t busyCycles = 0;  ///< charged cycles while this node was current
  uint64_t visits = 0;
  /// Per-construct event counts, indexed by raw gpusim counter id;
  /// charges land on the node that was current (exclusive attribution).
  std::vector<uint64_t> counters;
  std::vector<ProfileNode> children;

  [[nodiscard]] std::string label() const {
    return constructLabel(construct, detail);
  }

  ProfileNode* findOrCreateChild(Construct c, uint64_t detail,
                                 size_t numCounters);
  /// Accumulate `other` (same construct/detail) into this node,
  /// merging children recursively. Deterministic: children keep the
  /// first-seen order and callers merge in (block, thread) order.
  void mergeFrom(const ProfileNode& other);
  /// Sort children by (construct, detail) recursively so rendered
  /// output is byte-stable regardless of visit order.
  void sortChildren();
};

/// One raw construct span on a thread's modeled timeline, captured for
/// deep tracing (nested spans on the SM track).
struct RawSpan {
  Construct construct = Construct::kKernel;
  uint64_t detail = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t depth = 0;  ///< nesting depth below the implicit team frame
};

/// Per-thread profile state: a span stack plus a local construct tree.
/// Owned by a BlockProfiler; a thread enters its implicit team frame at
/// time 0 and finish() closes whatever is still open.
class ThreadProfile {
 public:
  ThreadProfile(size_t num_counters, bool capture_spans);

  void enter(Construct c, uint64_t detail, uint64_t now);
  void exit(uint64_t now);
  void onCharge(uint32_t counter_id, uint64_t cycles, uint64_t count);
  /// Close all open frames (including the team frame) at `final_time`.
  void finish(uint64_t final_time);

  [[nodiscard]] const ProfileNode& root() const { return root_; }
  [[nodiscard]] const std::vector<RawSpan>& spans() const { return spans_; }

  /// Raw spans beyond this many are dropped (host memory guard).
  static constexpr size_t kMaxSpans = 65536;

 private:
  struct Frame {
    ProfileNode* node = nullptr;
    uint64_t enterTime = 0;
    uint64_t childCycles = 0;
  };

  size_t num_counters_;
  bool capture_spans_;
  ProfileNode root_;
  std::vector<Frame> frames_;
  std::vector<RawSpan> spans_;
};

/// Per-block profiler: one ThreadProfile per device thread. Owned by
/// the launch's per-block outcome slot (like simcheck::BlockChecker)
/// so results survive into the deterministic block-order merge.
class BlockProfiler {
 public:
  BlockProfiler(uint32_t block_id, uint32_t num_threads, size_t num_counters,
                bool capture_spans);

  [[nodiscard]] uint32_t blockId() const { return block_id_; }
  [[nodiscard]] ThreadProfile& thread(uint32_t tid) { return threads_[tid]; }
  [[nodiscard]] const ThreadProfile& thread(uint32_t tid) const {
    return threads_[tid];
  }
  [[nodiscard]] uint32_t numThreads() const {
    return static_cast<uint32_t>(threads_.size());
  }

  /// The block's team tree: thread trees merged in thread order.
  [[nodiscard]] ProfileNode teamTree() const;
  /// Raw spans of thread 0 (the traced thread), for deep tracing.
  [[nodiscard]] const std::vector<RawSpan>& tracedSpans() const {
    return threads_[0].spans();
  }

 private:
  uint32_t block_id_;
  size_t num_counters_;
  std::vector<ThreadProfile> threads_;
};

/// Counter-id -> name callback, supplied at print time (the profiler
/// itself never sees gpusim's Counter enum).
using CounterNameFn = std::string_view (*)(uint32_t);

/// Rendering options for table()/writeJson(): counter names plus which
/// raw counter ids carry the SIMD lane-utilization pair.
struct RenderOptions {
  CounterNameFn counterName = nullptr;
  uint32_t laneRoundsCounter = 0xFFFFFFFFu;
  uint32_t idleLaneRoundsCounter = 0xFFFFFFFFu;
};

/// The merged result of one profiled launch, published by
/// Device::lastProfile() (also for failed launches, like
/// lastCheckReport). Root inclusive cycles equal KernelStats.cycles
/// exactly; descendants are in thread-cycles (see ProfileNode).
struct LaunchProfile {
  bool enabled = false;
  size_t numCounters = 0;
  uint64_t rootCycles = 0;
  ProfileNode root;

  /// Merge one block's team tree (call in block order).
  void mergeTeam(const ProfileNode& team);
  /// Pin the root to the launch cycle count and canonicalize child
  /// order for byte-stable output.
  void finalize(uint64_t cycles);

  /// nvprof-style per-construct table (indent = nesting).
  [[nodiscard]] std::string table(const RenderOptions& opts = {}) const;
  /// Folded-stack (flamegraph) lines "kernel;team;... <exclusive>",
  /// sorted lexicographically; zero-weight stacks are omitted.
  [[nodiscard]] std::string folded() const;
  /// Nested JSON (fixed key order, deterministic).
  void writeJson(std::ostream& out, const RenderOptions& opts = {}) const;
};

}  // namespace simtomp::simprof
