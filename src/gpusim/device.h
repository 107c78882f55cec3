// Device: the whole simulated GPU.
//
// Owns global memory and schedules kernel launches. Construction touches
// none of the global-memory arena (see DeviceMemory): a Device costs the
// pages its launches and host copies touch. Blocks are placed
// greedily onto the SM with the least accumulated work (round-robin when
// balanced), each SM running its blocks back-to-back; the kernel's
// modeled time is the busiest SM plus a fixed launch latency. This is
// the "waves" abstraction real GPUs exhibit when a grid has more blocks
// than can be resident at once — the effect behind the paper's note that
// the 3-level sparse_matvec wins partly by using far fewer, larger teams.
#pragma once

#include <functional>
#include <memory>

#include "gpusim/arch.h"
#include "gpusim/block.h"
#include "gpusim/cost_model.h"
#include "gpusim/knobs.h"
#include "gpusim/memory.h"
#include "gpusim/stats.h"
#include "gpusim/thread.h"
#include "gpusim/trace.h"
#include "simcheck/report.h"
#include "simfault/fault.h"
#include "simprof/profile.h"
#include "support/status.h"

namespace simtomp::gpusim {

/// Grid shape plus the per-launch host knobs (gpusim/knobs.h), which
/// Device::launch resolves on every launch. Checking, fault injection,
/// the watchdog and profiling charge no modeled cycles: stats are
/// bit-identical with any of them on or off.
struct LaunchConfig : LaunchOptions {
  LaunchConfig() = default;
  LaunchConfig(uint32_t blocks, uint32_t threads)
      : numBlocks(blocks), threadsPerBlock(threads) {}

  uint32_t numBlocks = 1;
  /// Threads per block. Need not be a warp multiple: a partial final
  /// warp is supported (its member mask has fewer lanes, and full-mask
  /// warp collectives synchronize only the existing lanes).
  uint32_t threadsPerBlock = 32;
};

/// Optional per-block hook: runs on the host before a block starts, e.g.
/// so the OpenMP runtime can install its TeamState (BlockEngine user
/// state) for that block. With hostWorkers > 1 the hook is invoked
/// concurrently from the worker threads, so it must only touch state
/// local to the given block (index distinct slots by engine.blockId()).
using BlockSetupHook = std::function<void(BlockEngine&)>;

class Device {
 public:
  explicit Device(ArchSpec arch = ArchSpec::nvidiaA100(),
                  CostModel cost = CostModel{},
                  size_t global_mem_bytes = kDefaultGlobalMem);

  static constexpr size_t kDefaultGlobalMem = 512ull * 1024 * 1024;

  [[nodiscard]] const ArchSpec& arch() const { return arch_; }
  [[nodiscard]] const CostModel& costModel() const { return cost_; }
  [[nodiscard]] DeviceMemory& memory() { return memory_; }

  /// Allocate a typed global-memory array and return a charged view.
  template <typename T>
  Result<GlobalSpan<T>> allocateArray(size_t count) {
    auto ptr = memory_.allocate(count * sizeof(T), alignof(T) < 16 ? 16 : alignof(T));
    if (!ptr.isOk()) return ptr.status();
    return GlobalSpan<T>(reinterpret_cast<T*>(memory_.raw(ptr.value())),
                         count);
  }

  Status freeArray(const void* data) {
    return memory_.free(static_cast<DevPtr>(
        reinterpret_cast<const std::byte*>(data) - memory_.raw(0)));
  }

  /// Run a kernel over the grid. Blocks are modeled as concurrent per
  /// the SM wave schedule; on the host they execute on
  /// `config.hostWorkers` pool threads (serially when 1). Every block
  /// runs, also after another one failed, and per-block results are
  /// merged in block order after the join, so stats, counters, the
  /// trace timeline, the check report and the profile are identical
  /// for any worker count. Launches on one Device must not overlap;
  /// use a DeviceManager for concurrent multi-device work.
  Result<KernelStats> launch(const LaunchConfig& config, const Kernel& kernel,
                             const BlockSetupHook& setup = nullptr);

  /// Attach (or detach with nullptr) a trace recorder; subsequent
  /// launches record block spans on the modeled SM timeline.
  void setTraceRecorder(TraceRecorder* recorder) { trace_ = recorder; }
  [[nodiscard]] TraceRecorder* traceRecorder() const { return trace_; }

  /// Findings of the most recent launch (empty when checking was off
  /// or the launch was clean). Valid after launch() returns — also
  /// when the launch itself failed, so divergence diagnostics survive
  /// the deadlocked launch that produced them.
  [[nodiscard]] const simcheck::CheckReport& lastCheckReport() const {
    return last_check_report_;
  }
  /// Effective check mode of the most recent launch (never kAuto).
  [[nodiscard]] simcheck::CheckMode lastCheckMode() const {
    return last_check_mode_;
  }

  /// Construct-tree profile of the most recent launch (enabled only
  /// when profiling was on). Published like lastCheckReport(): also
  /// for failed launches, so a deadlock's partial timeline survives.
  /// On success the root's inclusive cycles equal KernelStats.cycles.
  [[nodiscard]] const simprof::LaunchProfile& lastProfile() const {
    return last_profile_;
  }
  /// Effective profile mode of the most recent launch (never kAuto).
  [[nodiscard]] simprof::ProfileMode lastProfileMode() const {
    return last_profile_mode_;
  }

  /// Simulate a device reset (the recovery path runs this between a
  /// faulted launch and its retry). Deliberately keeps
  /// lastCheckReport(): diagnostics must survive recovery.
  void reset() { ++reset_count_; }
  [[nodiscard]] uint64_t resetCount() const { return reset_count_; }

 private:
  ArchSpec arch_;
  CostModel cost_;
  DeviceMemory memory_;
  TraceRecorder* trace_ = nullptr;
  uint64_t launch_count_ = 0;
  uint64_t reset_count_ = 0;
  simcheck::CheckReport last_check_report_;
  simcheck::CheckMode last_check_mode_ = simcheck::CheckMode::kOff;
  simprof::LaunchProfile last_profile_;
  simprof::ProfileMode last_profile_mode_ = simprof::ProfileMode::kOff;
};

}  // namespace simtomp::gpusim
