#include "gpusim/trace.h"

#include <algorithm>
#include <fstream>
#include <set>

#include "support/json.h"

namespace simtomp::gpusim {

namespace {

// Chrome trace process ids: the kernel-level track lives in pid 0, SM
// tracks in pid 1. Counter tracks attach to pid 0 so they render above
// the SM rows.
constexpr const char* kKernelPid = "0";
constexpr const char* kSmPid = "1";

void writeMetadata(std::ostream& out, const char* pid, uint64_t tid,
                   const char* kind, const std::string& name, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "  {\"name\": \"" << kind << "\", \"ph\": \"M\", \"pid\": " << pid
      << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
      << jsonEscaped(name) << "\"}}";
}

}  // namespace

void TraceRecorder::recordBlock(uint32_t block_id, uint32_t sm_id,
                                uint64_t start, uint64_t duration) {
  events_.push_back(
      {"block " + std::to_string(block_id), sm_id, start, duration});
}

void TraceRecorder::recordKernel(std::string name, uint64_t duration) {
  events_.push_back({std::move(name), kKernelTrack, 0, duration});
}

void TraceRecorder::recordSpan(uint32_t track, std::string name,
                               uint64_t start, uint64_t duration) {
  events_.push_back({std::move(name), track, start, duration});
}

void TraceRecorder::recordInstant(std::string name, uint64_t at) {
  events_.push_back(
      {std::move(name), kKernelTrack, at, 0, Phase::kInstant, 0});
}

void TraceRecorder::recordCounter(std::string name, uint64_t at,
                                  uint64_t value) {
  events_.push_back(
      {std::move(name), kKernelTrack, at, 0, Phase::kCounter, value});
}

void TraceRecorder::nameTrack(uint32_t track, std::string name) {
  trackNames_[track] = std::move(name);
}

void TraceRecorder::writeChromeJson(std::ostream& out) const {
  out << "[\n";
  bool first = true;

  // "M" metadata first: name both processes and every track in use.
  // std::set gives the stable (sorted) order the satellite asks for.
  std::set<uint32_t> sm_tracks;
  bool kernel_track_used = false;
  for (const Event& e : events_) {
    if (e.phase != Phase::kComplete) continue;
    if (e.track == kKernelTrack) {
      kernel_track_used = true;
    } else {
      sm_tracks.insert(e.track);
    }
  }
  writeMetadata(out, kKernelPid, 0, "process_name", "kernel", first);
  writeMetadata(out, kSmPid, 0, "process_name", "SMs", first);
  if (kernel_track_used) {
    writeMetadata(out, kKernelPid, 0, "thread_name", "kernel", first);
  }
  for (const uint32_t sm : sm_tracks) {
    const auto named = trackNames_.find(sm);
    writeMetadata(out, kSmPid, sm + 1, "thread_name",
                  named != trackNames_.end() ? named->second
                                             : "SM " + std::to_string(sm),
                  first);
  }

  for (const Event& e : events_) {
    if (!first) out << ",\n";
    first = false;
    const uint64_t tid = e.track == kKernelTrack ? 0 : e.track + 1;
    const char* pid = e.track == kKernelTrack ? kKernelPid : kSmPid;
    out << "  {\"name\": \"" << jsonEscaped(e.name);
    switch (e.phase) {
      case Phase::kComplete:
        out << "\", \"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
            << ", \"ts\": " << e.startCycle << ", \"dur\": "
            << e.durationCycles << "}";
        break;
      case Phase::kInstant:
        out << "\", \"ph\": \"i\", \"s\": \"p\", \"pid\": " << pid
            << ", \"tid\": " << tid << ", \"ts\": " << e.startCycle << "}";
        break;
      case Phase::kCounter:
        out << "\", \"ph\": \"C\", \"pid\": " << pid
            << ", \"ts\": " << e.startCycle << ", \"args\": {\"value\": "
            << e.value << "}}";
        break;
    }
  }
  out << "\n]\n";
}

Status TraceRecorder::writeChromeJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    return Status::invalidArgument("cannot open trace file: " + path);
  }
  writeChromeJson(file);
  if (!file.good()) {
    return Status::internal("I/O error writing trace file: " + path);
  }
  return Status::ok();
}

}  // namespace simtomp::gpusim
