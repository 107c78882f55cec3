// Simulated device memory.
//
// DeviceMemory models the GPU global memory: a byte arena managed by a
// first-fit free-list allocator. Device code addresses it through typed
// GlobalSpan<T> views that charge the cost model on every access; host
// code (setup/verification) uses the uncharged raw accessors. The arena
// is a private anonymous mapping: the kernel commits a page when a
// launch or a host copy first touches it, so a Device costs what its
// launches touch, and a fresh arena reads as zero everywhere, as a GPU's
// global memory exists before the first kernel.
//
// SharedMemory models one block's on-chip scratchpad with the same
// allocator (individual allocations can be freed, which region-scoped
// globalized variables from *different SIMD groups* need — their
// lifetimes interleave arbitrarily, so a bump/watermark scheme would
// corrupt neighbours). The OpenMP runtime carves its static "variable
// sharing space" out of it at block start (paper section 5.3.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "support/status.h"

namespace simtomp::gpusim {

class ThreadCtx;

/// Opaque handle into a memory arena (byte offset; 0 is a valid
/// address, kNullDevPtr marks "no allocation").
using DevPtr = uint64_t;
inline constexpr DevPtr kNullDevPtr = ~DevPtr{0};

/// First-fit free-list allocator over [0, capacity). Not thread-safe;
/// wrap externally where needed.
class FreeListAllocator {
 public:
  explicit FreeListAllocator(size_t capacity);

  Result<DevPtr> allocate(size_t bytes, size_t align);
  Status free(DevPtr ptr);

  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t bytesInUse() const;
  [[nodiscard]] size_t liveAllocations() const { return live_.size(); }

 private:
  struct Block {
    DevPtr offset;
    size_t size;
  };

  size_t capacity_;
  std::vector<Block> free_list_;  // sorted by offset, coalesced
  std::vector<Block> live_;       // sorted by offset
};

/// Global memory: `bytes` of arena between two PROT_NONE guard pages,
/// so a host or device access past either end of the (page-rounded)
/// arena faults in every build. Construction reserves the arena against
/// the system's commit limit but touches none of it; an arena the
/// system cannot provide throws std::bad_alloc.
class DeviceMemory {
 public:
  explicit DeviceMemory(size_t bytes);
  ~DeviceMemory();

  DeviceMemory(const DeviceMemory&) = delete;
  DeviceMemory& operator=(const DeviceMemory&) = delete;

  /// Allocate `bytes` with `align` alignment. Thread-safe.
  Result<DevPtr> allocate(size_t bytes, size_t align = 16);
  /// Free a pointer returned by allocate(). Double frees are detected.
  Status free(DevPtr ptr);

  [[nodiscard]] size_t capacity() const { return allocator_.capacity(); }
  [[nodiscard]] size_t bytesInUse() const;
  [[nodiscard]] size_t liveAllocations() const;

  /// Raw host-side access (no cost charged); used by the host runtime
  /// for H2D/D2H copies and by tests for verification.
  [[nodiscard]] std::byte* raw(DevPtr ptr) { return arena_ + ptr; }
  [[nodiscard]] const std::byte* raw(DevPtr ptr) const {
    return arena_ + ptr;
  }

 private:
  std::byte* mapping_ = nullptr;  // leading guard page, arena, trailing guard
  size_t mapping_bytes_ = 0;
  std::byte* arena_ = nullptr;  // page-aligned
  FreeListAllocator allocator_;
  mutable std::mutex mutex_;
};

/// Typed view of a global-memory allocation. Copyable; does not own.
/// Device-side accesses go through get/set/atomicAdd and charge the
/// calling thread's cost model; host-side access uses raw().
template <typename T>
class GlobalSpan {
 public:
  GlobalSpan() = default;
  GlobalSpan(T* data, size_t size) : data_(data), size_(size) {}

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Device-side accessors, defined in thread.h (need ThreadCtx).
  T get(ThreadCtx& t, size_t i) const;
  void set(ThreadCtx& t, size_t i, T value) const;
  /// Atomic fetch-add; returns the previous value.
  T atomicAdd(ThreadCtx& t, size_t i, T value) const;

  // Host-side (uncharged) access.
  [[nodiscard]] T& raw(size_t i) const { return data_[i]; }
  [[nodiscard]] T* data() const { return data_; }
  [[nodiscard]] std::span<T> hostSpan() const { return {data_, size_}; }

  [[nodiscard]] GlobalSpan subspan(size_t offset, size_t count) const {
    return GlobalSpan(data_ + offset, count);
  }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

/// One block's shared-memory scratchpad. Single-threaded by
/// construction (one block = one OS thread), so no locking.
class SharedMemory {
 public:
  explicit SharedMemory(size_t bytes) : arena_(bytes), allocator_(bytes) {}

  /// Allocate; returns nullptr when the scratchpad is exhausted
  /// (callers fall back to global memory, as the runtime does).
  std::byte* allocate(size_t bytes, size_t align = 16);
  /// Free an allocation (region-scoped globalized variables).
  Status free(const std::byte* ptr);

  [[nodiscard]] size_t capacity() const { return arena_.size(); }
  [[nodiscard]] size_t used() const { return allocator_.bytesInUse(); }
  /// High-water mark of used() over the block's lifetime (occupancy
  /// reporting: the scratchpad a resident block effectively needs).
  [[nodiscard]] size_t peakUsed() const { return peak_used_; }
  [[nodiscard]] size_t liveAllocations() const {
    return allocator_.liveAllocations();
  }
  [[nodiscard]] std::byte* base() { return arena_.data(); }

 private:
  std::vector<std::byte> arena_;
  FreeListAllocator allocator_;
  size_t peak_used_ = 0;
};

/// Typed view into shared memory; accesses charge shared-access costs.
template <typename T>
class SharedSpan {
 public:
  SharedSpan() = default;
  SharedSpan(T* data, size_t size) : data_(data), size_(size) {}

  [[nodiscard]] size_t size() const { return size_; }

  T get(ThreadCtx& t, size_t i) const;
  void set(ThreadCtx& t, size_t i, T value) const;
  [[nodiscard]] T& raw(size_t i) const { return data_[i]; }
  [[nodiscard]] T* data() const { return data_; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace simtomp::gpusim
