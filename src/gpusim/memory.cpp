#include "gpusim/memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>

namespace simtomp::gpusim {

namespace {
size_t alignUp(size_t value, size_t align) {
  return (value + align - 1) & ~(align - 1);
}
}  // namespace

FreeListAllocator::FreeListAllocator(size_t capacity) : capacity_(capacity) {
  if (capacity > 0) free_list_.push_back({0, capacity});
}

Result<DevPtr> FreeListAllocator::allocate(size_t bytes, size_t align) {
  if (bytes == 0) {
    return Status::invalidArgument("zero-byte allocation");
  }
  if (align == 0 || (align & (align - 1)) != 0) {
    return Status::invalidArgument("alignment must be a power of two");
  }
  for (size_t i = 0; i < free_list_.size(); ++i) {
    Block& fb = free_list_[i];
    const DevPtr aligned = alignUp(fb.offset, align);
    const size_t padding = aligned - fb.offset;
    if (fb.size < padding + bytes) continue;

    // Split: [fb.offset, aligned) stays free, allocation at `aligned`,
    // remainder re-enters the free list.
    const size_t remainder = fb.size - padding - bytes;
    const DevPtr result = aligned;
    if (padding > 0 && remainder > 0) {
      fb.size = padding;
      free_list_.insert(free_list_.begin() + static_cast<long>(i) + 1,
                        {aligned + bytes, remainder});
    } else if (padding > 0) {
      fb.size = padding;
    } else if (remainder > 0) {
      fb.offset = aligned + bytes;
      fb.size = remainder;
    } else {
      free_list_.erase(free_list_.begin() + static_cast<long>(i));
    }
    const auto pos = std::lower_bound(
        live_.begin(), live_.end(), result,
        [](const Block& b, DevPtr p) { return b.offset < p; });
    live_.insert(pos, {result, bytes});
    return result;
  }
  return Status::resourceExhausted("memory arena exhausted");
}

Status FreeListAllocator::free(DevPtr ptr) {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), ptr,
      [](const Block& b, DevPtr p) { return b.offset < p; });
  if (it == live_.end() || it->offset != ptr) {
    return Status::invalidArgument("free of unknown pointer");
  }
  Block fb{it->offset, it->size};
  live_.erase(it);

  // Insert sorted and coalesce with neighbours.
  auto pos = std::lower_bound(
      free_list_.begin(), free_list_.end(), fb.offset,
      [](const Block& b, DevPtr p) { return b.offset < p; });
  pos = free_list_.insert(pos, fb);
  if (pos + 1 != free_list_.end() &&
      pos->offset + pos->size == (pos + 1)->offset) {
    pos->size += (pos + 1)->size;
    free_list_.erase(pos + 1);
  }
  if (pos != free_list_.begin()) {
    auto prev = pos - 1;
    if (prev->offset + prev->size == pos->offset) {
      prev->size += pos->size;
      free_list_.erase(pos);
    }
  }
  return Status::ok();
}

size_t FreeListAllocator::bytesInUse() const {
  size_t total = 0;
  for (const Block& b : live_) total += b.size;
  return total;
}

DeviceMemory::DeviceMemory(size_t bytes) : allocator_(bytes) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  if (bytes > SIZE_MAX - 3 * page) throw std::bad_alloc();
  const size_t body = alignUp(bytes, page);
  // Map everything inaccessible, then open the arena between the guard
  // pages. The arena is private and writable, so the kernel charges it
  // to the commit limit here (no MAP_NORESERVE): an arena it cannot
  // back fails now, not at some later first touch.
  void* map = mmap(nullptr, body + 2 * page, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  mapping_ = static_cast<std::byte*>(map);
  mapping_bytes_ = body + 2 * page;
  arena_ = mapping_ + page;
  if (mprotect(arena_, body, PROT_READ | PROT_WRITE) != 0) {
    munmap(mapping_, mapping_bytes_);
    throw std::bad_alloc();
  }
}

DeviceMemory::~DeviceMemory() { munmap(mapping_, mapping_bytes_); }

Result<DevPtr> DeviceMemory::allocate(size_t bytes, size_t align) {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocator_.allocate(bytes, align);
}

Status DeviceMemory::free(DevPtr ptr) {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocator_.free(ptr);
}

size_t DeviceMemory::bytesInUse() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocator_.bytesInUse();
}

size_t DeviceMemory::liveAllocations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocator_.liveAllocations();
}

std::byte* SharedMemory::allocate(size_t bytes, size_t align) {
  auto ptr = allocator_.allocate(bytes, align);
  if (!ptr.isOk()) return nullptr;
  const size_t in_use = allocator_.bytesInUse();
  if (in_use > peak_used_) peak_used_ = in_use;
  return arena_.data() + ptr.value();
}

Status SharedMemory::free(const std::byte* ptr) {
  if (ptr < arena_.data() || ptr >= arena_.data() + arena_.size()) {
    return Status::invalidArgument("pointer outside this shared arena");
  }
  return allocator_.free(static_cast<DevPtr>(ptr - arena_.data()));
}

}  // namespace simtomp::gpusim
