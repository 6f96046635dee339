#include "util/retained_memory.hpp"

#include <sys/mman.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <climits>
#include <mutex>
#include <new>
#include <utility>

namespace choreo::util {

namespace {

/// glibc's largest mmap threshold on 64-bit hosts (DEFAULT_MMAP_THRESHOLD_MAX).
constexpr std::size_t kMmapThreshold = std::size_t{32} << 20;
static_assert(kMaxRetainedBytes <= INT_MAX, "mallopt takes an int");

std::mutex spare_mutex;
Mapping spare;  // guarded by spare_mutex

void unmap(Mapping mapping) noexcept {
  if (mapping.data != nullptr) munmap(mapping.data, mapping.bytes);
}

Mapping hinted(void* data, std::size_t bytes) {
  if (data == MAP_FAILED) throw std::bad_alloc();
  madvise(data, bytes, MADV_HUGEPAGE);
  return {data, bytes};
}

}  // namespace

bool retain_freed_heap() {
  static const bool governs = [] {
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
    const bool mmap_set =
        mallopt(M_MMAP_THRESHOLD, static_cast<int>(kMmapThreshold)) == 1;
    const bool trim_set =
        mallopt(M_TRIM_THRESHOLD, static_cast<int>(kMaxRetainedBytes)) == 1;
    return mmap_set && trim_set;
#else
    return false;
#endif
  }();
  return governs;
}

Mapping grow_mapping(Mapping mapping, std::size_t bytes) {
  const bool takes_spare = mapping.data == nullptr;
  if (takes_spare) {
    const std::lock_guard lock(spare_mutex);
    mapping = std::exchange(spare, {});
  }
  if (mapping.bytes >= bytes) return mapping;
  void* grown = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  // The pages move onto a range mapped first, never onto one mremap picks:
  // the thread sanitizer intercepts mmap and munmap but not mremap, and a
  // range whose new life began unseen would still carry the accesses of
  // its last user, perhaps another thread's.
  if (grown != MAP_FAILED && mapping.data != nullptr &&
      mremap(mapping.data, mapping.bytes, bytes,
             MREMAP_MAYMOVE | MREMAP_FIXED, grown) == MAP_FAILED) {
    munmap(grown, bytes);
    grown = MAP_FAILED;
  }
  // When growing fails a caller's mapping stays the caller's, as it was; a
  // taken spare is dropped.
  if (grown == MAP_FAILED && takes_spare) unmap(mapping);
  return hinted(grown, bytes);
}

void retire_mapping(Mapping mapping) noexcept {
  if (mapping.bytes <= kMaxRetainedBytes) {
    const std::lock_guard lock(spare_mutex);
    if (mapping.bytes > spare.bytes) std::swap(mapping, spare);
  }
  unmap(mapping);
}

void release_spare_mapping() noexcept {
  Mapping released;
  {
    const std::lock_guard lock(spare_mutex);
    released = std::exchange(spare, {});
  }
  unmap(released);
}

}  // namespace choreo::util
