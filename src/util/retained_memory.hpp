// Memory a finished job leaves mapped for the next one.
//
// The batch tool, the service and a designer's edit-and-analyse loop run
// job after job in one process, and consecutive jobs need about the same
// working set.  By default glibc gives a job's freed heap back to the
// kernel and unmaps its large arrays, so the next job faults every page in
// again, zeroed by the kernel: thousands of minor faults a job.  This
// module keeps that memory for the next job instead, up to one bound,
// kMaxRetainedBytes:
//
//   - the heap policy (retain_freed_heap): arrays up to glibc's largest
//     mmap threshold, 32 MiB, live in the heap, and the heap trims its top
//     only past the bound.  Both settings are pinned together: pinning one
//     turns off glibc's dynamic adjustment of the other.
//   - one spare mapping: a retired anonymous mapping (retire_mapping) is
//     kept for the next caller that asks for a new one (grow_mapping),
//     which grows it with mremap when it needs more room.  Of two retired
//     mappings the larger is kept; one past the bound is unmapped.
//
// A reused page holds what its last user wrote, so only memory whose every
// byte is written before it is read may come from here.
#pragma once

#include <cstddef>

namespace choreo::util {

/// The most freed memory the process keeps for its next job: the heap's
/// trim threshold, and the largest spare mapping kept.
inline constexpr std::size_t kMaxRetainedBytes = std::size_t{256} << 20;

/// Sets the heap policy, once per process; later calls change nothing.
/// Returns whether it governs the allocator: false on C libraries other
/// than glibc and under the sanitizers, whose allocators ignore it.
bool retain_freed_heap();

/// An anonymous private read-write mapping; empty when data is null.
struct Mapping {
  void* data = nullptr;
  std::size_t bytes = 0;
};

/// Grows `mapping` to at least `bytes` bytes (a whole number of pages),
/// keeping its contents, and asks for transparent huge pages on it.  An
/// empty mapping takes the spare when there is one (whole, so it may be
/// larger than asked, or grown when it is too small), else a fresh one.
/// Throws std::bad_alloc when the kernel refuses; a mapping passed in is
/// then left as it was.
Mapping grow_mapping(Mapping mapping, std::size_t bytes);

/// Hands a mapping back: it becomes the spare unless the spare is larger
/// or it exceeds kMaxRetainedBytes; the mapping not kept is unmapped.
void retire_mapping(Mapping mapping) noexcept;

/// Unmaps the spare, so that resident-set readings show only live memory.
void release_spare_mapping() noexcept;

}  // namespace choreo::util
