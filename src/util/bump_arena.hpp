// A concurrent bump allocator whose memory is released all at once.
//
// Memo tables that only ever grow (pepa::Semantics' derivative lists and
// apparent-rate entries) allocate their records here instead of one heap
// block each: an allocation is a pointer bump inside the calling thread's
// current chunk, and destroying the arena frees a handful of chunks instead
// of every record one by one.  Objects placed here are never destroyed, so
// they must be trivially destructible.
//
// Each thread bumps through a lane of its own.  A thread claims a free lane
// with one compare-and-swap the first time it allocates here and keeps it
// for the arena's lifetime, so the fast path takes no lock and shares no
// cache line.  Threads beyond kLanes share one extra lane behind a mutex.
// A lane's chunks start at kFirstChunk bytes and double up to kMaxChunk, so
// an arena that stores a few records costs one small heap block, not an
// mmap.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>

namespace choreo::util {

class BumpArena {
 public:
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kFirstChunk = std::size_t{4} << 10;
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 20;

  BumpArena() = default;
  ~BumpArena() {
    for (Chunk* chunk = chunks_.load(std::memory_order_acquire);
         chunk != nullptr;) {
      Chunk* next = chunk->next;
      ::operator delete(chunk, std::align_val_t(kChunkAlign));
      chunk = next;
    }
  }

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  /// `bytes` of uninitialised storage aligned to `align` (a power of two no
  /// larger than alignof(std::max_align_t)), valid until the arena is
  /// destroyed.  Thread-safe.
  void* allocate(std::size_t bytes, std::size_t align) {
    const std::uint64_t token = thread_token();
    for (Lane& lane : lanes_) {
      std::uint64_t owner = lane.owner.load(std::memory_order_acquire);
      if (owner == 0 &&
          lane.owner.compare_exchange_strong(owner, token,
                                             std::memory_order_acq_rel)) {
        owner = token;
      }
      if (owner == token) return bump(lane, bytes, align);
    }
    std::lock_guard lock(shared_mutex_);
    return bump(shared_, bytes, align);
  }

  /// Bytes obtained from the heap so far (chunk headers included).
  std::size_t reserved_bytes() const noexcept {
    return reserved_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kChunkAlign = alignof(std::max_align_t);

  struct Chunk {
    Chunk* next;
  };
  static constexpr std::size_t kHeader =
      (sizeof(Chunk) + kChunkAlign - 1) / kChunkAlign * kChunkAlign;

  struct alignas(64) Lane {
    std::atomic<std::uint64_t> owner{0};  ///< thread token; 0 = unclaimed
    std::uintptr_t cursor = 0;
    std::uintptr_t end = 0;
    std::size_t next_chunk = kFirstChunk;
  };

  /// A process-wide, never-reused, non-zero id for the calling thread.
  static std::uint64_t thread_token() {
    static std::atomic<std::uint64_t> next{1};
    thread_local const std::uint64_t token =
        next.fetch_add(1, std::memory_order_relaxed);
    return token;
  }

  void* bump(Lane& lane, std::size_t bytes, std::size_t align) {
    std::uintptr_t at = (lane.cursor + align - 1) & ~(align - 1);
    if (lane.cursor == 0 || at + bytes > lane.end) {
      const std::size_t size = std::max(lane.next_chunk, kHeader + bytes);
      lane.next_chunk = std::min(lane.next_chunk * 2, kMaxChunk);
      auto* chunk = static_cast<Chunk*>(
          ::operator new(size, std::align_val_t(kChunkAlign)));
      chunk->next = chunks_.load(std::memory_order_relaxed);
      while (!chunks_.compare_exchange_weak(chunk->next, chunk,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
      }
      reserved_.fetch_add(size, std::memory_order_relaxed);
      lane.cursor = reinterpret_cast<std::uintptr_t>(chunk) + kHeader;
      lane.end = reinterpret_cast<std::uintptr_t>(chunk) + size;
      at = lane.cursor;  // kHeader keeps the chunk alignment
    }
    lane.cursor = at + bytes;
    return reinterpret_cast<void*>(at);
  }

  std::array<Lane, kLanes> lanes_;
  std::mutex shared_mutex_;
  Lane shared_;  ///< guarded by shared_mutex_
  std::atomic<Chunk*> chunks_{nullptr};
  std::atomic<std::size_t> reserved_{0};
};

}  // namespace choreo::util
