// Dense per-id slots with segments allocated on demand and lock-free access.
//
// A SlotArray maps a 32-bit id (in practice a pepa::ProcessId) to one
// value-initialised slot.  Segments grow geometrically like
// util::SegmentedVector's, but a segment is allocated the first time any of
// its ids is touched rather than by appends, so the slot of every id exists
// as soon as it is asked for.  Concurrent memo tables keyed by node id
// (pepa::Semantics, pepa::Canonicalizer) index straight into it: no hashing,
// no lock, no per-entry allocation.  Slots never move and are freed only
// with the array; what they hold is the caller's business, typically
// atomics published by compare-and-swap.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace choreo::util {

template <typename Slot>
class SlotArray {
 public:
  /// Segment s holds 2^(kFirstSegmentLog2 + s) slots; 24 segments cover
  /// more than 2^33 ids, so every 32-bit id has a slot.
  static constexpr std::size_t kFirstSegmentLog2 = 10;
  static constexpr std::size_t kSegments = 24;

  SlotArray() = default;
  ~SlotArray() {
    for (auto& segment : segments_) delete[] segment.load(std::memory_order_acquire);
  }

  SlotArray(const SlotArray&) = delete;
  SlotArray& operator=(const SlotArray&) = delete;

  /// The slot of `id`, value-initialised on first touch.  Thread-safe and
  /// lock-free; allocates only when `id` is the first of its segment to be
  /// touched (racing allocations keep the first published segment).
  Slot& operator[](std::uint32_t id) {
    const std::size_t s = segment_of(id);
    Slot* segment = segments_[s].load(std::memory_order_acquire);
    if (segment == nullptr) segment = allocate(s);
    return segment[id - segment_base(s)];
  }

 private:
  /// Segment s covers ids [base(s), base(s) + capacity(s)) where
  /// base(s) = first * (2^s - 1) and capacity(s) = first * 2^s.
  static constexpr std::size_t segment_capacity(std::size_t s) {
    return std::size_t{1} << (kFirstSegmentLog2 + s);
  }
  static constexpr std::size_t segment_base(std::size_t s) {
    return ((std::size_t{1} << s) - 1) << kFirstSegmentLog2;
  }
  static constexpr std::size_t segment_of(std::size_t id) {
    return std::bit_width((id >> kFirstSegmentLog2) + 1) - 1;
  }

  Slot* allocate(std::size_t s) {
    Slot* fresh = new Slot[segment_capacity(s)]();
    Slot* published = nullptr;
    if (segments_[s].compare_exchange_strong(published, fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;
    return published;
  }

  std::array<std::atomic<Slot*>, kSegments> segments_{};
};

}  // namespace choreo::util
