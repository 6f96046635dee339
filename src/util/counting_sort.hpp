// A stable counting sort split over the lanes of a thread pool.
//
// The input is a run of units (items, states or sources) cut into
// contiguous parts, in order.  Each part counts its items per key into
// counters of its own; a prefix sum per (key, part), in part order, turns
// the counters into each part's first slot per key; then each part places
// its items at its own cursors.  A key's items therefore land in part
// order and, within a part, in the order the part walks them: the sort is
// stable, and its output is the same for every cut.  The parts count and
// place concurrently, so the callbacks may write only the part's own items'
// slots and state of their own; the prefix sum runs on the calling thread.
//
// split_parts cuts the units: one part at one lane, or when the input is
// too small to pay for a fork, else up to one part per lane, of about equal
// weight.  run_parts runs the parts over the lanes (the exploration engine
// and the generator's fill run their tasks through it too), inline at one
// lane or for one part.  NoInit leaves the arrays the parts write whole
// unzeroed, so that the lanes, not the calling thread, first touch them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace choreo::util {

/// The lanes a split sort may use: `count` lanes of `pool`, the calling
/// thread among them; a null pool means ThreadPool::shared().
struct Lanes {
  ThreadPool* pool = nullptr;
  std::size_t count = 1;

  /// The lanes of a loop that asks for `threads` lanes of `pool`: 0 means
  /// every lane of the pool, its workers and the calling thread.
  static Lanes of(ThreadPool* pool, std::size_t threads) {
    ThreadPool& resolved = pool != nullptr ? *pool : ThreadPool::shared();
    return {&resolved,
            threads == 0 ? resolved.worker_count() + 1 : threads};
  }
};

/// An allocator whose value-initialising resize() leaves the elements
/// uninitialised, for the arrays a sort's parts write whole: their pages are
/// then first touched by the lanes that write them, not zeroed serially.  In
/// a repeated job that first touch no longer faults either: the heap keeps
/// the previous job's pages (util/retained_memory.hpp).
template <typename T>
struct NoInit : std::allocator<T> {
  NoInit() = default;
  template <typename U>
  NoInit(const NoInit<U>&) noexcept {}
  template <typename U>
  struct rebind {
    using other = NoInit<U>;
  };
  template <typename U, typename... Args>
  void construct(U* at, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(at)) U;
    } else {
      ::new (static_cast<void*>(at)) U(std::forward<Args>(args)...);
    }
  }
};

/// A vector whose resize() leaves new elements uninitialised.
template <typename T>
using NoInitVector = std::vector<T, NoInit<T>>;

/// The least weight a part is given when an input is split.
inline constexpr std::size_t kMinPartWeight = std::size_t{1} << 15;

/// Part boundaries over units [0, units): `start(u)` is the weight of the
/// units before u (nondecreasing, start(units) the total weight).  Returns
/// p + 1 boundaries for p parts, each part at least kMinPartWeight heavy
/// and at most one per lane, cut where the weight crosses an equal share.
template <typename Start>
std::vector<std::size_t> split_parts(std::size_t units, const Lanes& lanes,
                                     Start start) {
  const std::size_t total = start(units);
  const std::size_t parts = std::clamp<std::size_t>(
      total / kMinPartWeight, 1, std::max<std::size_t>(lanes.count, 1));
  std::vector<std::size_t> bounds(parts + 1, units);
  bounds[0] = 0;
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t share = total / parts * p + total % parts * p / parts;
    std::size_t low = bounds[p - 1];
    std::size_t high = units;
    while (low < high) {
      const std::size_t middle = low + (high - low) / 2;
      if (start(middle) < share) {
        low = middle + 1;
      } else {
        high = middle;
      }
    }
    bounds[p] = low;
  }
  return bounds;
}

/// Parts of equal unit counts: split_parts with every unit weighing one.
inline std::vector<std::size_t> split_parts(std::size_t units,
                                            const Lanes& lanes) {
  return split_parts(units, lanes, [](std::size_t u) { return u; });
}

/// Runs body(p) for every part p < parts: inline, in order, for one part
/// or one lane, else as tasks the lanes pull one at a time.
template <typename Body>
void run_parts(std::size_t parts, const Lanes& lanes, Body&& body) {
  if (parts <= 1 || lanes.count <= 1) {
    for (std::size_t p = 0; p < parts; ++p) body(p);
    return;
  }
  ThreadPool& pool = lanes.pool != nullptr ? *lanes.pool : ThreadPool::shared();
  pool.parallel_for_dynamic(parts, 1, lanes.count,
                            [&](std::size_t begin, std::size_t end) {
                              for (std::size_t p = begin; p < end; ++p) body(p);
                            });
}

/// Accepts every running total.
struct AnyTotal {
  void operator()(std::size_t) const noexcept {}
};

/// A stable counting sort over `keys` keys of the items of the parts
/// [bounds[p], bounds[p + 1]), with Offset-typed slots.
template <typename Offset>
class CountingSort {
 public:
  /// The count step: count(begin, end, counts) adds each item of the units
  /// [begin, end) to counts[key] (the part's `keys` counters, zeroed).  Then
  /// the prefix sums, key by key, calling check(running) with the slots
  /// taken once each key's are summed, so that the caller can bound them.
  template <typename Count, typename Check = AnyTotal>
  CountingSort(std::size_t keys, std::vector<std::size_t> bounds,
               const Lanes& lanes, Count&& count, Check&& check = {})
      : bounds_(std::move(bounds)),
        lanes_(lanes),
        cursors_(bounds_.size() - 1) {
    run_parts(cursors_.size(), lanes_, [&](std::size_t p) {
      cursors_[p].assign(keys, 0);
      count(bounds_[p], bounds_[p + 1], cursors_[p].data());
    });
    offsets_.resize(keys + 1);
    std::size_t running = 0;
    for (std::size_t k = 0; k < keys; ++k) {
      offsets_[k] = static_cast<Offset>(running);
      for (std::vector<Offset>& cursor : cursors_) {
        const std::size_t items = cursor[k];
        cursor[k] = static_cast<Offset>(running);
        running += items;
      }
      check(running);
    }
    offsets_[keys] = static_cast<Offset>(running);
  }

  /// Key k's slots are [offsets()[k], offsets()[k + 1]); keys + 1 entries,
  /// the last the item count.  The caller may move them out.
  std::vector<Offset>& offsets() noexcept { return offsets_; }

  /// The place step: place(begin, end, cursor) writes each item of the
  /// units [begin, end), in order, at slot cursor[key]++.
  template <typename Place>
  void place(Place&& place) {
    run_parts(cursors_.size(), lanes_, [&](std::size_t p) {
      place(bounds_[p], bounds_[p + 1], cursors_[p].data());
    });
  }

 private:
  std::vector<std::size_t> bounds_;
  Lanes lanes_;
  /// Per part: its counters, then its cursors.
  std::vector<std::vector<Offset>> cursors_;
  std::vector<Offset> offsets_;
};

}  // namespace choreo::util
