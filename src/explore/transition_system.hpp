// The shared labelled transition system of a derived state space, stored in
// CSR (compressed sparse row) form, following Ding & Hillston's move from
// syntactic state spaces to compact numerical representations.
//
// The exploration engine emits transitions grouped by source in canonical
// order, so the flat payload IS the CSR value array.  It is one anonymous
// mapping (MappedArray) that the engine's lanes write in place and the
// engine hands over, with the row boundaries its lanes write beside it.
// The action-keyed CSR index — transition positions by action id, a stable
// counting sort — is built by the first query that asks for it:
//
//   from(source)                all transitions leaving one state
//   action_transitions(action)  positions of an action's transitions, in
//                               emission order, in 32 bits each (so
//                               per-action sums accumulate in flat-scan
//                               order, bit-identical)
//   deadlock_states()           states whose CSR row is empty
//
// The record type is a template parameter: PEPA uses the minimal {source,
// target, action, rate} record, PEPA nets a wider one carrying the
// firing/local provenance.  Records are trivially copyable and expose
// `.source`, `.target`, `.rate` and, for the action index, `.action`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/counting_sort.hpp"
#include "util/error.hpp"
#include "util/retained_memory.hpp"

namespace choreo::explore {

/// Records in one anonymous private mapping that grows in place: mremap
/// moves its pages instead of copying them, and pages become resident as
/// they are written.  The mapping asks for transparent huge pages (a hint
/// the kernel may ignore): lanes write it front to back, and a 2 MiB page
/// is one fault where 4 KiB pages are 512.  Up to one granule the records
/// live on the heap instead, since a mapping's system calls cost more than
/// a small derive.  A destroyed array retires its mapping, and the next
/// array to leave the heap takes it (util/retained_memory.hpp), so a
/// repeated derive writes pages that are already resident.  Records past
/// the ones written hold whatever the mapping's last user left there.  The
/// sanitizers do not see into a mapping, so writers bound their own
/// positions.
template <typename T>
class MappedArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "mremap moves the records as bytes");

 public:
  /// A mapping's size is a whole number of granules, two at least.
  static constexpr std::size_t kGranule = std::size_t{64} << 10;

  MappedArray() = default;
  MappedArray(MappedArray&& other) noexcept { *this = std::move(other); }
  MappedArray& operator=(MappedArray&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(bytes_, other.bytes_);
    return *this;
  }
  ~MappedArray() {
    mapped() ? util::retire_mapping({data_, bytes_}) : std::free(data_);
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t capacity() const noexcept { return bytes_ / sizeof(T); }

  /// Grows the capacity to at least `count` records, at least doubling it.
  /// Records held keep their values; their address may change.
  void reserve(std::size_t count) {
    if (count <= capacity()) return;
    std::size_t bytes = std::max(count * sizeof(T), 2 * bytes_);
    if (bytes <= kGranule) {
      void* grown = std::realloc(data_, bytes);
      if (grown == nullptr) throw std::bad_alloc();
      data_ = static_cast<T*>(grown);
      bytes_ = bytes;
      return;
    }
    bytes = (bytes + kGranule - 1) / kGranule * kGranule;
    const util::Mapping grown = util::grow_mapping(
        mapped() ? util::Mapping{data_, bytes_} : util::Mapping{}, bytes);
    if (!mapped()) {  // leaves the heap
      if (bytes_ != 0) std::memcpy(grown.data, data_, bytes_);
      std::free(data_);
    }
    data_ = static_cast<T*>(grown.data);
    bytes_ = grown.bytes;
  }

 private:
  bool mapped() const noexcept { return bytes_ > kGranule; }

  T* data_ = nullptr;
  std::size_t bytes_ = 0;
};

template <typename Transition>
class TransitionSystem {
 public:
  /// Takes the explored transitions, the first `count` records of `array`
  /// in canonical emission order (grouped by source), and their source-row
  /// index: row_offsets[s] .. row_offsets[s + 1] are the transitions
  /// leaving state s, for every state s < row_offsets.size() - 1.  Throws
  /// util::ModelError when the transition positions do not fit in 32 bits.
  void assign(MappedArray<Transition> array, std::size_t count,
              std::vector<std::size_t> row_offsets) {
    CHOREO_ASSERT(!row_offsets.empty() && row_offsets.back() == count &&
                  count <= array.capacity());
    if (count > kMaxTransitions) {
      throw util::ModelError(
          "transition system of " + std::to_string(count) +
          " transitions is too large for 32-bit transition positions");
    }
    array_ = std::move(array);
    size_ = count;
    row_offsets_ = std::move(row_offsets);
    action_index_ = std::make_unique<LazyActionIndex>();
  }

  std::size_t size() const noexcept { return size_; }

  /// States covered by the row index (set by assign()).
  std::size_t state_count() const noexcept {
    return row_offsets_.empty() ? 0 : row_offsets_.size() - 1;
  }

  /// The flat payload, in canonical emission order (grouped by source).
  std::span<const Transition> transitions() const noexcept {
    return {array_.data(), size_};
  }

  /// The source-row index: row_offsets()[s] .. row_offsets()[s + 1] are the
  /// positions of the transitions leaving state s.
  std::span<const std::size_t> row_offsets() const noexcept {
    return row_offsets_;
  }

  /// CSR row slice: every transition leaving `source`.
  std::span<const Transition> from(std::size_t source) const {
    return transitions().subspan(
        row_offsets_[source], row_offsets_[source + 1] - row_offsets_[source]);
  }

  /// Positions (into transitions(), in emission order) of the transitions
  /// carrying `action`; empty for actions no transition carries.  The first
  /// call builds the index on the calling thread, O(transitions + actions);
  /// concurrent first calls build it once.
  std::span<const std::uint32_t> action_transitions(std::size_t action) const {
    const ActionIndex& index = action_index();
    if (action + 1 >= index.offsets.size()) return {};
    return std::span<const std::uint32_t>(index.positions)
        .subspan(index.offsets[action],
                 index.offsets[action + 1] - index.offsets[action]);
  }

  /// States enabling no move at all — the empty rows of the source index.
  std::vector<std::size_t> deadlock_states() const {
    std::vector<std::size_t> out;
    for (std::size_t s = 0; s < state_count(); ++s) {
      if (row_offsets_[s] == row_offsets_[s + 1]) out.push_back(s);
    }
    return out;
  }

  /// Steady-state throughput of `action`: sum of distribution[source] * rate
  /// over the action's slice, in emission order.
  template <typename Distribution>
  double action_throughput(const Distribution& distribution,
                           std::size_t action) const {
    double sum = 0.0;
    for (const std::uint32_t i : action_transitions(action)) {
      sum += distribution[array_.data()[i].source] * array_.data()[i].rate;
    }
    return sum;
  }

 private:
  static constexpr std::size_t kMaxTransitions = 0xFFFFFFFFu;  ///< 32 bits

  /// offsets[a]..offsets[a+1]: the slice of `positions` holding the
  /// positions of action a's transitions, in emission order.
  struct ActionIndex {
    std::vector<std::size_t> offsets;
    std::vector<std::uint32_t> positions;
  };
  /// The once-flag pins its address, so it lives on the heap with the
  /// index it guards and the system stays movable.
  struct LazyActionIndex {
    std::once_flag built;
    ActionIndex index;
  };

  const ActionIndex& action_index() const {
    std::call_once(action_index_->built, [this] {
      const Transition* records = array_.data();
      std::size_t actions = 0;
      for (std::size_t i = 0; i < size_; ++i) {
        actions = std::max<std::size_t>(actions, records[i].action + 1);
      }
      util::CountingSort<std::size_t> sort(
          actions, util::split_parts(size_, {}), {},
          [records](std::size_t begin, std::size_t end, std::size_t* counts) {
            for (std::size_t i = begin; i < end; ++i) ++counts[records[i].action];
          });
      ActionIndex& index = action_index_->index;
      index.positions.resize(size_);
      sort.place([&](std::size_t begin, std::size_t end, std::size_t* cursor) {
        for (std::size_t i = begin; i < end; ++i) {
          index.positions[cursor[records[i].action]++] =
              static_cast<std::uint32_t>(i);
        }
      });
      index.offsets = std::move(sort.offsets());
    });
    return action_index_->index;
  }

  MappedArray<Transition> array_;
  std::size_t size_ = 0;
  /// row_offsets_[s]..row_offsets_[s+1]: the transitions leaving state s.
  std::vector<std::size_t> row_offsets_;
  std::unique_ptr<LazyActionIndex> action_index_ =
      std::make_unique<LazyActionIndex>();
};

}  // namespace choreo::explore
