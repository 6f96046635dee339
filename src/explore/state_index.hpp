// The exploration engine's state index: a flat open-addressing table that
// maps a state to its id without owning the states themselves.
//
// Each slot is {32-bit hash tag, 32-bit state id} — the layout
// pepa::ProcessArena uses for its intern stripes — so a slot is eight bytes
// and an indexed state allocates nothing of its own.  The home slot is
// picked by the tag's low bits and collisions probe linearly; the table is
// kept at most half full and regrows by re-homing slots from their tags, so
// growth never rehashes a state.  Equality is the caller's: a lookup takes
// the state's hash and a predicate that compares a candidate id against the
// state (typically `states[id] == state`).
//
// Concurrency is by phase, not by lock: explore::run's expansion lanes call
// find() while no thread writes, and only the serial phase between levels
// calls insert().  The fork/join of the level orders the two.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace choreo::explore {

class StateIndex {
 public:
  /// Returned by find() for a state not in the index.
  static constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();
  /// Ids are stored in 32 bits and stay below this one, which marks an
  /// empty slot.
  static constexpr std::size_t kMaxStates = 0xFFFFFFFFu;
  /// The table's share of one state's footprint: a slot, doubled for the
  /// at-most-half-full load.
  static constexpr std::size_t kBytesPerState = 2 * 8;

  /// The id of the state with this hash for which `equals(id)` holds, or
  /// kAbsent.  Safe to call from many threads while no insert() runs.
  template <typename Equals>
  std::size_t find(std::uint64_t hash, Equals&& equals) const {
    if (slots_.empty()) return kAbsent;
    const std::uint32_t tag = tag_of(hash);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t at = tag & mask; slots_[at].id != kEmpty;
         at = (at + 1) & mask) {
      if (slots_[at].tag == tag && equals(std::size_t{slots_[at].id})) {
        return slots_[at].id;
      }
    }
    return kAbsent;
  }

  /// Indexes state `id` under `hash`; the state must not be indexed yet.
  /// Throws util::ModelError for an id that does not fit in 32 bits.
  void insert(std::uint64_t hash, std::size_t id) {
    if (id >= kMaxStates) {
      throw util::ModelError(util::msg(
          "state space of more than ", kMaxStates - 1,
          " states is too large for 32-bit state ids"));
    }
    if (2 * (count_ + 1) > slots_.size()) grow();
    const std::uint32_t tag = tag_of(hash);
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = tag & mask;
    while (slots_[at].id != kEmpty) at = (at + 1) & mask;
    slots_[at] = {tag, static_cast<std::uint32_t>(id)};
    ++count_;
  }

  /// States indexed.
  std::size_t size() const noexcept { return count_; }

  /// Heap bytes held by the table.
  std::size_t bytes() const noexcept { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kEmpty;
  };
  static_assert(sizeof(Slot) * 2 == kBytesPerState);

  /// 32 well-mixed bits of the caller's hash (the murmur3 finaliser), so a
  /// weak state hash still spreads over the table.
  static std::uint32_t tag_of(std::uint64_t hash) noexcept {
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdULL;
    hash ^= hash >> 33;
    hash *= 0xc4ceb9fe1a85ec53ULL;
    hash ^= hash >> 33;
    return static_cast<std::uint32_t>(hash);
  }

  /// Doubles the table (16 slots at first), re-homing every slot by its tag.
  void grow() {
    std::vector<Slot> grown(slots_.empty() ? 16 : 2 * slots_.size());
    const std::size_t mask = grown.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.id == kEmpty) continue;
      std::size_t home = slot.tag & mask;
      while (grown[home].id != kEmpty) home = (home + 1) & mask;
      grown[home] = slot;
    }
    slots_ = std::move(grown);
  }

  /// Power-of-two sized (or empty); at most half full.
  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

}  // namespace choreo::explore
