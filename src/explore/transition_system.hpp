// The shared labelled transition system of a derived state space, stored in
// CSR (compressed sparse row) form, following Ding & Hillston's move from
// syntactic state spaces to compact numerical representations.
//
// The exploration engine emits transitions grouped by source in canonical
// order, so the flat payload array IS the CSR value array, and the engine
// hands it over with its row boundaries (an offsets array indexed by
// source), which its lanes write beside the transitions.  finalize() only
// adds a second, action-keyed CSR index (a stable counting sort of
// transition positions by action id).  The two indexes make the measures
// that used to scan the whole transition vector per query O(degree) slice
// lookups:
//
//   from(source)                all transitions leaving one state
//   action_transitions(action)  positions of an action's transitions, in
//                               emission order (so per-action measure sums
//                               accumulate in the exact order the flat scan
//                               used — floating-point results are
//                               bit-identical), held in 32 bits each
//   deadlock_states()           states whose CSR row is empty
//
// The transition record type is a template parameter: PEPA uses the minimal
// {source, target, action, rate} record, PEPA nets a wider record carrying
// the firing/local provenance.  Records must expose `.source`, `.target`,
// `.action` (an integral id) and `.rate`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace choreo::explore {

template <typename Transition>
class TransitionSystem {
 public:
  using value_type = Transition;

  /// Takes the explored transitions, `count` records in canonical emission
  /// order (grouped by source), and their source-row index: row_offsets[s]
  /// .. row_offsets[s + 1] are the transitions leaving state s, for every
  /// state s < row_offsets.size() - 1.  The array is the writer's own (the
  /// engine's lanes fill one allocated for overwrite, never zero-filled).
  void assign(std::unique_ptr<Transition[]> transitions, std::size_t count,
              std::vector<std::size_t> row_offsets) {
    CHOREO_ASSERT(!row_offsets.empty() && row_offsets.back() == count);
    transitions_ = std::move(transitions);
    size_ = count;
    row_offsets_ = std::move(row_offsets);
  }

  /// Builds the action index over the assigned transitions; O(transitions
  /// + actions).  Throws util::ModelError when the transition positions do
  /// not fit in 32 bits.
  void finalize() {
    if (size_ > kMaxTransitions) {
      throw util::ModelError(
          "transition system of " + std::to_string(size_) +
          " transitions is too large for 32-bit transition positions");
    }
    // Count pass, widening the offsets as larger action ids appear.
    action_offsets_.assign(1, 0);
    const std::size_t states = state_count();
    for (const Transition& t : transitions()) {
      CHOREO_ASSERT(t.target < states);
      const auto action = static_cast<std::size_t>(t.action);
      if (action + 2 > action_offsets_.size()) {
        action_offsets_.resize(action + 2, 0);
      }
      ++action_offsets_[action + 1];
    }
    const std::size_t actions = action_offsets_.size() - 1;
    for (std::size_t a = 0; a < actions; ++a) {
      action_offsets_[a + 1] += action_offsets_[a];
    }
    // Stable counting sort: within one action, positions keep emission
    // order, so slice iteration reproduces the flat scan exactly.  Every
    // slot is written, so the array is not zero-filled first.
    by_action_ = std::make_unique_for_overwrite<std::uint32_t[]>(size_);
    std::vector<std::size_t> cursor(action_offsets_.begin(),
                                    action_offsets_.begin() + actions);
    for (std::size_t i = 0; i < size_; ++i) {
      by_action_[cursor[static_cast<std::size_t>(transitions_[i].action)]++] =
          static_cast<std::uint32_t>(i);
    }
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// States covered by the row index (set by assign()).
  std::size_t state_count() const noexcept {
    return row_offsets_.empty() ? 0 : row_offsets_.size() - 1;
  }

  /// The flat payload, in canonical emission order (grouped by source).
  std::span<const Transition> transitions() const noexcept {
    return {transitions_.get(), size_};
  }

  const Transition& operator[](std::size_t i) const { return transitions_[i]; }

  /// CSR row slice: every transition leaving `source`.
  std::span<const Transition> from(std::size_t source) const {
    return transitions().subspan(
        row_offsets_[source], row_offsets_[source + 1] - row_offsets_[source]);
  }

  std::size_t out_degree(std::size_t source) const {
    return row_offsets_[source + 1] - row_offsets_[source];
  }

  /// Distinct action-id range covered by the action index (max id + 1).
  std::size_t action_bound() const noexcept {
    return action_offsets_.empty() ? 0 : action_offsets_.size() - 1;
  }

  /// Positions (into transitions(), in emission order) of the transitions
  /// carrying `action`; empty for actions outside the index.
  std::span<const std::uint32_t> action_transitions(std::size_t action) const {
    if (action + 1 >= action_offsets_.size()) return {};
    return {by_action_.get() + action_offsets_[action],
            action_offsets_[action + 1] - action_offsets_[action]};
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
  /// over the action's slice, O(degree of the action) — independent of the
  /// total transition count.
  template <typename Distribution>
  double action_throughput(const Distribution& distribution,
                           std::size_t action) const {
    double sum = 0.0;
    for (const std::uint32_t i : action_transitions(action)) {
      sum += distribution[transitions_[i].source] * transitions_[i].rate;
    }
    return sum;
  }

 private:
  /// The largest transition count the 32-bit positions index.
  static constexpr std::size_t kMaxTransitions = 0xFFFFFFFFu;

  std::unique_ptr<Transition[]> transitions_;
  std::size_t size_ = 0;
  /// row_offsets_[s]..row_offsets_[s+1]: the transitions leaving state s.
  std::vector<std::size_t> row_offsets_;
  /// action_offsets_[a]..action_offsets_[a+1]: slice of by_action_ holding
  /// the positions of action a's transitions, in emission order.
  std::vector<std::size_t> action_offsets_;
  std::unique_ptr<std::uint32_t[]> by_action_;
};

}  // namespace choreo::explore
