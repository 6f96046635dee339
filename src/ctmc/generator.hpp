// Infinitesimal generator matrices of Continuous-Time Markov Chains.
//
// A Generator is built from the labelled transitions produced by PEPA /
// PEPA-net state-space derivation: parallel transitions between the same
// pair of states accumulate, and the diagonal holds the negated exit rates.
//
// A one-off generator is assembled by one serial, row-wise pass
// (build_from()): the transitions are validated in input order, bucketed by
// source with a stable counting sort (skipped when they already arrive
// grouped by source, as derived spaces do), and each row is merged by
// CsrBuilder with its diagonal written in place as the negated exit sum in
// input order.  Q^T is a counting transpose of Q.  build_from() reads any
// contiguous transition-like records (anything exposing .source, .target
// and .rate — in particular the payload of an explore::TransitionSystem)
// in place, so building the generator of a derived state space needs no
// intermediate copy of the transition vector.
//
// Generators of one transition structure at many rate payloads (the points
// of a sweep) go through a GeneratorPattern instead.  With every rate
// positive, the sparsity of Q and Q^T does not depend on the rates, so the
// pattern records it once from a generator build_from() assembled: each
// transition's Q entry and its source's diagonal entry, and each Q entry's
// Q^T slot.  fill() then writes a payload's values with no sort or merge,
// scatter-adding the rates in input order — the additions build_from()
// makes, in the same order, so both routes give bit-identical matrices.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ctmc/sparse.hpp"
#include "util/error.hpp"

namespace choreo::ctmc {

/// A rated transition between two CTMC states.
struct RatedTransition {
  std::size_t source;
  std::size_t target;
  double rate;
};

class Generator {
 public:
  Generator() = default;

  /// Builds the generator of a CTMC with `state_count` states from rated
  /// transitions.  Self-loops are dropped (they do not affect the CTMC).
  /// Throws util::ModelError naming the first transition, in input order,
  /// whose rate is not positive and finite.
  static Generator build(std::size_t state_count,
                         const std::vector<RatedTransition>& transitions);

  /// Same assembly over any transition-like records (.source/.target/.rate),
  /// e.g. the payload of a derived explore::TransitionSystem, without
  /// copying into RatedTransition first.
  template <typename Transition>
  static Generator build_from(std::size_t state_count,
                              std::span<const Transition> transitions);

  std::size_t state_count() const noexcept { return matrix_.size(); }
  const CsrMatrix& matrix() const noexcept { return matrix_; }
  /// Q transposed, which the iterative steady-state solvers run on.
  const CsrMatrix& matrix_transposed() const noexcept { return transposed_; }

  /// Total exit rate of a state (= -Q[state][state]).
  double exit_rate(std::size_t state) const;
  /// Largest exit rate over all states (the uniformisation constant basis).
  double max_exit_rate() const noexcept { return max_exit_rate_; }

  /// States with no outgoing transitions.  A deadlocked state makes the
  /// steady-state distribution degenerate; PEPA tooling reports these.
  std::vector<std::size_t> absorbing_states() const;

  /// Verifies row sums vanish (within tolerance) and off-diagonal entries
  /// are non-negative; throws util::NumericError otherwise.
  void validate(double tolerance = 1e-9) const;

 private:
  friend class GeneratorPattern;

  CsrMatrix matrix_;
  CsrMatrix transposed_;
  double max_exit_rate_ = 0.0;
};

/// The sparsity of a generator, recorded once so that the generators of the
/// same transitions at other positive rates are filled in place.  Immutable
/// after construction: concurrent fills share one pattern.
class GeneratorPattern {
 public:
  GeneratorPattern() = default;

  /// Records the pattern of `base`, the generator build_from() assembled
  /// from `transitions` (at any rates).  Throws util::ModelError when Q has
  /// too many entries for 32-bit indices.
  template <typename Transition>
  GeneratorPattern(const Generator& base,
                   std::span<const Transition> transitions);

  /// The generator of the recorded transitions with transition i at rate
  /// rates[i]: bit-identical to build_from() over the same transitions
  /// carrying those rates, with the same error for the first rate, in input
  /// order, that is not positive and finite.
  template <typename Transition>
  Generator fill(std::span<const Transition> transitions,
                 std::span<const double> rates) const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Where one transition's rate goes: its Q entry and its source's
  /// diagonal entry, which accumulates the exit sum (both kNone for a
  /// self-loop).
  struct Slots {
    std::uint32_t entry;
    std::uint32_t diagonal;
  };

  CsrMatrix q_;   ///< Q's row pointers and columns; no values
  CsrMatrix qt_;  ///< Q^T's row pointers and columns; no values
  std::vector<Slots> slots_;               ///< per transition
  std::vector<std::uint32_t> diagonal_;    ///< per state; kNone: no exit
  std::vector<std::uint32_t> transposed_;  ///< per Q entry: its Q^T slot
};

namespace detail {

/// build_from()'s validation of one transition's rate.
template <typename Transition>
void check_rate(const Transition& t, double rate) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw util::ModelError(util::msg("transition ", t.source, " -> ", t.target,
                                     " has non-positive rate ", rate));
  }
}

}  // namespace detail

template <typename Transition>
Generator Generator::build_from(std::size_t state_count,
                                std::span<const Transition> transitions) {
  // Validate in input order, so the transition reported is the first bad
  // one in the caller's order.
  for (const Transition& t : transitions) {
    CHOREO_ASSERT(t.source < state_count && t.target < state_count);
    detail::check_rate(t, t.rate);
  }
  const RowBuckets sources(state_count, transitions.size(), [&](std::size_t i) {
    return transitions[i].source;
  });

  CsrBuilder rows(state_count, transitions.size() + state_count);
  double max_exit = 0.0;
  for (std::size_t s = 0; s < state_count; ++s) {
    double exit = 0.0;
    for (std::size_t k = sources.begin(s); k < sources.end(s); ++k) {
      const Transition& t = transitions[sources.at(k)];
      if (t.target == s) continue;  // a self-loop does not change the CTMC
      rows.add(t.target, t.rate);
      exit += t.rate;
    }
    // Self-loops are skipped, so the diagonal has its column to itself.
    if (exit > 0.0) rows.add(s, -exit);
    rows.finish_row();
    max_exit = std::max(max_exit, exit);
  }

  Generator generator;
  generator.matrix_ = rows.finish();
  generator.transposed_ = generator.matrix_.transposed();
  generator.max_exit_rate_ = max_exit;
  return generator;
}

template <typename Transition>
GeneratorPattern::GeneratorPattern(const Generator& base,
                                   std::span<const Transition> transitions) {
  const CsrMatrix& q = base.matrix_;
  const CsrMatrix& qt = base.transposed_;
  if (q.nonzeros() >= kNone) {
    throw util::ModelError(util::msg("a generator with ", q.nonzeros(),
                                     " entries is too large to pattern"));
  }
  const std::size_t n = q.size();
  q_.row_ptr_ = q.row_ptr_;
  q_.col_ = q.col_;
  qt_.row_ptr_ = qt.row_ptr_;
  qt_.col_ = qt.col_;

  // An entry's index in Q, by binary search in its column-sorted row.
  auto find = [&](std::size_t row, std::size_t col) {
    const auto first = q.col_.begin();
    const auto begin = first + static_cast<std::ptrdiff_t>(q.row_ptr_[row]);
    const auto end = first + static_cast<std::ptrdiff_t>(q.row_ptr_[row + 1]);
    const auto it = std::lower_bound(begin, end, col);
    return it != end && *it == col ? static_cast<std::uint32_t>(it - first)
                                   : kNone;
  };
  diagonal_.resize(n);
  for (std::size_t s = 0; s < n; ++s) diagonal_[s] = find(s, s);
  slots_.resize(transitions.size());
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const Transition& t = transitions[i];
    if (t.source == t.target) {
      slots_[i] = {kNone, kNone};
      continue;
    }
    slots_[i] = {find(t.source, t.target), diagonal_[t.source]};
    CHOREO_ASSERT(slots_[i].entry != kNone && slots_[i].diagonal != kNone);
  }

  // The counting pass of CsrMatrix::transposed(), keeping slots, not values.
  transposed_.resize(q.nonzeros());
  std::vector<std::size_t> cursor(qt.row_ptr_.begin(), qt.row_ptr_.end() - 1);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t k = q.row_ptr_[row]; k < q.row_ptr_[row + 1]; ++k) {
      transposed_[k] = static_cast<std::uint32_t>(cursor[q.col_[k]]++);
    }
  }
}

template <typename Transition>
Generator GeneratorPattern::fill(std::span<const Transition> transitions,
                                 std::span<const double> rates) const {
  CHOREO_ASSERT(transitions.size() == slots_.size() &&
                rates.size() == slots_.size());
  Generator generator;
  CsrMatrix& q = generator.matrix_;
  q.row_ptr_ = q_.row_ptr_;
  q.col_ = q_.col_;
  q.values_.assign(q_.col_.size(), 0.0);
  // Each entry, and each exit sum (held in its diagonal entry until it is
  // negated), starts from 0.0 and takes its rates in input order:
  // CsrBuilder's per-column sums and build_from()'s exit sums.  Rates are
  // validated on the way, in input order, so the first bad one is reported.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    detail::check_rate(transitions[i], rates[i]);
    const Slots slots = slots_[i];
    if (slots.entry == kNone) continue;  // a self-loop
    q.values_[slots.entry] += rates[i];
    q.values_[slots.diagonal] += rates[i];
  }
  double max_exit = 0.0;
  for (const std::uint32_t diagonal : diagonal_) {
    if (diagonal == kNone) continue;  // an exit sum of 0
    max_exit = std::max(max_exit, q.values_[diagonal]);
    q.values_[diagonal] = -q.values_[diagonal];
  }

  CsrMatrix& qt = generator.transposed_;
  qt.row_ptr_ = qt_.row_ptr_;
  qt.col_ = qt_.col_;
  qt.values_.resize(q.values_.size());
  for (std::size_t k = 0; k < q.values_.size(); ++k) {
    qt.values_[transposed_[k]] = q.values_[k];
  }
  generator.max_exit_rate_ = max_exit;
  return generator;
}

}  // namespace choreo::ctmc
