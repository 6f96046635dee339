// Infinitesimal generator matrices of Continuous-Time Markov Chains.
//
// A Generator is built from the labelled transitions produced by PEPA /
// PEPA-net state-space derivation: parallel transitions between the same
// pair of states accumulate, and the diagonal holds the negated exit rates.
//
// Every generator is assembled by one serial, row-wise pass (assemble()):
// the transitions are validated in input order, bucketed by source with a
// stable counting sort (skipped when they already arrive grouped by source,
// as derived spaces do), and each row is merged by CsrBuilder with its
// diagonal written in place as the negated exit sum in input order.  Q^T is
// a counting transpose of Q.  build_from() reads any contiguous
// transition-like records (anything exposing .source, .target and .rate —
// in particular the payload of an explore::TransitionSystem) in place, so
// building the generator of a derived state space needs no intermediate
// copy of the transition vector; its rate-span overload takes the rates
// from a separate array instead, which is how a sweep point's rates are
// assembled over the shared structure.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
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

  /// Same, except that transition i's rate is rates[i] rather than its own
  /// .rate: one rate payload over a shared structure.
  template <typename Transition>
  static Generator build_from(std::size_t state_count,
                              std::span<const Transition> transitions,
                              std::span<const double> rates);

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
  template <typename Transition, typename RateOf>
  static Generator assemble(std::size_t state_count,
                            std::span<const Transition> transitions,
                            RateOf rate_of);

  CsrMatrix matrix_;
  CsrMatrix transposed_;
  double max_exit_rate_ = 0.0;
};

template <typename Transition>
Generator Generator::build_from(std::size_t state_count,
                                std::span<const Transition> transitions) {
  return assemble(state_count, transitions,
                  [&](std::size_t i) { return transitions[i].rate; });
}

template <typename Transition>
Generator Generator::build_from(std::size_t state_count,
                                std::span<const Transition> transitions,
                                std::span<const double> rates) {
  CHOREO_ASSERT(rates.size() == transitions.size());
  return assemble(state_count, transitions,
                  [&](std::size_t i) { return rates[i]; });
}

template <typename Transition, typename RateOf>
Generator Generator::assemble(std::size_t state_count,
                              std::span<const Transition> transitions,
                              RateOf rate_of) {
  // Validate in input order, so the transition reported is the first bad
  // one in the caller's order.
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const Transition& t = transitions[i];
    CHOREO_ASSERT(t.source < state_count && t.target < state_count);
    const double rate = rate_of(i);
    if (!(rate > 0.0) || !std::isfinite(rate)) {
      throw util::ModelError(util::msg("transition ", t.source, " -> ",
                                       t.target, " has non-positive rate ",
                                       rate));
    }
  }
  const RowBuckets sources(state_count, transitions.size(), [&](std::size_t i) {
    return transitions[i].source;
  });

  CsrBuilder rows(state_count, transitions.size() + state_count);
  double max_exit = 0.0;
  for (std::size_t s = 0; s < state_count; ++s) {
    double exit = 0.0;
    for (std::size_t k = sources.begin(s); k < sources.end(s); ++k) {
      const std::size_t i = sources.at(k);
      const Transition& t = transitions[i];
      if (t.target == s) continue;  // a self-loop does not change the CTMC
      const double rate = rate_of(i);
      rows.add(t.target, rate);
      exit += rate;
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

}  // namespace choreo::ctmc
