// Infinitesimal generator matrices of Continuous-Time Markov Chains.
//
// A Generator is built from the labelled transitions produced by PEPA /
// PEPA-net state-space derivation: parallel transitions between the same
// pair of states accumulate, and self-loops are dropped.  It is held in the
// form the solvers sweep: Q^T without its diagonal, one row per target
// state listing that row's source states in ascending order with 32-bit
// columns, plus the per-state exit rates (the negated diagonal of Q).  Each
// row also records its split point, the first entry whose column exceeds
// the row: where the sorted row of Q^T holds its diagonal, so a product
// with Q^T adds the diagonal term there and sums in the order a full row
// would.  Q itself is built only on demand (rows()).
//
// The sparsity (Generator::Structure) is immutable and shared: every
// generator filled over one GeneratorPattern points at the same structure
// and owns only its values and exit rates.  Assembly has one path.  The
// pattern records the structure from transitions: a stable counting sort by
// source (skipped when they already arrive grouped by source, as derived
// spaces do), then a counting sort by target in which adjacent transitions
// of one source merge into one entry.  Each transition gets its entry slot
// (a self-loop none).  fill() then scatter-adds a payload's rates into the
// slots, and into the exit sums, in input order, validating each rate on
// the way; build_from() is record then fill.  Every entry and every exit
// rate is therefore the sum of its rates in input order from 0.0, whichever
// route assembled it.  build_from() reads any contiguous transition-like
// records (anything exposing .source, .target and .rate — in particular the
// payload of an explore::TransitionSystem) in place.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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

class GeneratorPattern;

class Generator {
 public:
  /// Q^T's off-diagonal sparsity.  Row j lists the states with a transition
  /// into j: columns[row_ptr[j] .. row_ptr[j + 1]), ascending, never j.
  /// split[j] is the first of them whose column exceeds j.
  struct Structure {
    std::vector<std::uint32_t> row_ptr;
    std::vector<std::uint32_t> split;
    std::vector<std::uint32_t> columns;
  };

  Generator() = default;

  /// Builds the generator of a CTMC with `state_count` states from rated
  /// transitions.  Self-loops are dropped (they do not affect the CTMC).
  /// Throws util::ModelError naming the first transition, in input order,
  /// whose rate is not positive and finite, and when the state ids or the
  /// entries do not fit in 32 bits.
  static Generator build(std::size_t state_count,
                         const std::vector<RatedTransition>& transitions);

  /// Same assembly over any transition-like records (.source/.target/.rate),
  /// e.g. the payload of a derived explore::TransitionSystem, without
  /// copying into RatedTransition first.
  template <typename Transition>
  static Generator build_from(std::size_t state_count,
                              std::span<const Transition> transitions);

  std::size_t state_count() const noexcept { return exit_.size(); }

  /// The sparsity of Q^T, shared by every generator of one pattern (an
  /// empty structure for a default-constructed generator).
  const Structure& structure() const noexcept;
  /// Q^T's off-diagonal values, index-aligned with structure().columns.
  std::span<const double> values() const noexcept { return values_; }

  /// Total exit rate of each state: its transitions' rates summed in input
  /// order, = -Q[state][state].
  std::span<const double> exit_rates() const noexcept { return exit_; }
  double exit_rate(std::size_t state) const { return exit_[state]; }
  /// Largest exit rate over all states (the uniformisation constant basis).
  double max_exit_rate() const noexcept { return max_exit_rate_; }

  /// y = Q^T x, each row summed in column order with the diagonal term
  /// -exit[j] * x[j] at the split point (none for an exit rate of 0).
  /// Parallelised over rows when the chain is large enough to amortise the
  /// fork.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// Q itself, with the diagonal in place: a counting transpose of this
  /// form, for the analyses that walk a state's outgoing rates.
  CsrMatrix rows() const;

  /// States with no outgoing transitions.  A deadlocked state makes the
  /// steady-state distribution degenerate; PEPA tooling reports these.
  std::vector<std::size_t> absorbing_states() const;

  /// Verifies row sums vanish (within tolerance) and off-diagonal entries
  /// are non-negative; throws util::NumericError otherwise.
  void validate(double tolerance = 1e-9) const;

 private:
  friend class GeneratorPattern;

  std::shared_ptr<const Structure> structure_;
  std::vector<double> values_;
  std::vector<double> exit_;
  double max_exit_rate_ = 0.0;
};

/// The sparsity of a generator, recorded once from its transitions so that
/// the generators of the same transitions at any positive rates are filled
/// in place.  Immutable after construction: concurrent fills share one
/// pattern, and the generators they return share its structure.
class GeneratorPattern {
 public:
  GeneratorPattern() = default;

  /// Records the structure of the generator of `transitions` (at any
  /// rates) over `state_count` states.  Throws util::ModelError when the
  /// state ids or the entries do not fit in 32 bits.
  template <typename Transition>
  GeneratorPattern(std::size_t state_count,
                   std::span<const Transition> transitions);

  /// The generator of the recorded transitions with transition i at rate
  /// rates[i]: bit-identical to build_from() over the same transitions
  /// carrying those rates, with the same error for the first rate, in input
  /// order, that is not positive and finite.
  template <typename Transition>
  Generator fill(std::span<const Transition> transitions,
                 std::span<const double> rates) const {
    CHOREO_ASSERT(rates.size() == slots_.size());
    return fill_with(transitions, [&](std::size_t i) { return rates[i]; });
  }

 private:
  friend class Generator;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Where one transition's rate goes: its Q^T entry (kNone for a
  /// self-loop) and its source's exit sum.
  struct Slot {
    std::uint32_t entry;
    std::uint32_t source;
  };

  template <typename Transition, typename RateOf>
  Generator fill_with(std::span<const Transition> transitions,
                      RateOf rate_of) const;

  std::shared_ptr<const Generator::Structure> structure_;
  std::vector<Slot> slots_;  ///< per transition
};

namespace detail {

/// The assembly's validation of one transition's rate.
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
  return GeneratorPattern(state_count, transitions)
      .fill_with(transitions,
                 [&](std::size_t i) { return transitions[i].rate; });
}

template <typename Transition>
GeneratorPattern::GeneratorPattern(std::size_t state_count,
                                   std::span<const Transition> transitions) {
  const std::size_t n = state_count;
  if (n > kNone) {
    throw util::ModelError(util::msg("a chain with ", n,
                                     " states is too large for 32-bit ids"));
  }
  for (const Transition& t : transitions) {
    CHOREO_ASSERT(t.source < n && t.target < n);
  }
  auto structure = std::make_shared<Generator::Structure>();
  std::vector<std::uint32_t>& row_ptr = structure->row_ptr;
  const RowBuckets sources(n, transitions.size(), [&](std::size_t i) {
    return transitions[i].source;
  });

  // Count each target row's entries, sources ascending: a run of one
  // source's transitions into one target is a single entry.
  row_ptr.assign(n + 1, 0);
  std::vector<std::uint32_t> last(n, kNone);  ///< per row: its last source
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t k = sources.begin(s); k < sources.end(s); ++k) {
      const Transition& t = transitions[sources.at(k)];
      if (t.target == s || last[t.target] == s) continue;
      last[t.target] = static_cast<std::uint32_t>(s);
      ++row_ptr[t.target + 1];
    }
  }
  std::size_t entries = 0;
  for (std::size_t row = 0; row < n; ++row) {
    entries += row_ptr[row + 1];
    if (entries >= kNone) {
      throw util::ModelError(util::msg("a generator with ", entries,
                                       " or more entries is too large for"
                                       " 32-bit indices"));
    }
    row_ptr[row + 1] = static_cast<std::uint32_t>(entries);
  }

  // Place the entries and give each transition its slot.  Sources are
  // placed in ascending order and a row has no entry in its own column, so
  // a row's cursor when its own source comes up is its split point.
  std::vector<std::uint32_t>& columns = structure->columns;
  columns.resize(entries);
  structure->split.resize(n);
  slots_.resize(transitions.size());
  std::vector<std::uint32_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  std::fill(last.begin(), last.end(), kNone);
  for (std::size_t s = 0; s < n; ++s) {
    const auto source = static_cast<std::uint32_t>(s);
    structure->split[s] = cursor[s];
    for (std::size_t k = sources.begin(s); k < sources.end(s); ++k) {
      const std::size_t i = sources.at(k);
      const std::size_t target = transitions[i].target;
      if (target == s) {  // a self-loop does not change the CTMC
        slots_[i] = {kNone, source};
        continue;
      }
      if (last[target] != source) {
        last[target] = source;
        columns[cursor[target]++] = source;
      }
      slots_[i] = {cursor[target] - 1, source};
    }
  }
  structure_ = std::move(structure);
}

template <typename Transition, typename RateOf>
Generator GeneratorPattern::fill_with(std::span<const Transition> transitions,
                                      RateOf rate_of) const {
  CHOREO_ASSERT(transitions.size() == slots_.size());
  Generator generator;
  generator.structure_ = structure_;
  generator.values_.assign(structure_->columns.size(), 0.0);
  generator.exit_.assign(structure_->split.size(), 0.0);
  // Each entry and each exit sum starts from 0.0 and takes its rates in
  // input order.  Rates are validated on the way, in input order, so the
  // first bad one is reported.
  double* values = generator.values_.data();
  double* exit = generator.exit_.data();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const double rate = rate_of(i);
    detail::check_rate(transitions[i], rate);
    const Slot slot = slots_[i];
    if (slot.entry == kNone) continue;  // a self-loop
    values[slot.entry] += rate;
    exit[slot.source] += rate;
  }
  double max_exit = 0.0;
  for (const double rate : generator.exit_) max_exit = std::max(max_exit, rate);
  generator.max_exit_rate_ = max_exit;
  return generator;
}

}  // namespace choreo::ctmc
