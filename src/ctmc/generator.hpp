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
// source (skipped when they already arrive grouped by source, and taken
// from their row index when a derived space hands it over), then a counting
// sort by target in which adjacent transitions of one source merge into one
// entry.  Each transition gets its entry slot (a self-loop none).  fill()
// then scatter-adds a payload's rates into the slots, and into the exit
// sums, in input order, validating each rate on the way; build_from() is
// record then fill.  Every entry and every exit rate is therefore the sum
// of its rates in input order from 0.0, whichever route assembled it.
// build_from() reads any contiguous transition-like records (anything
// exposing .source, .target and .rate — in particular the payload of an
// explore::TransitionSystem) in place.
//
// Both sorts are util::CountingSort over ranges of sources, split over the
// lanes the caller names: each range counts its targets, a prefix sum per
// (target, range) in range order gives each range its cursors, and each
// range places its entries, so the sort stays stable and the structure is
// the same at every lane count.  A one-off build (build_from) also fills
// over the same ranges when the input is grouped by source: every entry and
// every exit sum belongs to one source, so each is summed by one lane, in
// input order.  Sweep points fill on one lane.
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
#include "util/counting_sort.hpp"
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
    util::NoInitVector<std::uint32_t> split;
    util::NoInitVector<std::uint32_t> columns;
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
  /// copying into RatedTransition first; `rows` and `lanes` as for
  /// GeneratorPattern, whose lanes also fill a grouped input.
  template <typename Transition>
  static Generator build_from(std::size_t state_count,
                              std::span<const Transition> transitions,
                              std::span<const std::size_t> rows = {},
                              const util::Lanes& lanes = {});

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
  util::NoInitVector<double> values_;
  util::NoInitVector<double> exit_;
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
  /// rates) over `state_count` states, sorting on `lanes`.  `rows`, when
  /// not empty, is the transitions' source-row index: they arrive grouped
  /// by source, source s's at [rows[s], rows[s + 1]), as a derived space
  /// holds them.  Throws util::ModelError when the state ids or the entries
  /// do not fit in 32 bits.
  template <typename Transition>
  GeneratorPattern(std::size_t state_count,
                   std::span<const Transition> transitions,
                   std::span<const std::size_t> rows = {},
                   const util::Lanes& lanes = {});

  /// The generator of the recorded transitions with transition i at rate
  /// rates[i], filled on the calling thread: bit-identical to build_from()
  /// over the same transitions carrying those rates, with the same error
  /// for the first rate, in input order, that is not positive and finite.
  template <typename Transition>
  Generator fill(std::span<const Transition> transitions,
                 std::span<const double> rates) const {
    CHOREO_ASSERT(rates.size() == slots_.size());
    return fill_with(transitions, [&](std::size_t i) { return rates[i]; }, {});
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
  Generator fill_with(std::span<const Transition> transitions, RateOf rate_of,
                      const util::Lanes& lanes) const;

  std::shared_ptr<const Generator::Structure> structure_;
  util::NoInitVector<Slot> slots_;  ///< per transition
  /// Transition boundaries of the ranges a fill splits over: the sources'
  /// ranges for a grouped input, else the whole input.
  std::vector<std::size_t> parts_{0, 0};
};

namespace detail {

/// The assembly's validation of one transition's rate.
inline bool valid_rate(double rate) {
  return rate > 0.0 && std::isfinite(rate);
}

template <typename Transition>
void check_rate(const Transition& t, double rate) {
  if (!valid_rate(rate)) {
    throw util::ModelError(util::msg("transition ", t.source, " -> ", t.target,
                                     " has non-positive rate ", rate));
  }
}

}  // namespace detail

template <typename Transition>
Generator Generator::build_from(std::size_t state_count,
                                std::span<const Transition> transitions,
                                std::span<const std::size_t> rows,
                                const util::Lanes& lanes) {
  return GeneratorPattern(state_count, transitions, rows, lanes)
      .fill_with(transitions,
                 [&](std::size_t i) { return transitions[i].rate; }, lanes);
}

template <typename Transition>
GeneratorPattern::GeneratorPattern(std::size_t state_count,
                                   std::span<const Transition> transitions,
                                   std::span<const std::size_t> rows,
                                   const util::Lanes& lanes) {
  const std::size_t n = state_count;
  if (n > kNone) {
    throw util::ModelError(util::msg("a chain with ", n,
                                     " states is too large for 32-bit ids"));
  }
  CHOREO_ASSERT(rows.empty() ||
                (rows.size() == n + 1 && rows[n] == transitions.size()));
  const RowBuckets sources =
      rows.empty() ? RowBuckets(n, transitions.size(),
                                [&](std::size_t i) {
                                  return transitions[i].source;
                                },
                                lanes)
                   : RowBuckets(rows);
  // Ranges of sources of about equal transition counts.
  std::vector<std::size_t> ranges = util::split_parts(
      n, lanes, [&](std::size_t s) { return sources.begin(s); });
  parts_ = {0, transitions.size()};
  if (sources.grouped()) {
    parts_.clear();
    for (const std::size_t s : ranges) parts_.push_back(sources.begin(s));
  }

  // Count each target row's entries, sources ascending: a run of one
  // source's transitions into one target is a single entry.  `last` holds
  // each row's last source counted by the range.
  auto structure = std::make_shared<Generator::Structure>();
  util::CountingSort<std::uint32_t> targets(
      n, std::move(ranges), lanes,
      [&](std::size_t begin, std::size_t end, std::uint32_t* counts) {
        std::vector<std::uint32_t> last(n, kNone);
        for (std::size_t s = begin; s < end; ++s) {
          for (std::size_t k = sources.begin(s); k < sources.end(s); ++k) {
            const Transition& t = transitions[sources.at(k)];
            CHOREO_ASSERT(t.source == s && t.target < n);
            if (t.target == s || last[t.target] == s) continue;
            last[t.target] = static_cast<std::uint32_t>(s);
            ++counts[t.target];
          }
        }
      },
      [](std::size_t entries) {
        if (entries >= kNone) {
          throw util::ModelError(util::msg("a generator with ", entries,
                                           " or more entries is too large"
                                           " for 32-bit indices"));
        }
      });
  structure->row_ptr = std::move(targets.offsets());

  // Place the entries and give each transition its slot.  Sources are
  // placed in ascending order and a row has no entry in its own column, so
  // a row's cursor when its own source comes up is its split point.
  util::NoInitVector<std::uint32_t>& columns = structure->columns;
  columns.resize(structure->row_ptr[n]);
  structure->split.resize(n);
  slots_.resize(transitions.size());
  targets.place([&](std::size_t begin, std::size_t end,
                    std::uint32_t* cursor) {
    std::vector<std::uint32_t> last(n, kNone);
    for (std::size_t s = begin; s < end; ++s) {
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
  });
  structure_ = std::move(structure);
}

template <typename Transition, typename RateOf>
Generator GeneratorPattern::fill_with(std::span<const Transition> transitions,
                                      RateOf rate_of,
                                      const util::Lanes& lanes) const {
  CHOREO_ASSERT(transitions.size() == slots_.size());
  Generator generator;
  generator.structure_ = structure_;
  const std::size_t entries = structure_->columns.size();
  const std::size_t n = structure_->split.size();
  generator.values_.resize(entries);
  generator.exit_.resize(n);
  double* values = generator.values_.data();
  double* exit = generator.exit_.data();
  const std::size_t parts = parts_.size() - 1;
  // Every entry and exit sum starts from 0.0, zeroed by the lanes.
  util::run_parts(parts, lanes, [&](std::size_t p) {
    std::fill(values + entries * p / parts, values + entries * (p + 1) / parts,
              0.0);
    std::fill(exit + n * p / parts, exit + n * (p + 1) / parts, 0.0);
  });
  // Each takes its rates in input order, on the one lane that fills its
  // source's range.  A range stops at its first invalid rate; the earliest
  // range's is reported, so the error is the first in input order.
  std::vector<std::size_t> stops(parts);
  util::run_parts(parts, lanes, [&](std::size_t p) {
    std::size_t i = parts_[p];
    for (; i < parts_[p + 1]; ++i) {
      const double rate = rate_of(i);
      if (!detail::valid_rate(rate)) break;
      const Slot slot = slots_[i];
      if (slot.entry == kNone) continue;  // a self-loop
      values[slot.entry] += rate;
      exit[slot.source] += rate;
    }
    stops[p] = i;
  });
  for (std::size_t p = 0; p < stops.size(); ++p) {
    if (stops[p] != parts_[p + 1]) {
      detail::check_rate(transitions[stops[p]], rate_of(stops[p]));
    }
  }
  double max_exit = 0.0;
  for (const double rate : generator.exit_) max_exit = std::max(max_exit, rate);
  generator.max_exit_rate_ = max_exit;
  return generator;
}

}  // namespace choreo::ctmc
