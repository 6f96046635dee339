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
// and owns only its values and exit rates.  The structure has one recording
// path: a stable counting sort of the transitions by source (skipped when
// they already arrive grouped by source, and taken from their row index when
// a derived space hands it over), then a counting sort by target in which
// the transitions of one source into one target merge into one entry.  Each
// transition gets its entry slot (a self-loop none).  build_from() then
// scatter-adds the transitions' rates into the slots, and into the exit
// sums, in input order, validating each rate on the way.  A GeneratorPattern
// (a sweep's, whose transitions are rated by a small table of tape nodes)
// instead records, per entry and per exit rate, the sequence of nodes that
// scatter-add would sum, and fill() evaluates each distinct sequence once
// and gathers.  Every entry and every exit rate is therefore the sum of its
// rates in input order from 0.0, whichever route assembled it.
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

/// The sparsity of a generator and how each of its values is summed,
/// recorded once from its transitions, so that the generators of the same
/// transitions at any positive rates are filled by gather.  Transition i's
/// rate is one value of a rate table: rates[rate_nodes[i]].  For every Q^T
/// entry and every exit rate the pattern records the sequence of table
/// nodes build_from()'s scatter-add sums there, in input order; a sequence
/// of one node is coded as that node, and each distinct longer sequence is
/// one sum.  Immutable after construction: concurrent fills share one
/// pattern, and the generators they return share its structure.
class GeneratorPattern {
 public:
  GeneratorPattern() = default;

  /// Records the generator of `transitions`, transition i rated
  /// rates[rate_nodes[i]] of a table of `node_count` rates, over
  /// `state_count` states, sorting on `lanes`.  `rows`, when not empty, is
  /// the transitions' source-row index: they arrive grouped by source,
  /// source s's at [rows[s], rows[s + 1]), as a derived space holds them.
  /// Throws util::ModelError when the state ids, the entries or the codes
  /// do not fit in 32 bits.
  template <typename Transition>
  GeneratorPattern(std::size_t state_count,
                   std::span<const Transition> transitions,
                   std::span<const std::uint32_t> rate_nodes,
                   std::size_t node_count,
                   std::span<const std::size_t> rows = {},
                   const util::Lanes& lanes = {});

  /// The generator at the rate table `rates` (node_count values), on the
  /// calling thread: each distinct sum is evaluated once, from 0.0 in its
  /// recorded order, and the Q^T values and exit rates are gathered.  The
  /// same additions in the same order as build_from() over the transitions
  /// carrying those rates, so bit-identical to it, with the same error for
  /// the first transition, in input order and self-loops counted, whose
  /// rate is not positive and finite.
  Generator fill(std::span<const double> rates) const;

 private:
  friend class Generator;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Where one transition's rate goes: its Q^T entry (kNone for a
  /// self-loop) and its source's exit sum.
  struct Slot {
    std::uint32_t entry;
    std::uint32_t source;
  };
  /// A recorded structure with each transition's slot, the transitions
  /// grouped by source, and the transition boundaries of the ranges a
  /// one-off fill splits over: the sources' ranges for a grouped input,
  /// else the whole input.
  struct Recording {
    explicit Recording(RowBuckets grouped) : sources(std::move(grouped)) {}

    RowBuckets sources;
    std::shared_ptr<Generator::Structure> structure;
    util::NoInitVector<Slot> slots;
    std::vector<std::size_t> parts;
  };
  /// The first transition, in input order, rated by a node.
  struct Use {
    std::uint32_t node;
    std::uint32_t source;
    std::uint32_t target;
  };

  template <typename Transition>
  static Recording record(std::size_t state_count,
                          std::span<const Transition> transitions,
                          std::span<const std::size_t> rows,
                          const util::Lanes& lanes);
  /// build_from()'s fill: scatter-adds each transition's own rate into its
  /// slot, in input order, over the recording's ranges on `lanes`.
  template <typename Transition>
  static Generator scatter(const Recording& recording,
                           std::span<const Transition> transitions,
                           const util::Lanes& lanes);
  /// Codes every entry and exit rate of `recording` as a node or a sum.
  void compile(const Recording& recording,
               std::span<const std::uint32_t> rate_nodes);
  std::size_t sum_count() const noexcept { return sum_begin_.size() - 1; }

  std::shared_ptr<const Generator::Structure> structure_;
  std::size_t node_count_ = 0;
  /// Per Q^T entry and per state: a node (below node_count_) or sum
  /// node_count_ + k.
  util::NoInitVector<std::uint32_t> entry_codes_;
  util::NoInitVector<std::uint32_t> exit_codes_;
  /// Sum k adds addends_[sum_begin_[k], sum_begin_[k + 1]).
  std::vector<std::uint32_t> sum_begin_{0};
  std::vector<std::uint32_t> addends_;
  /// Each node a transition is rated by, in order of its first use.
  std::vector<Use> uses_;
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
  return GeneratorPattern::scatter(
      GeneratorPattern::record(state_count, transitions, rows, lanes),
      transitions, lanes);
}

template <typename Transition>
GeneratorPattern::GeneratorPattern(std::size_t state_count,
                                   std::span<const Transition> transitions,
                                   std::span<const std::uint32_t> rate_nodes,
                                   std::size_t node_count,
                                   std::span<const std::size_t> rows,
                                   const util::Lanes& lanes)
    : node_count_(node_count) {
  CHOREO_ASSERT(rate_nodes.size() == transitions.size());
  const Recording recording = record(state_count, transitions, rows, lanes);
  std::vector<bool> used(node_count, false);
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const std::uint32_t node = rate_nodes[i];
    CHOREO_ASSERT(node < node_count);
    if (used[node]) continue;
    used[node] = true;
    uses_.push_back({node, static_cast<std::uint32_t>(transitions[i].source),
                     static_cast<std::uint32_t>(transitions[i].target)});
  }
  compile(recording, rate_nodes);
}

template <typename Transition>
GeneratorPattern::Recording GeneratorPattern::record(
    std::size_t state_count, std::span<const Transition> transitions,
    std::span<const std::size_t> rows, const util::Lanes& lanes) {
  const std::size_t n = state_count;
  if (n > kNone) {
    throw util::ModelError(util::msg("a chain with ", n,
                                     " states is too large for 32-bit ids"));
  }
  CHOREO_ASSERT(rows.empty() ||
                (rows.size() == n + 1 && rows[n] == transitions.size()));
  Recording recording(rows.empty() ? RowBuckets(n, transitions.size(),
                                                [&](std::size_t i) {
                                                  return transitions[i].source;
                                                },
                                                lanes)
                                   : RowBuckets(rows));
  const RowBuckets& sources = recording.sources;
  // Ranges of sources of about equal transition counts.
  std::vector<std::size_t> ranges = util::split_parts(
      n, lanes, [&](std::size_t s) { return sources.begin(s); });
  recording.parts = {0, transitions.size()};
  if (sources.grouped()) {
    recording.parts.clear();
    for (const std::size_t s : ranges) {
      recording.parts.push_back(sources.begin(s));
    }
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
  util::NoInitVector<Slot>& slots = recording.slots;
  slots.resize(transitions.size());
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
          slots[i] = {kNone, source};
          continue;
        }
        if (last[target] != source) {
          last[target] = source;
          columns[cursor[target]++] = source;
        }
        slots[i] = {cursor[target] - 1, source};
      }
    }
  });
  recording.structure = std::move(structure);
  return recording;
}

template <typename Transition>
Generator GeneratorPattern::scatter(const Recording& recording,
                                    std::span<const Transition> transitions,
                                    const util::Lanes& lanes) {
  const util::NoInitVector<Slot>& slots = recording.slots;
  const std::vector<std::size_t>& bounds = recording.parts;
  CHOREO_ASSERT(transitions.size() == slots.size());
  Generator generator;
  generator.structure_ = recording.structure;
  const std::size_t entries = recording.structure->columns.size();
  const std::size_t n = recording.structure->split.size();
  generator.values_.resize(entries);
  generator.exit_.resize(n);
  double* values = generator.values_.data();
  double* exit = generator.exit_.data();
  const std::size_t parts = bounds.size() - 1;
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
    std::size_t i = bounds[p];
    for (; i < bounds[p + 1]; ++i) {
      const double rate = transitions[i].rate;
      if (!detail::valid_rate(rate)) break;
      const Slot slot = slots[i];
      if (slot.entry == kNone) continue;  // a self-loop
      values[slot.entry] += rate;
      exit[slot.source] += rate;
    }
    stops[p] = i;
  });
  for (std::size_t p = 0; p < stops.size(); ++p) {
    if (stops[p] != bounds[p + 1]) {
      detail::check_rate(transitions[stops[p]], transitions[stops[p]].rate);
    }
  }
  double max_exit = 0.0;
  for (const double rate : generator.exit_) max_exit = std::max(max_exit, rate);
  generator.max_exit_rate_ = max_exit;
  return generator;
}

}  // namespace choreo::ctmc
