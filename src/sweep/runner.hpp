// The design-space sweep runner: derive once, re-solve K times.
//
// SharedStructure performs the single state-space derivation of a sweep and
// then compiles everything a point needs that does not depend on its
// values, once:
//
//   * the rate tape (rebind.hpp): every derived state's moves are composed
//     again over the space's leaf layout (pepa::LeafMoves, the derive's own
//     composition) in the TapeRecorder's algebra, so the j-th composed move
//     of a state is the j-th transition of its CSR row (the exploration
//     engine commits moves in composition order and refuses top-level
//     passive moves), and each transition gets the tape node of its rate.
//     The leaves' local moves and apparent rates get their nodes from a
//     TapeWalk over the local terms: pepa's one SOS walk, the derive's
//     Semantics, run in the recorder's algebra.  No state term is rendered.
//     The alignment (action, row length) is checked here, once, together
//     with each node reproducing its transition's derived rate bit for bit
//     at the base values; a mismatch fails the sweep before any point runs.
//     The walk's memos are freed before the next step.
//   * the generator pattern (ctmc::GeneratorPattern), recorded from the
//     derived transitions and their nodes: the shared Q^T structure and,
//     for every entry and every exit rate, the sequence of nodes its sum
//     adds (a single node coded as itself).
//   * the throughput streams: each non-tau action's (source, node) pairs in
//     ascending transition order.
//
// A point's rates are then the tape's node values: rebind_rates()
// evaluates the tape (tens of nodes) and nothing else.  generator()
// evaluates each distinct sum once and fills the point's Q^T values and
// exit rates by gather, the additions build_from() would make, in the same
// order; throughputs() streams each action's pairs.  So every rate,
// generator and table is bit-identical to assembling from scratch.  A point
// copies no index array: its generator shares the pattern's structure.
// transition_rates() expands a point's rates per transition.  The tape, the
// pattern and the streams are immutable, so concurrent point lanes share
// them read-only.
//
// The fluid backend shares the tape the same way.  It builds the base
// model's fluid::VectorForm once and records one tape node per local
// derivative of each group state, read from a TapeWalk over that state,
// under the same set-up checks (actions align, rates reproduce bit for bit
// at the base values).  A point
// evaluates the tape, refills a copy of the form's local rates
// (VectorForm::with_rates) and integrates it; no point builds a form or
// writes into the model's arena.
//
// sweep() evaluates every point of a SweepSpec under one util::Budget, one
// point per chunk of util::ThreadPool::parallel_for_dynamic — the pool's
// drain-safe join, so points that run nested pool loops cannot deadlock
// it — and emits a deterministic SweepTable: row r always describes spec
// point r, measure columns are the model's actions in arena order, and all
// arithmetic per point is independent of the lane count, so tables are
// identical at any thread count.  A failed point (solver divergence at an
// extreme rate, say) records its error in the row; the other points are
// unaffected.  An error that aborts the sweep (cancellation, deadline) is
// rethrown from the lowest-index point that raised one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ctmc/generator.hpp"
#include "ctmc/steady_state.hpp"
#include "fluid/analysis.hpp"
#include "pepa/statespace.hpp"
#include "sweep/rebind.hpp"
#include "sweep/spec.hpp"
#include "util/budget.hpp"
#include "util/thread_pool.hpp"

namespace choreo::sweep {

/// How each point is evaluated: the exact CTMC on the shared derived
/// structure, or the fluid ODE approximation on the shared vector form (no
/// derivation at all).
enum class Backend { kExact, kFluid };

const char* to_string(Backend backend);

struct SweepOptions {
  Backend backend = Backend::kExact;
  /// Steady-state solver for exact points (its `budget` field is ignored;
  /// `budget` below governs every stage).
  ctmc::SolveOptions solver;
  /// Options for the single shared derivation (exact backend).
  pepa::DeriveOptions derive;
  /// Fluid integration knobs (fluid backend).
  fluid::FluidOptions fluid;
  /// Point-evaluation lanes, the calling thread included: 1 evaluates
  /// sequentially on the calling thread, 0 uses every lane of `pool`.
  std::size_t threads = 0;
  /// Pool the point evaluations run on; nullptr means ThreadPool::shared().
  util::ThreadPool* pool = nullptr;
  /// One governor for the whole sweep: the derivation, every rebind and
  /// every solve check it.  nullptr disables governance.
  util::Budget* budget = nullptr;
};

struct SweepRow {
  std::vector<double> values;    ///< one per axis, in axis order
  std::vector<double> measures;  ///< one per SweepTable::measures column
  std::string error;             ///< non-empty when this point failed
  /// The exact backend's steady-state solve at this point: its iterations
  /// and final residual (0 for points that did not run a solve).
  std::size_t iterations = 0;
  double residual = 0.0;
  bool ok() const noexcept { return error.empty(); }
};

/// The deterministic result table of a sweep.
struct SweepTable {
  std::vector<std::string> axes;      ///< axis parameter names
  std::vector<std::string> measures;  ///< measure column names
  std::vector<SweepRow> rows;         ///< one per point, in spec order
  std::uint64_t structure = 0;        ///< rate-stripped model fingerprint
  std::size_t derivations = 0;        ///< state-space derivations performed
  std::size_t state_count = 0;
  std::size_t transition_count = 0;
  std::size_t points_from_cache = 0;  ///< filled by the service path
  pepa::DeriveStats derive_stats;     ///< stats of the single derivation
  double seconds = 0.0;

  std::string to_csv() const;
  std::string to_json() const;
};

/// The once-per-sweep artefacts: the rebinder, the semantics, the single
/// derived state space, its rate tape, its generator pattern and its
/// throughput streams, plus the per-point payload rebinding.
class SharedStructure {
 public:
  /// Seconds the constructor spent on each step of the set-up.
  struct SetupSeconds {
    double derive = 0.0;   ///< the state-space derivation
    double tape = 0.0;     ///< recording the rate tape, and its checks
    double pattern = 0.0;  ///< the generator pattern and throughput streams
  };

  /// Derives the state space of `model` once (util::ModelError /
  /// util::BudgetError as usual) and records its rate tape, generator
  /// pattern and throughput streams.  Throws util::ModelError when the
  /// recorded moves do not align with the derived transitions.  The model
  /// must outlive this object.
  SharedStructure(pepa::Model& model, std::vector<std::string> parameters,
                  const pepa::DeriveOptions& options = {});

  RateRebinder& rebinder() noexcept { return rebinder_; }
  pepa::Semantics& semantics() noexcept { return semantics_; }
  const pepa::StateSpace& space() const noexcept { return space_; }
  std::uint64_t structure() const noexcept { return rebinder_.structure(); }
  const SetupSeconds& setup_seconds() const noexcept { return setup_; }

  /// The sweep point's rates: the value of every rate-tape node at the
  /// point's values, in node order (tape_size() of them).  Thread-safe;
  /// throws util::ModelError with the first rate error the SOS would raise
  /// at these values.
  std::vector<double> rebind_rates(const RateRebinder::Point& point) const;

  /// Each transition's rate under a point's rates (rebind_rates()),
  /// index-aligned with space().transitions().
  std::vector<double> transition_rates(std::span<const double> rates) const;

  /// The CTMC generator for one point's rates (rebind_rates()), filled
  /// over the recorded pattern.
  ctmc::Generator generator(std::span<const double> rates) const;

  /// Nodes in the rate tape: the distinct rate expressions of the sweep.
  std::size_t tape_size() const noexcept { return tape_.size(); }

  /// Steady-state throughput of every non-tau arena action (in action-id
  /// order) under one point's rates (rebind_rates()) — the measure columns
  /// of a SweepTable.
  std::vector<double> throughputs(std::span<const double> distribution,
                                  std::span<const double> rates) const;

  /// The measure column names matching throughputs().
  std::vector<std::string> measure_names() const;

 private:
  /// One term of a throughput: a transition's source and rate node.
  struct Flow {
    std::uint32_t source;
    RateTape::NodeId rate;
  };

  RateRebinder rebinder_;
  pepa::Semantics semantics_;
  pepa::StateSpace space_;
  RateTape tape_;
  std::vector<RateTape::NodeId> rate_nodes_;  ///< per transition
  ctmc::GeneratorPattern pattern_;
  /// Each non-tau action's transitions as flows, in ascending transition
  /// order: flows_[flow_begin_[a], flow_begin_[a + 1]).
  std::vector<std::size_t> flow_begin_;
  std::vector<Flow> flows_;
  SetupSeconds setup_;
};

/// Runs the whole sweep: validates the spec, derives once (exact backend),
/// evaluates every point, and returns the table.  Per-point failures are
/// recorded in the rows; util::InterruptedError and util::BudgetError abort
/// the sweep as a whole.
SweepTable sweep(pepa::Model& model, const SweepSpec& spec,
                 const SweepOptions& options = {});

}  // namespace choreo::sweep
