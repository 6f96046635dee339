// The design-space sweep runner: derive once, re-solve K times.
//
// SharedStructure performs the single state-space derivation of a sweep and
// then compiles everything a point needs that does not depend on its
// values, once:
//
//   * the rate tape (rebind.hpp): a TapeRecorder re-runs the SOS over every
//     derived state's term with tape nodes in place of rates.  Because SOS
//     derivation commutes with rate substitution, the j-th recorded move of
//     a state is the j-th transition of the base state's CSR row (the
//     exploration engine commits transitions in derivative order and
//     refuses top-level passive moves), so each transition gets one tape
//     node.  The alignment (action, row length) is checked here, once,
//     together with each node reproducing its transition's derived rate bit
//     for bit at the base values; a mismatch fails the sweep before any
//     point runs.  The recorder's memo is freed before the next step.
//   * the generator pattern (ctmc::GeneratorPattern), recorded straight
//     from the derived transitions: the shared Q^T structure and each
//     transition's entry slot.
//
// A point then costs arithmetic plus its solve: rebind_rates() evaluates the
// tape (tens of nodes) and gathers one rate per transition, and generator()
// fills the point's Q^T values and exit rates over the pattern with the
// additions build_from() would make, in the same order, so every rate,
// generator and table is bit-identical to assembling from scratch.  A point
// copies no index array: its generator shares the pattern's structure.  The
// tape, the node index and the pattern are immutable, so concurrent point
// lanes share them read-only.
//
// The fluid backend shares the tape the same way.  It builds the base
// model's fluid::VectorForm once and records one tape node per local
// derivative of each group state, under the same set-up checks (actions
// align, rates reproduce bit for bit at the base values).  A point
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
/// derived state space, its rate tape and its generator pattern, plus the
/// per-point payload rebinding.
class SharedStructure {
 public:
  /// Derives the state space of `model` once (util::ModelError /
  /// util::BudgetError as usual) and records its rate tape and generator
  /// pattern.  Throws util::ModelError when the recorded moves do not
  /// align with the derived transitions.  The model must outlive this
  /// object.
  SharedStructure(pepa::Model& model, std::vector<std::string> parameters,
                  const pepa::DeriveOptions& options = {});

  RateRebinder& rebinder() noexcept { return rebinder_; }
  pepa::Semantics& semantics() noexcept { return semantics_; }
  const pepa::StateSpace& space() const noexcept { return space_; }
  std::uint64_t structure() const noexcept { return rebinder_.structure(); }

  /// The sweep point's transition rates, index-aligned with
  /// space().transitions(): the tape evaluated at the point's values, one
  /// node gathered per transition.  Thread-safe; throws util::ModelError
  /// with the first rate error the SOS would raise at these values.
  std::vector<double> rebind_rates(const RateRebinder::Point& point) const;

  /// The CTMC generator for one point's rates (index-aligned with
  /// space().transitions()), filled over the recorded pattern.
  ctmc::Generator generator(std::span<const double> rates) const;

  /// Nodes in the rate tape: the distinct rate expressions of the sweep.
  std::size_t tape_size() const noexcept { return tape_.size(); }

  /// Steady-state throughput of every non-tau arena action (in action-id
  /// order) under one point's rates — the measure columns of a SweepTable.
  std::vector<double> throughputs(std::span<const double> distribution,
                                  std::span<const double> rates) const;

  /// The measure column names matching throughputs().
  std::vector<std::string> measure_names() const;

 private:
  RateRebinder rebinder_;
  pepa::Semantics semantics_;
  pepa::StateSpace space_;
  RateTape tape_;
  std::vector<RateTape::NodeId> rate_nodes_;  ///< per transition
  ctmc::GeneratorPattern pattern_;
};

/// Runs the whole sweep: validates the spec, derives once (exact backend),
/// evaluates every point, and returns the table.  Per-point failures are
/// recorded in the rows; util::InterruptedError and util::BudgetError abort
/// the sweep as a whole.
SweepTable sweep(pepa::Model& model, const SweepSpec& spec,
                 const SweepOptions& options = {});

}  // namespace choreo::sweep
