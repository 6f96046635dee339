// The design-space sweep runner: derive once, re-solve K times.
//
// SharedStructure performs the single state-space derivation of a sweep and
// turns each point into a rate payload aligned with the shared transition
// system: because SOS derivation commutes with rate substitution, the j-th
// move of a state at new rate values is the j-th transition of the base
// state's CSR row (the exploration engine commits transitions in derivative
// order, dropping top-level passive moves under the same filter applied
// here).  Per-point rates come from RateRebinder::Point::moves() — the SOS
// re-run arithmetically over the base terms on flat per-point storage,
// interning nothing — and the alignment is still checked per transition
// (action and row length), so a sweep can never silently solve the wrong
// chain.  generator() then assembles the point's CTMC straight from the
// shared transition rows and the rate span, with no per-point copy of the
// transitions.
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

#include "ctmc/steady_state.hpp"
#include "fluid/analysis.hpp"
#include "pepa/statespace.hpp"
#include "sweep/rebind.hpp"
#include "sweep/spec.hpp"
#include "util/budget.hpp"
#include "util/thread_pool.hpp"

namespace choreo::sweep {

/// How each point is evaluated: the exact CTMC on the shared derived
/// structure, or the fluid ODE approximation (no derivation at all).
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

/// The once-per-sweep artefacts: the rebinder, the semantics and the single
/// derived state space, plus the per-point payload rebinding.
class SharedStructure {
 public:
  /// Derives the state space of `model` once (util::ModelError /
  /// util::BudgetError as usual).  The model must outlive this object.
  SharedStructure(pepa::Model& model, std::vector<std::string> parameters,
                  const pepa::DeriveOptions& options = {});

  RateRebinder& rebinder() noexcept { return rebinder_; }
  pepa::Semantics& semantics() noexcept { return semantics_; }
  const pepa::StateSpace& space() const noexcept { return space_; }
  std::uint64_t structure() const noexcept { return rebinder_.structure(); }

  /// The sweep point's transition rates, index-aligned with
  /// space().transitions().  Thread-safe (the semantics caches and the
  /// arena are concurrent); each caller brings its own Point.  Throws
  /// util::ModelError if the rebound derivatives do not align with the
  /// shared structure — which would mean the point changed the model's
  /// shape, not just its rates.
  std::vector<double> rebind_rates(RateRebinder::Point& point);

  /// The CTMC generator for one point's rates (index-aligned with
  /// space().transitions()), assembled from the shared rows in place.
  ctmc::Generator generator(std::span<const double> rates) const;

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
  bool allow_top_level_passive_;
};

/// Runs the whole sweep: validates the spec, derives once (exact backend),
/// evaluates every point, and returns the table.  Per-point failures are
/// recorded in the rows; util::InterruptedError and util::BudgetError abort
/// the sweep as a whole.
SweepTable sweep(pepa::Model& model, const SweepSpec& spec,
                 const SweepOptions& options = {});

}  // namespace choreo::sweep
