// The end-to-end Choreographer pipeline (paper Figure 4):
//
//   project XMI --preprocess--> model XMI --extract--> PEPA (net)
//       --derive--> CTMC --solve--> steady state --measure--> results
//       --reflect--> annotated model XMI --postprocess--> project XMI
//
// analyse() works on an in-memory uml::Model (extract/solve/reflect);
// analyse_project() additionally runs the XMI and layout legs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "choreographer/rates.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/statespace.hpp"
#include "uml/model.hpp"
#include "xml/dom.hpp"

namespace choreo::chor {

/// How the pipeline tames state-space growth when solving a graph's chain.
/// The levels form the scheduler's retry ladder: each step trades less
/// memory for (at the fluid rung) an approximation.
enum class Aggregation : std::uint8_t {
  /// Solve the full chain.
  kNone,
  /// Derive and solve the strong-equivalence quotient directly: successor
  /// states/markings are rewritten to canonical representatives inside the
  /// exploration engine (pepa/canonical.hpp, pepanet/netcanonical.hpp), so
  /// the full chain is never built and peak memory is the quotient's size.
  /// Exact for both activity graphs and state diagrams — throughputs and
  /// the per-state presence probabilities are invariant under the replica
  /// reordering the quotient collapses.  Reported marking/state counts are
  /// quotient block counts.
  kExact,
  /// Mean-field fluid approximation: integrate the population-level ODE
  /// of the numerical vector form instead of expanding any state space.
  /// Cost is independent of population sizes; results are approximate
  /// (asymptotically exact as populations grow, see docs/architecture.md).
  kFluid,
};

/// "none" / "exact" / "fluid" — the manifest/report spelling of the level.
const char* to_string(Aggregation aggregation);

struct AnalysisOptions {
  ctmc::SolveOptions solver;
  /// Rate for unannotated activities.
  double default_rate = 1.0;
  /// Safety bound on marking/state counts.
  std::size_t max_states = 2'000'000;
  /// Externally supplied rate overrides (the .rates input of Figure 4).
  RateAssignments rates;
  /// State-space taming level; see Aggregation.
  Aggregation aggregation = Aggregation::kNone;
  /// Mean-field ODE knobs (aggregation == kFluid only), mapped onto
  /// fluid::OdeOptions: integrator error tolerances and the horizon after
  /// which the solve fails if no steady state was detected.
  double fluid_rel_tol = 1e-6;
  double fluid_abs_tol = 1e-9;
  double fluid_t_end = 1e7;
  /// Cooperative cancellation/deadline hook.  When set, the pipeline calls
  /// it at stage boundaries (before extraction, derivation, solving and
  /// reflection of every graph); throwing from it abandons the analysis
  /// and the exception propagates to the caller.  Long derivations between
  /// checkpoints are still bounded by `max_states`.
  std::function<void()> checkpoint;
  /// Exploration lanes for state-space derivation: 1 forces the sequential
  /// path, 0 sizes to the pool.  Results are identical for every setting
  /// (see pepa::DeriveOptions::threads).
  std::size_t derive_threads = 0;
  /// Pool derivation lanes run on, and the generator's and the local-state
  /// index's counting sorts after them; nullptr means
  /// util::ThreadPool::shared().
  util::ThreadPool* derive_pool = nullptr;
  /// Resource governor threaded into every stage: derivations check it once
  /// per breadth-first level and charge discovered states/bytes to it,
  /// solvers check it every few iterations, and the stage boundaries check
  /// it alongside `checkpoint`.  On cancellation or an expired deadline the
  /// analysis aborts with util::InterruptedError (the partial accounting
  /// remains readable on the Budget).  nullptr disables governance.
  util::Budget* budget = nullptr;
};

/// Per-stage wall-clock breakdown of one analysis: extraction, generator
/// assembly, CTMC solution, measure computation + reflection, the
/// derivation counters and the solver's record.  Shared by the
/// activity-graph and state-machine results, the scheduler's per-job
/// timings and the service metrics export.
struct StageTimings {
  double extract_seconds = 0.0;
  /// CTMC generator assembly; solve_seconds excludes it.
  double assemble_seconds = 0.0;
  double solve_seconds = 0.0;
  /// The measures: state probabilities and throughputs, including the
  /// index builds their first queries pay (the local-state index, a PEPA
  /// net's action index).
  double measures_seconds = 0.0;
  /// Writing the measures back into the UML model.
  double reflect_seconds = 0.0;
  /// Releasing the derived space, the semantics and the extraction (which
  /// owns the term arena) once the measures are reflected.
  double teardown_seconds = 0.0;
  /// The steady-state solve: the method that ran (kAuto when none did),
  /// its iterations and its final residual.
  ctmc::Method method_used = ctmc::Method::kAuto;
  std::size_t iterations = 0;
  double residual = 0.0;
  /// State-space derivation counters and wall clock (derive_stats.seconds).
  pepa::DeriveStats derive_stats;
  /// Fluid (ODE) integration counters; zero unless the fluid backend ran.
  std::size_t fluid_steps = 0;
  std::size_t fluid_rejected_steps = 0;

  /// Derivation wall clock, for symmetry with the other stage clocks.
  double derive_seconds() const noexcept { return derive_stats.seconds; }

  /// Folds another breakdown in: clocks, levels, discovery counters and
  /// solver iterations accumulate; peak_frontier and residual take the
  /// maximum (the largest single parallel round, the worst residual across
  /// the folded runs); method_used keeps the first solve's method.
  StageTimings& operator+=(const StageTimings& other);
};

/// Per-activity-graph results.  Under fluid aggregation no marking graph
/// exists; marking_count/transition_count then report the vector-form
/// dimension and local-transition count instead.
struct ActivityGraphResult {
  std::string graph_name;
  std::size_t marking_count = 0;
  std::size_t transition_count = 0;
  /// (action name, throughput), extraction order.
  std::vector<std::pair<std::string, double>> throughputs;
  /// Stage timing breakdown for this graph's pipeline run.
  StageTimings timings;
};

/// Joint result for all state machines of the model.  Under fluid
/// aggregation state_count/transition_count report the vector-form
/// dimension and local-transition count (no global chain is built).
struct StateMachineResult {
  std::size_t state_count = 0;
  std::size_t transition_count = 0;
  /// probabilities[m][s]: machine m, state s of the UML model.
  std::vector<std::vector<double>> probabilities;
  /// (action name, throughput) over the composed system.
  std::vector<std::pair<std::string, double>> throughputs;
  /// Stage timing breakdown, as in ActivityGraphResult.
  StageTimings timings;
};

struct AnalysisReport {
  std::vector<ActivityGraphResult> activity_graphs;
  /// Present only when the model contains state machines.
  std::vector<StateMachineResult> state_machines;  // 0 or 1 entries
};

/// Runs extraction, CTMC solution, measures and reflection on the model in
/// place (tagged values are added to it).
AnalysisReport analyse(uml::Model& model, const AnalysisOptions& options = {});

/// Full Figure-4 pipeline over a project document: preprocess (strip
/// layout), read XMI, analyse, write XMI, postprocess (merge layout).
/// `report` (optional) receives the analysis results.
xml::Document analyse_project(const xml::Document& project,
                              const AnalysisOptions& options = {},
                              AnalysisReport* report = nullptr);

/// File-level convenience: reads `input_path`, writes the annotated project
/// to `output_path`, returns the report.
AnalysisReport analyse_project_file(const std::string& input_path,
                                    const std::string& output_path,
                                    const AnalysisOptions& options = {});

}  // namespace choreo::chor
