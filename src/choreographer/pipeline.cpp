#include "choreographer/pipeline.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "choreographer/extract_activity.hpp"
#include "choreographer/extract_statechart.hpp"
#include "choreographer/reflect.hpp"
#include "ctmc/steady_state.hpp"
#include "fluid/analysis.hpp"
#include "pepa/measures.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "uml/layout.hpp"
#include "uml/xmi.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace choreo::chor {

const char* to_string(Aggregation aggregation) {
  switch (aggregation) {
    case Aggregation::kNone: return "none";
    case Aggregation::kExact: return "exact";
    case Aggregation::kFluid: return "fluid";
  }
  return "?";
}

StageTimings& StageTimings::operator+=(const StageTimings& other) {
  extract_seconds += other.extract_seconds;
  assemble_seconds += other.assemble_seconds;
  solve_seconds += other.solve_seconds;
  measures_seconds += other.measures_seconds;
  reflect_seconds += other.reflect_seconds;
  teardown_seconds += other.teardown_seconds;
  if (method_used == ctmc::Method::kAuto) method_used = other.method_used;
  iterations += other.iterations;
  residual = std::max(residual, other.residual);
  derive_stats.seconds += other.derive_stats.seconds;
  derive_stats.serial_seconds += other.derive_stats.serial_seconds;
  derive_stats.levels += other.derive_stats.levels;
  derive_stats.dedup_hits += other.derive_stats.dedup_hits;
  derive_stats.dedup_misses += other.derive_stats.dedup_misses;
  derive_stats.peak_frontier =
      std::max(derive_stats.peak_frontier, other.derive_stats.peak_frontier);
  derive_stats.canonical_rewrites += other.derive_stats.canonical_rewrites;
  fluid_steps += other.fluid_steps;
  fluid_rejected_steps += other.fluid_rejected_steps;
  return *this;
}

namespace {

/// Invokes the caller's cooperative cancellation/deadline hook, if any,
/// then the resource governor's own check.
void checkpoint(const AnalysisOptions& options) {
  if (options.checkpoint) options.checkpoint();
  if (options.budget != nullptr) options.budget->check("checkpoint");
}

/// The solver options for one stage: the caller's settings plus the
/// governor, so iteration loops abort on cancellation too.
ctmc::SolveOptions governed_solver(const AnalysisOptions& options) {
  ctmc::SolveOptions solver = options.solver;
  if (solver.budget == nullptr) solver.budget = options.budget;
  return solver;
}

/// Assembles the space's generator and solves it, clocking the two stages
/// apart and recording the solver's method, iterations and residual.  The
/// generator is freed before the measures run.
template <typename Space>
ctmc::SolveResult assemble_and_solve(const Space& space,
                                     const AnalysisOptions& options,
                                     StageTimings& timings) {
  util::Stopwatch timer;
  const ctmc::Generator generator = space.generator();
  timings.assemble_seconds = timer.seconds();
  timer.restart();
  ctmc::SolveResult solved =
      ctmc::steady_state(generator, governed_solver(options));
  timings.solve_seconds = timer.seconds();
  timings.method_used = solved.method_used;
  timings.iterations = solved.iterations;
  timings.residual = solved.residual;
  return solved;
}

/// Releases what an analysis built, in the order a finished job frees it —
/// the space, then the semantics, then the extraction that owns the term
/// arena — on the teardown clock.
template <typename... Owned>
void tear_down(StageTimings& timings, std::optional<Owned>&... owned) {
  util::Stopwatch timer;
  (owned.reset(), ...);
  timings.teardown_seconds = timer.seconds();
}

/// The fluid backend's knobs from the analysis options: the ODE tolerance
/// trio, the state bound reused as the local-derivative-set bound, and the
/// shared governor.
fluid::FluidOptions governed_fluid(const AnalysisOptions& options) {
  fluid::FluidOptions fluid;
  fluid.build.max_local_states = options.max_states;
  fluid.ode.rel_tol = options.fluid_rel_tol;
  fluid.ode.abs_tol = options.fluid_abs_tol;
  fluid.ode.t_end = options.fluid_t_end;
  fluid.ode.budget = options.budget;
  return fluid;
}

ActivityGraphResult analyse_activity_graph(uml::ActivityGraph& graph,
                                           const AnalysisOptions& options) {
  util::Stopwatch timer;
  ExtractOptions extract_options;
  extract_options.default_rate = options.default_rate;
  std::optional<ActivityExtraction> extracted(
      extract_activity_graph(graph, extract_options));
  ActivityExtraction& extraction = *extracted;

  ActivityGraphResult result;
  result.graph_name = graph.name();
  result.timings.extract_seconds = timer.seconds();

  checkpoint(options);
  std::optional<pepanet::NetSemantics> semantics(std::in_place, extraction.net);

  if (options.aggregation == Aggregation::kFluid) {
    // The fluid backend works on a plain PEPA term; a single-place net
    // without firings is exactly one (the place's context).  Mobile nets
    // have no vector form — markings move tokens between places.
    if (extraction.net.place_count() != 1 ||
        extraction.net.transition_count() != 0) {
      throw util::ModelError(util::msg(
          "fluid aggregation requires a single-location activity graph "
          "without mobility; '", graph.name(), "' has ",
          extraction.net.place_count(), " places and ",
          extraction.net.transition_count(), " net transitions"));
    }
    timer.restart();
    const pepa::ProcessId system =
        semantics->place_context(extraction.net.initial_marking(), 0);
    const auto fluid =
        fluid::solve_steady(semantics->pepa(), system, governed_fluid(options));
    result.marking_count = fluid.form.dimension();
    result.transition_count = fluid.form.transitions().size();
    result.timings.solve_seconds = timer.seconds();
    result.timings.fluid_steps = fluid.stats.steps;
    result.timings.fluid_rejected_steps = fluid.stats.rejected_steps;

    checkpoint(options);
    timer.restart();
    Throughputs fluid_throughputs;
    for (const auto& action_name : extraction.action_names) {
      if (!action_name) continue;
      const auto action = extraction.net.arena().find_action(*action_name);
      CHOREO_ASSERT(action.has_value());
      double value = 0.0;
      for (const auto& [id, throughput] : fluid.throughputs) {
        if (id == *action) value = throughput;
      }
      fluid_throughputs.emplace_back(*action_name, value);
    }
    result.timings.measures_seconds = timer.seconds();
    timer.restart();
    result.throughputs = fluid_throughputs;
    reflect_throughputs(graph, fluid_throughputs);
    result.timings.reflect_seconds = timer.seconds();
    tear_down(result.timings, semantics, extracted);
    return result;
  }

  pepanet::NetDeriveOptions derive_options;
  derive_options.max_markings = options.max_states;
  derive_options.threads = options.derive_threads;
  derive_options.pool = options.derive_pool;
  derive_options.budget = options.budget;
  // Exact aggregation derives the strong-equivalence quotient directly:
  // symmetric markings collapse at discovery time, so the interned graph,
  // max_states and the budget's peak bytes all cover the quotient only.
  // Every per-action throughput survives the quotient, so the solve and
  // measure legs below are shared with the unaggregated path.
  derive_options.aggregate = options.aggregation == Aggregation::kExact;
  std::optional<pepanet::NetStateSpace> space(
      pepanet::NetStateSpace::derive(*semantics, derive_options));

  result.marking_count = space->marking_count();
  result.transition_count = space->transitions().size();
  result.timings.derive_stats = space->stats();

  checkpoint(options);
  Throughputs throughputs;
  const auto solved = assemble_and_solve(*space, options, result.timings);
  checkpoint(options);
  timer.restart();
  for (const auto& action_name : extraction.action_names) {
    if (!action_name) continue;
    const auto action = extraction.net.arena().find_action(*action_name);
    CHOREO_ASSERT(action.has_value());
    throughputs.emplace_back(
        *action_name,
        pepanet::action_throughput(*space, solved.distribution, *action));
  }
  result.timings.measures_seconds = timer.seconds();
  timer.restart();
  result.throughputs = throughputs;
  reflect_throughputs(graph, throughputs);
  result.timings.reflect_seconds = timer.seconds();
  tear_down(result.timings, space, semantics, extracted);
  return result;
}

/// Each machine's state probabilities, probability_of(constant) per UML
/// state in extraction order, recorded in `result` and returned for the
/// reflector.
template <typename ProbabilityOf>
std::vector<Probabilities> state_measures(
    const StatechartExtraction& extraction, const pepa::ProcessArena& arena,
    StateMachineResult& result, ProbabilityOf probability_of) {
  std::vector<Probabilities> out(extraction.state_constants.size());
  for (std::size_t m = 0; m < extraction.state_constants.size(); ++m) {
    std::vector<double> values;
    for (const std::string& constant_name : extraction.state_constants[m]) {
      const auto constant = arena.find_constant(constant_name);
      CHOREO_ASSERT(constant.has_value());
      const double probability = probability_of(*constant);
      out[m].emplace_back(constant_name, probability);
      values.push_back(probability);
    }
    result.probabilities.push_back(std::move(values));
  }
  return out;
}

/// Writes each machine's probabilities back into its state diagram.
void reflect_state_measures(uml::Model& model,
                            const StatechartExtraction& extraction,
                            const std::vector<Probabilities>& probabilities) {
  for (std::size_t m = 0; m < probabilities.size(); ++m) {
    reflect_probabilities(model.state_machines()[m],
                          extraction.state_constants[m], probabilities[m]);
  }
}

StateMachineResult analyse_state_machines(uml::Model& model,
                                          const AnalysisOptions& options) {
  util::Stopwatch timer;
  std::optional<StatechartExtraction> extracted(extract_state_machines(model));
  StatechartExtraction& extraction = *extracted;

  StateMachineResult result;
  result.timings.extract_seconds = timer.seconds();

  checkpoint(options);
  std::optional<pepa::Semantics> semantics(std::in_place,
                                           extraction.model.arena());

  if (options.aggregation == Aggregation::kFluid) {
    // Population-level solve: each machine is one sequential component, so
    // its state occupancies are populations of count-one groups — exactly
    // the per-state probabilities the reflector wants.
    timer.restart();
    const auto fluid = fluid::solve_steady(
        *semantics, extraction.model.system(), governed_fluid(options));
    result.state_count = fluid.form.dimension();
    result.transition_count = fluid.form.transitions().size();
    result.timings.solve_seconds = timer.seconds();
    result.timings.fluid_steps = fluid.stats.steps;
    result.timings.fluid_rejected_steps = fluid.stats.rejected_steps;

    checkpoint(options);
    timer.restart();
    const pepa::ProcessArena& arena = extraction.model.arena();
    const std::vector<Probabilities> probabilities = state_measures(
        extraction, arena, result,
        [&](pepa::ConstantId constant) { return fluid.population(constant); });
    for (const auto& [action, value] : fluid.throughputs) {
      result.throughputs.emplace_back(arena.action_name(action), value);
    }
    result.timings.measures_seconds = timer.seconds();
    timer.restart();
    reflect_state_measures(model, extraction, probabilities);
    result.timings.reflect_seconds = timer.seconds();
    tear_down(result.timings, semantics, extracted);
    return result;
  }

  pepa::DeriveOptions derive_options;
  derive_options.max_states = options.max_states;
  derive_options.threads = options.derive_threads;
  derive_options.pool = options.derive_pool;
  derive_options.budget = options.budget;
  // Exact aggregation: quotient-direct derivation.  The state-probability
  // and throughput measures below scan states for the presence of each
  // machine's constants, which is invariant under the replica reordering
  // the quotient collapses, so state-diagram analyses aggregate exactly
  // too (the full chain is never built).
  derive_options.aggregate = options.aggregation == Aggregation::kExact;
  std::optional<pepa::StateSpace> space(pepa::StateSpace::derive(
      *semantics, extraction.model.system(), derive_options));

  result.state_count = space->state_count();
  result.transition_count = space->transitions().size();
  result.timings.derive_stats = space->stats();

  checkpoint(options);
  const auto solved = assemble_and_solve(*space, options, result.timings);

  checkpoint(options);
  timer.restart();
  const pepa::ProcessArena& arena = extraction.model.arena();
  const std::vector<Probabilities> probabilities = state_measures(
      extraction, arena, result, [&](pepa::ConstantId constant) {
        return pepa::state_probability(*space, solved.distribution, arena,
                                       constant);
      });
  for (const auto& [action, value] :
       pepa::all_throughputs(*space, solved.distribution, arena)) {
    result.throughputs.emplace_back(arena.action_name(action), value);
  }
  result.timings.measures_seconds = timer.seconds();
  timer.restart();
  reflect_state_measures(model, extraction, probabilities);
  result.timings.reflect_seconds = timer.seconds();
  tear_down(result.timings, space, semantics, extracted);
  return result;
}

}  // namespace

AnalysisReport analyse(uml::Model& model, const AnalysisOptions& options) {
  model.validate();
  if (!options.rates.empty()) apply_rates(model, options.rates);

  AnalysisReport report;
  for (uml::ActivityGraph& graph : model.activity_graphs()) {
    checkpoint(options);
    report.activity_graphs.push_back(analyse_activity_graph(graph, options));
  }
  if (!model.state_machines().empty()) {
    checkpoint(options);
    report.state_machines.push_back(analyse_state_machines(model, options));
  }
  return report;
}

xml::Document analyse_project(const xml::Document& project,
                              const AnalysisOptions& options,
                              AnalysisReport* report) {
  // Poseidon preprocessor: split metamodel content from layout (Figure 4).
  uml::SplitProject split = uml::preprocess(project);
  uml::Model model = uml::from_xmi(split.model);

  AnalysisReport local_report = analyse(model, options);
  if (report != nullptr) *report = std::move(local_report);

  // Reflector output, then the Poseidon postprocessor re-merges layout.
  xml::Document reflected = uml::to_xmi(model);
  return uml::postprocess(std::move(reflected), split.layout);
}

AnalysisReport analyse_project_file(const std::string& input_path,
                                    const std::string& output_path,
                                    const AnalysisOptions& options) {
  AnalysisReport report;
  const xml::Document project = xml::parse_file(input_path);
  const xml::Document annotated = analyse_project(project, options, &report);
  xml::write_file(annotated, output_path);
  return report;
}

}  // namespace choreo::chor
