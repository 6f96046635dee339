#include "traced_pipeline.hpp"

#include <optional>
#include <stdexcept>

#include "choreographer/extract_activity.hpp"
#include "choreographer/extract_statechart.hpp"
#include "choreographer/rates.hpp"
#include "choreographer/reflect.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/measures.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "uml/layout.hpp"
#include "uml/xmi.hpp"
#include "util/error.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace perfbench {

namespace chor = choreo::chor;
namespace ctmc = choreo::ctmc;
namespace pepa = choreo::pepa;
namespace pepanet = choreo::pepanet;
namespace sweep = choreo::sweep;
namespace uml = choreo::uml;
namespace xml = choreo::xml;

namespace {

void record_derive(Tracer& tracer, std::size_t states, std::size_t transitions,
                   const pepa::DeriveStats& stats) {
  tracer.count("explore.states", static_cast<double>(states));
  tracer.count("explore.transitions", static_cast<double>(transitions));
  tracer.count("explore.levels", static_cast<double>(stats.levels));
  tracer.count("explore.dedup_hits", static_cast<double>(stats.dedup_hits));
  tracer.count("explore.canonical_rewrites",
               static_cast<double>(stats.canonical_rewrites));
}

ctmc::SolveOptions governed_solver(const chor::AnalysisOptions& options) {
  ctmc::SolveOptions solver = options.solver;
  if (solver.budget == nullptr) solver.budget = options.budget;
  return solver;
}

template <typename T>
const T& found(const std::optional<T>& value, const std::string& name) {
  if (!value) throw std::logic_error("extracted name '" + name + "' not found");
  return *value;
}

chor::ActivityGraphResult traced_activity_graph(
    uml::ActivityGraph& graph, const chor::AnalysisOptions& options,
    Tracer& tracer) {
  chor::ExtractOptions extract_options;
  extract_options.default_rate = options.default_rate;
  // Held in an optional so the net and its arena are destroyed inside the
  // teardown span, after the space and the semantics, as in the pipeline.
  std::optional<chor::ActivityExtraction> extracted;
  timed(tracer, "chor.extract", [&] {
    extracted.emplace(chor::extract_activity_graph(graph, extract_options));
  });
  chor::ActivityExtraction& extraction = *extracted;

  chor::ActivityGraphResult result;
  result.graph_name = graph.name();

  pepanet::NetDeriveOptions derive_options;
  derive_options.max_markings = options.max_states;
  derive_options.threads = options.derive_threads;
  derive_options.pool = options.derive_pool;
  derive_options.budget = options.budget;
  derive_options.aggregate = options.aggregation == chor::Aggregation::kExact;
  std::optional<pepanet::NetSemantics> semantics;
  std::optional<pepanet::NetStateSpace> space;
  traced_peak(tracer, "explore.derive", "explore.peak", [&] {
    semantics.emplace(extraction.net);
    space.emplace(pepanet::NetStateSpace::derive(*semantics, derive_options));
  });
  result.marking_count = space->marking_count();
  result.transition_count = space->transitions().size();
  result.timings.derive_stats = space->stats();
  record_derive(tracer, result.marking_count, result.transition_count,
                space->stats());

  std::optional<ctmc::Generator> generator;
  traced_peak(tracer, "ctmc.assemble", "ctmc.assemble_peak",
              [&] { generator.emplace(space->generator()); });
  const ctmc::SolveResult solved = timed(tracer, "ctmc.solve", [&] {
    return ctmc::steady_state(*generator, governed_solver(options));
  });
  tracer.count("ctmc.solve_iterations", static_cast<double>(solved.iterations));
  timed(tracer, "pepa.teardown", [&] { generator.reset(); });

  chor::Throughputs throughputs = timed(tracer, "pepa.measures", [&] {
    chor::Throughputs out;
    for (const auto& action_name : extraction.action_names) {
      if (!action_name) continue;
      const pepa::ActionId action =
          found(extraction.net.arena().find_action(*action_name), *action_name);
      out.emplace_back(*action_name, pepanet::action_throughput(
                                         *space, solved.distribution, action));
    }
    return out;
  });
  result.throughputs = throughputs;
  timed(tracer, "chor.reflect",
        [&] { chor::reflect_throughputs(graph, throughputs); });
  timed(tracer, "pepa.teardown", [&] {
    space.reset();
    semantics.reset();
    extracted.reset();
  });
  return result;
}

chor::StateMachineResult traced_state_machines(
    uml::Model& model, const chor::AnalysisOptions& options, Tracer& tracer) {
  std::optional<chor::StatechartExtraction> extracted;
  timed(tracer, "chor.extract",
        [&] { extracted.emplace(chor::extract_state_machines(model)); });
  chor::StatechartExtraction& extraction = *extracted;
  chor::StateMachineResult result;

  pepa::DeriveOptions derive_options;
  derive_options.max_states = options.max_states;
  derive_options.threads = options.derive_threads;
  derive_options.pool = options.derive_pool;
  derive_options.budget = options.budget;
  derive_options.aggregate = options.aggregation == chor::Aggregation::kExact;
  std::optional<pepa::Semantics> semantics;
  std::optional<pepa::StateSpace> space;
  traced_peak(tracer, "explore.derive", "explore.peak", [&] {
    semantics.emplace(extraction.model.arena());
    space.emplace(pepa::StateSpace::derive(
        *semantics, extraction.model.system(), derive_options));
  });
  result.state_count = space->state_count();
  result.transition_count = space->transitions().size();
  result.timings.derive_stats = space->stats();
  record_derive(tracer, result.state_count, result.transition_count,
                space->stats());

  std::optional<ctmc::Generator> generator;
  traced_peak(tracer, "ctmc.assemble", "ctmc.assemble_peak",
              [&] { generator.emplace(space->generator()); });
  const ctmc::SolveResult solved = timed(tracer, "ctmc.solve", [&] {
    return ctmc::steady_state(*generator, governed_solver(options));
  });
  tracer.count("ctmc.solve_iterations", static_cast<double>(solved.iterations));
  timed(tracer, "pepa.teardown", [&] { generator.reset(); });

  const pepa::ProcessArena& arena = extraction.model.arena();
  for (std::size_t m = 0; m < model.state_machines().size(); ++m) {
    chor::Probabilities probabilities;
    std::vector<double> values;
    timed(tracer, "pepa.measures", [&] {
      for (const std::string& constant_name : extraction.state_constants[m]) {
        const pepa::ConstantId constant =
            found(arena.find_constant(constant_name), constant_name);
        const double probability = pepa::state_probability(
            *space, solved.distribution, arena, constant);
        probabilities.emplace_back(constant_name, probability);
        values.push_back(probability);
      }
    });
    result.probabilities.push_back(std::move(values));
    timed(tracer, "chor.reflect", [&] {
      chor::reflect_probabilities(model.state_machines()[m],
                                  extraction.state_constants[m], probabilities);
    });
  }
  timed(tracer, "pepa.measures", [&] {
    for (const auto& [action, value] :
         pepa::all_throughputs(*space, solved.distribution, arena)) {
      result.throughputs.emplace_back(arena.action_name(action), value);
    }
  });
  timed(tracer, "pepa.teardown", [&] {
    space.reset();
    semantics.reset();
    extracted.reset();
  });
  return result;
}

}  // namespace

ProjectOutput traced_project(const std::string& project_xmi,
                             const chor::AnalysisOptions& options,
                             Tracer& tracer) {
  if (options.aggregation == chor::Aggregation::kFluid ||
      options.checkpoint || options.budget != nullptr) {
    throw std::invalid_argument(
        "the traced pipeline mirrors ungoverned non-fluid analyses only");
  }
  const xml::Document project = timed(
      tracer, "xml.parse", [&] { return xml::parse_document(project_xmi); });
  const uml::SplitProject split =
      timed(tracer, "uml.preprocess", [&] { return uml::preprocess(project); });
  uml::Model model =
      timed(tracer, "uml.from_xmi", [&] { return uml::from_xmi(split.model); });

  // chor::analyse
  timed(tracer, "uml.validate", [&] { model.validate(); });
  if (!options.rates.empty()) {
    timed(tracer, "chor.apply_rates",
          [&] { chor::apply_rates(model, options.rates); });
  }
  ProjectOutput output;
  for (uml::ActivityGraph& graph : model.activity_graphs()) {
    output.report.activity_graphs.push_back(
        traced_activity_graph(graph, options, tracer));
  }
  if (!model.state_machines().empty()) {
    output.report.state_machines.push_back(
        traced_state_machines(model, options, tracer));
  }

  const xml::Document reflected =
      timed(tracer, "uml.to_xmi", [&] { return uml::to_xmi(model); });
  const xml::Document annotated = timed(tracer, "uml.postprocess", [&] {
    return uml::postprocess(reflected, split.layout);
  });
  output.annotated_xmi =
      timed(tracer, "xml.write", [&] { return xml::to_string(annotated); });
  return output;
}

sweep::SweepTable traced_sweep(pepa::Model& model, const sweep::SweepSpec& spec,
                               const sweep::SweepOptions& options,
                               Tracer& tracer) {
  if (options.backend != sweep::Backend::kExact || options.threads != 1 ||
      options.budget != nullptr) {
    throw std::invalid_argument(
        "the traced sweep mirrors ungoverned one-lane exact sweeps only");
  }
  spec.validate();
  sweep::SweepTable table;
  table.axes = spec.parameter_names();
  const std::size_t points = spec.point_count();
  table.rows.resize(points);
  for (std::size_t p = 0; p < points; ++p) table.rows[p].values = spec.point(p);

  std::optional<sweep::SharedStructure> shared;
  traced_peak(tracer, "explore.derive", "explore.peak",
              [&] { shared.emplace(model, table.axes, options.derive); });
  table.structure = shared->structure();
  table.derivations = 1;
  table.derive_stats = shared->space().stats();
  table.state_count = shared->space().state_count();
  table.transition_count = shared->space().transitions().size();
  table.measures = shared->measure_names();
  record_derive(tracer, table.state_count, table.transition_count,
                table.derive_stats);

  ctmc::SolveOptions solver = options.solver;
  solver.budget = options.budget;
  for (sweep::SweepRow& row : table.rows) {
    try {
      const std::vector<double> rates = timed(tracer, "sweep.rebind", [&] {
        sweep::RateRebinder::Point point = shared->rebinder().at(row.values);
        return shared->rebind_rates(point);
      });
      std::optional<ctmc::Generator> generator;
      traced_peak(tracer, "ctmc.assemble", "ctmc.assemble_peak",
                  [&] { generator.emplace(shared->generator(rates)); });
      const ctmc::SolveResult solved = timed(
          tracer, "ctmc.solve", [&] { return ctmc::steady_state(*generator, solver); });
      tracer.count("ctmc.solve_iterations",
                   static_cast<double>(solved.iterations));
      row.measures = timed(tracer, "pepa.measures", [&] {
        return shared->throughputs(solved.distribution, rates);
      });
      timed(tracer, "pepa.teardown", [&] { generator.reset(); });
    } catch (const choreo::util::InterruptedError&) {
      throw;
    } catch (const choreo::util::BudgetError&) {
      throw;
    } catch (const choreo::util::Error& error) {
      row.error = error.what();
    }
  }
  tracer.count("sweep.points", static_cast<double>(points));
  timed(tracer, "pepa.teardown", [&] { shared.reset(); });
  return table;
}

}  // namespace perfbench
