// E6b: measure lookup cost on the indexed state space.
//
// Report 1 (measure_lookup): steady-state throughput of ONE action queried
// against transition systems of growing total size, holding the action's
// own degree fixed.  With the action-keyed CSR index the query walks only
// the action's slice, so its cost is independent of the total transition
// count; the flat scan the measures used before the index grows linearly
// with it.  The index is built on a system's first query; the report builds
// it before the timing loop and records that build apart (index_build_ms).
// Report 2 (state_measure_lookup): the state-diagram leg of the Tomcat
// state-machine extraction (paper Section 5) at growing client counts: the
// one-time local-state index build, then one state_probability query per
// UML state against the per-state scan of every state term it replaced.
// Benchmarks: indexed action query vs. flat scan at each size.
#include "bench_common.hpp"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "explore/transition_system.hpp"
#include "pepa/measures.hpp"
#include "pepa/statespace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {
using namespace choreo;

/// Number of transitions carrying the probed action, at every total size.
constexpr std::size_t kProbedDegree = 1024;
/// Action ids 1..kOtherActions carry the remaining transitions.
constexpr std::size_t kOtherActions = 63;
constexpr std::size_t kOutDegree = 8;

/// A synthetic transition system with `total` transitions over
/// total/kOutDegree states: action 0 appears on exactly kProbedDegree of
/// them (evenly spread), the rest cycle through the other action ids.
explore::TransitionSystem<pepa::StateTransition> synthetic_system(
    std::size_t total) {
  explore::MappedArray<pepa::StateTransition> transitions;
  transitions.reserve(total);
  const std::size_t states = total / kOutDegree;
  const std::size_t probe_stride = total / kProbedDegree;
  std::vector<std::size_t> rows(states + 1, 0);
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t source = i / kOutDegree;
    const std::size_t target = (source * 31 + i) % states;
    const pepa::ActionId action =
        i % probe_stride == 0
            ? 0
            : static_cast<pepa::ActionId>(1 + i % kOtherActions);
    transitions.data()[i] = {static_cast<std::uint32_t>(source),
                             static_cast<std::uint32_t>(target), action,
                             1.0 + 0.001 * (i % 7)};
    ++rows[source + 1];
  }
  for (std::size_t s = 0; s < states; ++s) rows[s + 1] += rows[s];
  explore::TransitionSystem<pepa::StateTransition> system;
  system.assign(std::move(transitions), total, std::move(rows));
  return system;
}

std::vector<double> uniform_distribution(std::size_t states) {
  return std::vector<double>(states, 1.0 / static_cast<double>(states));
}

/// The pre-index implementation: scan every transition, filter on action.
double flat_scan_throughput(
    const explore::TransitionSystem<pepa::StateTransition>& system,
    const std::vector<double>& distribution, pepa::ActionId action) {
  double sum = 0.0;
  for (const pepa::StateTransition& t : system.transitions()) {
    if (t.action == action) sum += distribution[t.source] * t.rate;
  }
  return sum;
}

/// The pre-index state_probability: walk every state term.
double flat_scan_probability(const pepa::StateSpace& space,
                             const std::vector<double>& distribution,
                             const pepa::ProcessArena& arena,
                             pepa::ConstantId constant) {
  double sum = 0.0;
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    if (pepa::occupies(arena, space.state_term(s), constant)) {
      sum += distribution[s];
    }
  }
  return sum;
}

void report_state_measures() {
  util::TextTable table({"clients", "states", "UML states", "index entries",
                         "index MiB", "build ms", "indexed ns/query",
                         "flat scan ns/query", "speedup"});
  for (const std::size_t clients :
       {std::size_t{3}, std::size_t{6}, std::size_t{9}, std::size_t{12}}) {
    chor::TomcatParams params;
    params.clients = clients;
    auto extraction =
        chor::extract_state_machines(chor::tomcat_model(false, params));
    const pepa::ProcessArena& arena = extraction.model.arena();
    pepa::Semantics semantics(extraction.model.arena());
    const auto space =
        pepa::StateSpace::derive(semantics, extraction.model.system());
    const auto distribution = uniform_distribution(space.state_count());
    std::vector<pepa::ConstantId> constants;
    for (const auto& machine : extraction.state_constants) {
      for (const std::string& name : machine) {
        constants.push_back(*arena.find_constant(name));
      }
    }

    util::Stopwatch timer;
    const pepa::LocalStateIndex& index = space.local_states(arena);
    const double build_ms = timer.seconds() * 1e3;

    const std::size_t repeats = 100;
    std::vector<double> indexed(constants.size());
    timer.restart();
    for (std::size_t r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < constants.size(); ++i) {
        indexed[i] = pepa::state_probability(space, distribution, arena,
                                             constants[i]);
      }
    }
    const double indexed_ns =
        timer.seconds() * 1e9 / static_cast<double>(repeats * constants.size());
    benchmark::DoNotOptimize(indexed.data());

    timer.restart();
    for (std::size_t i = 0; i < constants.size(); ++i) {
      const double flat =
          flat_scan_probability(space, distribution, arena, constants[i]);
      CHOREO_ASSERT(std::bit_cast<std::uint64_t>(flat) ==
                    std::bit_cast<std::uint64_t>(indexed[i]));
    }
    const double flat_ns =
        timer.seconds() * 1e9 / static_cast<double>(constants.size());

    const double index_mib =
        static_cast<double>(index.bytes()) / (1024.0 * 1024.0);
    table.add_row({std::to_string(clients),
                   std::to_string(space.state_count()),
                   std::to_string(constants.size()),
                   std::to_string(index.size()), util::format_double(index_mib),
                   util::format_double(build_ms),
                   util::format_double(indexed_ns),
                   util::format_double(flat_ns),
                   util::format_double(flat_ns / indexed_ns)});
    bench::json_record(bench::JsonObject()
                           .field("experiment", "state_measure_lookup")
                           .field("clients", clients)
                           .field("states", space.state_count())
                           .field("uml_states", constants.size())
                           .field("index_entries", index.size())
                           .field("index_bytes", index.bytes())
                           .field("index_build_ms", build_ms)
                           .field("indexed_ns_per_query", indexed_ns)
                           .field("flat_scan_ns_per_query", flat_ns));
  }
  std::cout << "state_probability per UML state, Tomcat state machines "
               "(index built once per space)\n"
            << table << '\n';
}

void report() {
  util::TextTable table({"transitions", "action degree", "index build ms",
                         "indexed ns/query", "flat scan ns/query", "speedup"});
  for (const std::size_t total : {std::size_t{1} << 14, std::size_t{1} << 17,
                                  std::size_t{1} << 20}) {
    const auto system = synthetic_system(total);
    const auto distribution = uniform_distribution(system.state_count());
    const std::size_t repeats = 200;

    // The first query builds the action index.
    util::Stopwatch timer;
    benchmark::DoNotOptimize(system.action_transitions(0).data());
    const double build_ms = timer.seconds() * 1e3;

    timer.restart();
    double sink = 0.0;
    for (std::size_t r = 0; r < repeats; ++r) {
      sink += system.action_throughput(distribution, 0);
    }
    const double indexed_ns = timer.seconds() * 1e9 / repeats;

    timer.restart();
    for (std::size_t r = 0; r < repeats; ++r) {
      sink -= flat_scan_throughput(system, distribution, 0);
    }
    const double flat_ns = timer.seconds() * 1e9 / repeats;
    benchmark::DoNotOptimize(sink);

    table.add_row({std::to_string(total), std::to_string(kProbedDegree),
                   util::format_double(build_ms),
                   util::format_double(indexed_ns),
                   util::format_double(flat_ns),
                   util::format_double(flat_ns / indexed_ns)});
    bench::json_record(bench::JsonObject()
                           .field("experiment", "measure_lookup")
                           .field("transitions", total)
                           .field("action_degree", kProbedDegree)
                           .field("index_build_ms", build_ms)
                           .field("indexed_ns_per_query", indexed_ns)
                           .field("flat_scan_ns_per_query", flat_ns));
  }
  std::cout << "per-action throughput query, fixed action degree, growing "
               "transition system\n"
            << table << '\n';
  report_state_measures();
}

void BM_ActionThroughputIndexed(benchmark::State& state) {
  const auto system = synthetic_system(static_cast<std::size_t>(state.range(0)));
  const auto distribution = uniform_distribution(system.state_count());
  benchmark::DoNotOptimize(system.action_transitions(0).data());  // builds
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.action_throughput(distribution, 0));
  }
}
BENCHMARK(BM_ActionThroughputIndexed)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_ActionThroughputFlatScan(benchmark::State& state) {
  const auto system = synthetic_system(static_cast<std::size_t>(state.range(0)));
  const auto distribution = uniform_distribution(system.state_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat_scan_throughput(system, distribution, 0));
  }
}
BENCHMARK(BM_ActionThroughputFlatScan)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

}  // namespace

int main(int argc, char** argv) {
  return choreo::bench::run(argc, argv, "E6b: measure lookup cost",
                            report);
}
