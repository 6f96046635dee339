// E6a (paper Section 1.1): state-space explosion.
//
// Report: how the CTMC size grows with the model -- transmitters in the
// handover ring, tokens in a multi-message net, and clients against the
// Tomcat server -- demonstrating the "susceptibility to state-space
// explosion" the paper names as the cost of exact numerical solution.
// A final table sweeps the exploration lane count over the largest models;
// the derived graphs are identical at every lane count, only the wall
// clock changes (and only on hosts with spare cores -- see
// docs/performance.md).  The Tomcat population and the family rows also
// time the teardown a finished job pays: destroying the space, the
// Semantics memo and the model that owns the term arena; and they report
// the packed state key (64-bit words and the bits of them in use) and the
// derive's resident bytes per transition: the resident-set growth across
// the derive, with the space alive, over its transition count, measured
// on a second, untimed derive of a fresh model.  The Tomcat, lane and
// family rows split the derive's clock: "serial ms" is the part outside
// lane work (DeriveStats::serial_seconds).  The Tomcat rows also time the
// sorts that follow the derive on its lanes: the generator
// (StateSpace::generator(), "assemble ms") and the first local_states()
// call ("local states ms"); and they count the minor page faults of a
// repeated job ("repeat faults"): the same derive, generator, first
// local_states() call and teardown run again in the same process, over the
// memory the first run retired.  Counts print as integers.
// Benchmarks: marking-graph derivation throughput.
#include "bench_common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <memory>

#include "choreographer/extract_activity.hpp"
#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "pepa/families.hpp"
#include "pepa/parser.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/net_parser.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "util/error.hpp"
#include "util/retained_memory.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {
using namespace choreo;

/// A ring of `places` places with `tokens` messages hopping around it; each
/// extra token multiplies the marking count.
std::string ring_net(std::size_t places, std::size_t tokens) {
  std::string source =
      "Msg = (work, 1.0).Ready;\n"
      "Ready = (hop, 2.0).Msg;\n"
      "@token Msg;\n";
  for (std::size_t p = 0; p < places; ++p) {
    source += "@place ring" + std::to_string(p) + " {";
    for (std::size_t c = 0; c < tokens; ++c) {
      source += " cell Msg";
      if (p == 0) source += " = Msg";  // all tokens start at ring0
      source += ";";
    }
    source += " }\n";
  }
  for (std::size_t p = 0; p < places; ++p) {
    source += "@transition hop (rate infty) from ring" + std::to_string(p) +
              " to ring" + std::to_string((p + 1) % places) + ";\n";
  }
  return source;
}

/// A count cell, in full (format_double writes 20 as 2e+01).
std::string count(std::size_t n) { return std::to_string(n); }

/// A measured-value cell.
std::string value(double v) { return util::format_double(v); }

/// The process's resident set in bytes (/proc/self/statm), after returning
/// the allocator's free memory and the spare transition mapping to the
/// system, so that a derive's growth is not hidden by memory an earlier row
/// freed.
double resident_bytes() {
  malloc_trim(0);
  util::release_spare_mapping();
  std::ifstream statm("/proc/self/statm");
  double pages = 0.0;
  double resident = 0.0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// The resident bytes per transition of deriving `model`, a fresh model.
/// Run apart from the timed derive, so that the trims resident_bytes()
/// makes never change the heap a timed derive starts from.
double resident_bytes_per_transition(pepa::Model& model,
                                     const pepa::DeriveOptions& options) {
  pepa::Semantics semantics(model.arena());
  const double before = resident_bytes();
  const pepa::StateSpace space =
      pepa::StateSpace::derive(semantics, model.system(), options);
  return (resident_bytes() - before) /
         static_cast<double>(space.transitions().size());
}

/// The process's minor page faults so far, over all its threads.
std::size_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_minflt);
}

/// Destroys what a derivation left behind in the order a finished job
/// releases it (pass the space, then the Semantics, then the model's
/// owner) and returns the seconds taken.
template <typename... Owned>
double timed_teardown(std::unique_ptr<Owned>&... owned) {
  util::Stopwatch timer;
  (owned.reset(), ...);
  return timer.seconds();
}

void report() {
  // 1. Handover ring: linear growth (one token).
  util::TextTable ring({"transmitters", "markings", "transitions",
                        "derive ms"});
  for (std::size_t n : {2u, 8u, 32u, 128u}) {
    chor::PdaParams params;
    params.transmitters = n;
    uml::Model model = chor::pda_handover_model(params);
    auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
    pepanet::NetSemantics semantics(extraction.net);
    util::Stopwatch timer;
    const auto space = pepanet::NetStateSpace::derive(semantics);
    const double seconds = timer.seconds();
    ring.add_row({std::to_string(n), count(space.marking_count()),
                  count(space.transitions().size()), value(seconds * 1e3)});
    bench::json_record(
        bench::JsonObject()
            .field("model", "pda_handover[" + std::to_string(n) + "tx]")
            .field("threads", std::size_t{1})
            .field("states", space.marking_count())
            .field("transitions", space.transitions().size())
            .field("seconds", seconds)
            .field("states_per_second",
                   static_cast<double>(space.marking_count()) / seconds));
  }
  std::cout << "one mobile token (linear):\n" << ring << '\n';

  // 2. Token population: combinatorial growth.
  util::TextTable tokens({"tokens", "markings", "transitions", "derive ms"});
  for (std::size_t t : {1u, 2u, 3u, 4u, 5u}) {
    auto parsed = pepanet::parse_net(ring_net(3, t));
    pepanet::NetSemantics semantics(parsed.net);
    util::Stopwatch timer;
    const auto space = pepanet::NetStateSpace::derive(semantics);
    const double seconds = timer.seconds();
    tokens.add_row({std::to_string(t), count(space.marking_count()),
                    count(space.transitions().size()), value(seconds * 1e3)});
    bench::json_record(
        bench::JsonObject()
            .field("model", "ring3[" + std::to_string(t) + "tok]")
            .field("threads", std::size_t{1})
            .field("states", space.marking_count())
            .field("transitions", space.transitions().size())
            .field("seconds", seconds)
            .field("states_per_second",
                   static_cast<double>(space.marking_count()) / seconds));
  }
  std::cout << "token population on a 3-place ring (combinatorial):\n"
            << tokens << '\n';

  // 3. Client population against the Tomcat server, up to the 12 clients
  // of the end-to-end project_large workload, at one and two lanes.
  util::ThreadPool population_pool(1);  // 2 lanes = 1 worker + the caller
  util::TextTable clients({"clients", "lanes", "states", "transitions",
                           "key bits", "derive ms", "serial ms",
                           "assemble ms", "local states ms", "B/transition",
                           "teardown ms", "repeat faults"});
  // One job's state-machine leg over a built model: the derive, the sorts
  // that follow it on its lanes (the generator, and the local-state index
  // its first state measure builds) and the teardown, with the minor faults
  // taken from the derive to the end of the teardown.
  struct TomcatJob {
    std::size_t states = 0;
    std::size_t transitions = 0;
    std::size_t key_words = 0;
    std::size_t key_bits = 0;
    double seconds = 0.0;
    double serial = 0.0;
    double assemble = 0.0;
    double local_states = 0.0;
    double teardown = 0.0;
    std::size_t faults = 0;
  };
  auto tomcat_job = [](std::size_t clients_count,
                       const pepa::DeriveOptions& options) {
    chor::TomcatParams params;
    params.clients = clients_count;
    auto extraction = std::make_unique<chor::StatechartExtraction>(
        chor::extract_state_machines(chor::tomcat_model(false, params)));
    auto semantics =
        std::make_unique<pepa::Semantics>(extraction->model.arena());
    TomcatJob job;
    const std::size_t faults = minor_faults();
    util::Stopwatch timer;
    auto space = std::make_unique<pepa::StateSpace>(pepa::StateSpace::derive(
        *semantics, extraction->model.system(), options));
    job.seconds = timer.seconds();
    job.states = space->state_count();
    job.transitions = space->transitions().size();
    job.key_words = space->key_words();
    job.key_bits = space->key_bits();
    job.serial = space->stats().serial_seconds;
    timer.restart();
    benchmark::DoNotOptimize(space->generator().values().data());
    job.assemble = timer.seconds();
    timer.restart();
    benchmark::DoNotOptimize(
        space->local_states(extraction->model.arena()).size());
    job.local_states = timer.seconds();
    job.teardown = timed_teardown(space, semantics, extraction);
    job.faults = minor_faults() - faults;
    return job;
  };
  for (std::size_t c : {1u, 2u, 4u, 6u, 8u, 10u, 12u}) {
    for (const std::size_t threads : {1u, 2u}) {
      pepa::DeriveOptions options;
      options.threads = threads;
      options.pool = threads > 1 ? &population_pool : nullptr;
      const TomcatJob job = tomcat_job(c, options);
      const std::size_t repeat_faults = tomcat_job(c, options).faults;
      chor::TomcatParams params;
      params.clients = c;
      auto fresh =
          chor::extract_state_machines(chor::tomcat_model(false, params));
      const double per_transition =
          resident_bytes_per_transition(fresh.model, options);
      clients.add_row({std::to_string(c), count(threads), count(job.states),
                       count(job.transitions), count(job.key_bits),
                       value(job.seconds * 1e3), value(job.serial * 1e3),
                       value(job.assemble * 1e3),
                       value(job.local_states * 1e3), value(per_transition),
                       value(job.teardown * 1e3),
                       count(repeat_faults)});
      bench::json_record(
          bench::JsonObject()
              .field("model", "tomcat[" + std::to_string(c) + "cl]")
              .field("threads", threads)
              .field("states", job.states)
              .field("transitions", job.transitions)
              .field("key_words", job.key_words)
              .field("key_bits", job.key_bits)
              .field("seconds", job.seconds)
              .field("serial_seconds", job.serial)
              .field("assemble_seconds", job.assemble)
              .field("local_states_seconds", job.local_states)
              .field("bytes_per_transition", per_transition)
              .field("teardown_seconds", job.teardown)
              .field("repeat_minor_faults", repeat_faults)
              .field("states_per_second",
                     static_cast<double>(job.states) / job.seconds));
    }
  }
  std::cout << "Tomcat client population (teardown: space, semantics and"
               " model destroyed; repeat faults: minor page faults of the"
               " same job run again):\n"
            << clients << '\n';

  // 4. Exploration lanes over the largest models.  Derivation is
  // level-synchronous and deterministic: every lane count yields the same
  // graph, so only "derive ms" may move.
  util::ThreadPool pool(4);
  util::TextTable lanes({"model", "lanes", "states", "derive ms",
                         "serial ms", "states/s"});
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    chor::PdaParams params;
    params.transmitters = 128;
    uml::Model model = chor::pda_handover_model(params);
    auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
    pepanet::NetSemantics semantics(extraction.net);
    pepanet::NetDeriveOptions options;
    options.threads = threads;
    options.pool = threads > 1 ? &pool : nullptr;
    util::Stopwatch timer;
    const auto space = pepanet::NetStateSpace::derive(semantics, options);
    const double seconds = timer.seconds();
    const double rate = static_cast<double>(space.marking_count()) / seconds;
    const double serial = space.stats().serial_seconds;
    lanes.add_row({"pda_handover[128tx] x" + std::to_string(threads),
                   count(threads), count(space.marking_count()),
                   value(seconds * 1e3), value(serial * 1e3), value(rate)});
    bench::json_record(bench::JsonObject()
                           .field("model", "pda_handover[128tx]")
                           .field("threads", threads)
                           .field("states", space.marking_count())
                           .field("transitions", space.transitions().size())
                           .field("seconds", seconds)
                           .field("serial_seconds", serial)
                           .field("states_per_second", rate));
  }
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    chor::TomcatParams params;
    params.clients = 8;
    const uml::Model model = chor::tomcat_model(false, params);
    auto extraction = chor::extract_state_machines(model);
    pepa::Semantics semantics(extraction.model.arena());
    pepa::DeriveOptions options;
    options.threads = threads;
    options.pool = threads > 1 ? &pool : nullptr;
    util::Stopwatch timer;
    const auto space = pepa::StateSpace::derive(
        semantics, extraction.model.system(), options);
    const double seconds = timer.seconds();
    const double rate = static_cast<double>(space.state_count()) / seconds;
    const double serial = space.stats().serial_seconds;
    lanes.add_row({"tomcat[8cl] x" + std::to_string(threads), count(threads),
                   count(space.state_count()), value(seconds * 1e3),
                   value(serial * 1e3), value(rate)});
    bench::json_record(bench::JsonObject()
                           .field("model", "tomcat[8cl]")
                           .field("threads", threads)
                           .field("states", space.state_count())
                           .field("transitions", space.transitions().size())
                           .field("seconds", seconds)
                           .field("serial_seconds", serial)
                           .field("states_per_second", rate));
  }
  std::cout << "exploration lanes (identical graphs at every lane count):\n"
            << lanes << '\n';

  // 5. Lanes × size over the parametric families (pepa::families): three
  // decades of state count per family, the largest honestly reaching 10^6+
  // states — each derived count is checked against the family's closed-form
  // reachable-state formula, not eyeballed.  The 10^6 points run at lanes
  // {1, 8} only to bound the report's wall clock; the smaller sizes sweep
  // the full lane set.
  struct SweepPoint {
    std::string label;
    std::size_t expected_states;
    std::function<pepa::Model()> build;
    std::vector<std::size_t> lane_counts;
  };
  const std::vector<std::size_t> all_lanes{1, 2, 4, 8};
  const std::vector<std::size_t> big_lanes{1, 8};
  const SweepPoint sweep_points[] = {
      {"client_server[8cl,8sv]", pepa::client_server_states(8, 8),
       [] { return pepa::client_server(8, {.servers = 8}); }, all_lanes},
      {"client_server[10cl,10sv]", pepa::client_server_states(10, 10),
       [] { return pepa::client_server(10, {.servers = 10}); }, all_lanes},
      {"client_server[11cl,11sv]", pepa::client_server_states(11, 11),
       [] { return pepa::client_server(11, {.servers = 11}); }, big_lanes},
      {"pda_handover[10pda,4tx]", pepa::pda_handover_states(10, 4),
       [] { return pepa::pda_handover(10, {.transmitters = 4}); }, all_lanes},
      {"pda_handover[14pda,4tx]", pepa::pda_handover_states(14, 4),
       [] { return pepa::pda_handover(14, {.transmitters = 4}); }, all_lanes},
      {"pda_handover[16pda,4tx]", pepa::pda_handover_states(16, 4),
       [] { return pepa::pda_handover(16, {.transmitters = 4}); }, big_lanes},
      {"ring[14st]", pepa::ring_states(14),
       [] { return pepa::ring(14); }, all_lanes},
      {"ring[17st]", pepa::ring_states(17),
       [] { return pepa::ring(17); }, all_lanes},
      {"ring[20st]", pepa::ring_states(20),
       [] { return pepa::ring(20); }, big_lanes},
  };
  util::ThreadPool sweep_pool(7);  // 8 lanes = 7 workers + the caller
  util::TextTable sweep({"model", "lanes", "states", "key bits", "derive ms",
                         "serial ms", "states/s", "B/transition",
                         "teardown ms"});
  for (const SweepPoint& point : sweep_points) {
    for (const std::size_t threads : point.lane_counts) {
      auto model = std::make_unique<pepa::Model>(point.build());
      auto semantics = std::make_unique<pepa::Semantics>(model->arena());
      pepa::DeriveOptions options;
      options.threads = threads;
      options.pool = threads > 1 ? &sweep_pool : nullptr;
      util::Stopwatch timer;
      auto space = std::make_unique<pepa::StateSpace>(
          pepa::StateSpace::derive(*semantics, model->system(), options));
      const double seconds = timer.seconds();
      const std::size_t states = space->state_count();
      const std::size_t transitions = space->transitions().size();
      const std::size_t key_words = space->key_words();
      const std::size_t key_bits = space->key_bits();
      const double serial = space->stats().serial_seconds;
      CHOREO_ASSERT(states == point.expected_states);
      const double teardown = timed_teardown(space, semantics, model);
      pepa::Model fresh = point.build();
      const double per_transition =
          resident_bytes_per_transition(fresh, options);
      const double rate = static_cast<double>(states) / seconds;
      sweep.add_row({point.label + " x" + std::to_string(threads),
                     count(threads), count(states), count(key_bits),
                     value(seconds * 1e3), value(serial * 1e3), value(rate),
                     value(per_transition), value(teardown * 1e3)});
      bench::json_record(bench::JsonObject()
                             .field("model", point.label)
                             .field("threads", threads)
                             .field("states", states)
                             .field("transitions", transitions)
                             .field("key_words", key_words)
                             .field("key_bits", key_bits)
                             .field("seconds", seconds)
                             .field("serial_seconds", serial)
                             .field("bytes_per_transition", per_transition)
                             .field("teardown_seconds", teardown)
                             .field("states_per_second", rate));
    }
  }
  std::cout << "lanes x size over the parametric families (counts verified"
               " against the closed forms):\n"
            << sweep << '\n';

  // 6. Quotient-direct derivation (DeriveOptions::aggregate): populations
  // whose full chains sit at or far beyond 10^6 states but whose
  // strong-equivalence quotients are tiny.  The full counts come from the
  // closed forms — the whole point is that the full chains need never be
  // derived (client_server[1000cl,4sv]'s 4.2e10 states could not be) —
  // and each quotient count is checked against its closed form.  The
  // "reduction" column is states-of-full / states-of-quotient, which is
  // also the peak-memory ratio: the engine's budget accounting charges
  // only interned (canonical) states.
  struct QuotientPoint {
    std::string label;
    std::size_t full_states;
    std::size_t quotient_states;
    std::function<pepa::Model()> build;
  };
  const QuotientPoint quotient_points[] = {
      {"client_server[1500cl,2sv]", pepa::client_server_states(1500, 2),
       pepa::client_server_quotient_states(1500, 2),
       [] { return pepa::client_server(1500, {.servers = 2}); }},
      {"client_server[1000cl,4sv]", pepa::client_server_states(1000, 4),
       pepa::client_server_quotient_states(1000, 4),
       [] { return pepa::client_server(1000, {.servers = 4}); }},
      {"pda_handover[18pda,2tx]", pepa::pda_handover_states(18, 2),
       pepa::pda_handover_quotient_states(18, 2),
       [] { return pepa::pda_handover(18, {.transmitters = 2}); }},
  };
  util::TextTable quotient_table({"model", "full states", "quotient",
                                  "reduction", "derive ms"});
  for (const QuotientPoint& point : quotient_points) {
    pepa::Model model = point.build();
    pepa::Semantics semantics(model.arena());
    pepa::DeriveOptions options;
    options.aggregate = true;
    util::Stopwatch timer;
    const auto space =
        pepa::StateSpace::derive(semantics, model.system(), options);
    const double seconds = timer.seconds();
    CHOREO_ASSERT(space.state_count() == point.quotient_states);
    const double reduction = static_cast<double>(point.full_states) /
                             static_cast<double>(point.quotient_states);
    quotient_table.add_row({point.label, count(point.full_states),
                            count(space.state_count()), value(reduction),
                            value(seconds * 1e3)});
    bench::json_record(bench::JsonObject()
                           .field("model", point.label + " quotient")
                           .field("threads", std::size_t{1})
                           .field("states", space.state_count())
                           .field("transitions", space.transitions().size())
                           .field("full_states", point.full_states)
                           .field("memory_reduction", reduction)
                           .field("seconds", seconds)
                           .field("states_per_second",
                                  static_cast<double>(space.state_count()) /
                                      seconds));
  }
  std::cout << "quotient-direct derivation (full counts from the closed"
               " forms; reduction = full/quotient = the memory ratio):\n"
            << quotient_table << '\n';
}

void BM_DeriveRing(benchmark::State& state) {
  const std::string source =
      ring_net(3, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto parsed = pepanet::parse_net(source);
    pepanet::NetSemantics semantics(parsed.net);
    const auto space = pepanet::NetStateSpace::derive(semantics);
    benchmark::DoNotOptimize(space.marking_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeriveRing)->DenseRange(1, 4)->Complexity();

void BM_DeriveInterleavedClients(benchmark::State& state) {
  std::string source = "C = (req, 1.0).(wait, 2.0).(think, 3.0).C;\nS = C";
  for (int i = 1; i < state.range(0); ++i) source += " || C";
  source += ";\n@system S;";
  for (auto _ : state) {
    auto model = pepa::parse_model(source);
    pepa::Semantics semantics(model.arena());
    const auto space = pepa::StateSpace::derive(semantics, model.system());
    benchmark::DoNotOptimize(space.state_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeriveInterleavedClients)->DenseRange(2, 8, 2)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  return choreo::bench::run(argc, argv,
                            "E6a: state-space explosion (Section 1.1)", report);
}
