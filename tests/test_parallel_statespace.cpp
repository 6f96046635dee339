// Determinism of parallel state-space exploration.
//
// The level-synchronous parallel BFS must reproduce the sequential
// exploration exactly: state numbering, printed state terms, transition
// lists (order, actions, bit-exact rates), steady-state measures, annotated
// XMI bytes, and error texts are required to be identical at every lane
// count.  Raw ProcessIds are NOT compared — interning order is racy under
// parallel expansion, so ids differ run to run while the terms they denote
// (and everything derived from them) do not.
//
// The *Concurrent* tests are also the ThreadSanitizer workload: many lanes
// hammer one shared arena + semantics, many service jobs derive at once,
// two threads derive different models in turn over one spare transition
// mapping, and many threads race to build one space's local-state index or
// its action index (run with CHOREO_SANITIZE=thread; see
// scripts/reproduce.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "choreographer/extract_activity.hpp"
#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "choreographer/pipeline.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/measures.hpp"
#include "pepa/printer.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/net_printer.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "service/scheduler.hpp"
#include "uml/xmi.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "xml/write.hpp"

namespace {

using namespace choreo;

/// A lane-count-independent fingerprint of a PEPA state space: printed
/// state terms in index order plus every transition with its action name
/// and exact rate.
std::vector<std::string> fingerprint(const pepa::ProcessArena& arena,
                                     const pepa::StateSpace& space) {
  std::vector<std::string> lines;
  lines.reserve(space.state_count() + space.transitions().size());
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    lines.push_back(pepa::to_string(arena, space.state_term(s)));
  }
  for (const pepa::StateTransition& t : space.transitions()) {
    lines.push_back(std::to_string(t.source) + "-" +
                    arena.action_name(t.action) + "@" +
                    std::to_string(t.rate) + "->" + std::to_string(t.target));
  }
  return lines;
}

/// Same for a marking graph, including the firing/local distinction.
std::vector<std::string> fingerprint(const pepanet::PepaNet& net,
                                     const pepanet::NetStateSpace& space) {
  std::vector<std::string> lines;
  lines.reserve(space.marking_count() + space.transitions().size());
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    lines.push_back(pepanet::marking_to_string(net, space.marking(m)));
  }
  for (const pepanet::MarkingTransition& t : space.transitions()) {
    lines.push_back(
        std::to_string(t.source) + "-" + net.arena().action_name(t.action) +
        "@" + std::to_string(t.rate) + "->" + std::to_string(t.target) +
        (t.is_firing ? " firing:" + std::to_string(t.net_transition)
                     : " local:" + std::to_string(t.place)));
  }
  return lines;
}

pepa::StateSpace derive_tomcat(std::size_t threads, util::ThreadPool* pool,
                               chor::StatechartExtraction& extraction) {
  chor::TomcatParams params;
  params.clients = 3;
  const uml::Model model = chor::tomcat_model(false, params);
  extraction = chor::extract_state_machines(model);
  pepa::Semantics semantics(extraction.model.arena());
  pepa::DeriveOptions options;
  options.threads = threads;
  options.pool = pool;
  return pepa::StateSpace::derive(semantics, extraction.model.system(),
                                  options);
}

TEST(ParallelStateSpace, TomcatIdenticalAcrossLaneCounts) {
  chor::StatechartExtraction sequential_extraction;
  const pepa::StateSpace sequential =
      derive_tomcat(1, nullptr, sequential_extraction);
  const std::vector<std::string> expected =
      fingerprint(sequential_extraction.model.arena(), sequential);
  ASSERT_GT(sequential.state_count(), 1u);
  EXPECT_EQ(sequential.stats().dedup_misses, sequential.state_count());

  util::ThreadPool pool(4);  // real workers even on a single-core host
  for (const std::size_t threads : {2u, 4u, 8u}) {
    chor::StatechartExtraction extraction;
    const pepa::StateSpace space = derive_tomcat(threads, &pool, extraction);
    EXPECT_EQ(fingerprint(extraction.model.arena(), space), expected)
        << "lane count " << threads;
    EXPECT_EQ(space.stats().dedup_misses, sequential.stats().dedup_misses);
    EXPECT_EQ(space.stats().dedup_hits, sequential.stats().dedup_hits);
    EXPECT_EQ(space.stats().levels, sequential.stats().levels);
    EXPECT_EQ(space.stats().peak_frontier, sequential.stats().peak_frontier);
  }
}

pepanet::NetStateSpace derive_pda(std::size_t threads, util::ThreadPool* pool,
                                  chor::ActivityExtraction& extraction) {
  chor::PdaParams params;
  params.transmitters = 6;
  uml::Model model = chor::pda_handover_model(params);
  extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
  pepanet::NetSemantics semantics(extraction.net);
  pepanet::NetDeriveOptions options;
  options.threads = threads;
  options.pool = pool;
  return pepanet::NetStateSpace::derive(semantics, options);
}

TEST(ParallelStateSpace, PdaHandoverMarkingGraphIdentical) {
  chor::ActivityExtraction sequential_extraction;
  const pepanet::NetStateSpace sequential =
      derive_pda(1, nullptr, sequential_extraction);
  const std::vector<std::string> expected =
      fingerprint(sequential_extraction.net, sequential);
  ASSERT_GT(sequential.marking_count(), 1u);

  // Steady state from the sequential graph, for bit-exact comparison.
  const auto sequential_solution = ctmc::steady_state(sequential.generator());

  util::ThreadPool pool(4);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    chor::ActivityExtraction extraction;
    const pepanet::NetStateSpace space = derive_pda(threads, &pool, extraction);
    EXPECT_EQ(fingerprint(extraction.net, space), expected)
        << "lane count " << threads;

    // Identical transitions in identical order must give a bit-identical
    // generator and therefore a bit-identical solver trajectory.
    const auto solution = ctmc::steady_state(space.generator());
    ASSERT_EQ(solution.distribution.size(),
              sequential_solution.distribution.size());
    for (std::size_t m = 0; m < solution.distribution.size(); ++m) {
      EXPECT_EQ(solution.distribution[m], sequential_solution.distribution[m]);
    }
  }
}

TEST(ParallelStateSpace, AnnotatedXmiBytesIdentical) {
  const xml::Document project = uml::to_xmi(chor::pda_handover_model());

  chor::AnalysisOptions sequential_options;
  sequential_options.derive_threads = 1;
  const xml::Document sequential =
      chor::analyse_project(project, sequential_options);
  const std::string expected = xml::to_string(sequential);

  util::ThreadPool pool(4);
  for (const std::size_t threads : {2u, 8u}) {
    chor::AnalysisOptions options;
    options.derive_threads = threads;
    options.derive_pool = &pool;
    const xml::Document annotated = chor::analyse_project(project, options);
    EXPECT_EQ(xml::to_string(annotated), expected)
        << "lane count " << threads;
  }
}

TEST(ParallelStateSpace, MaxStatesErrorTextIdenticalAcrossLaneCounts) {
  auto derive_with = [](std::size_t threads,
                        util::ThreadPool* pool) -> std::string {
    chor::TomcatParams params;
    params.clients = 3;
    const uml::Model model = chor::tomcat_model(false, params);
    auto extraction = chor::extract_state_machines(model);
    pepa::Semantics semantics(extraction.model.arena());
    pepa::DeriveOptions options;
    options.max_states = 5;
    options.threads = threads;
    options.pool = pool;
    try {
      pepa::StateSpace::derive(semantics, extraction.model.system(), options);
    } catch (const util::ModelError& error) {
      return error.what();
    }
    return "";
  };
  const std::string expected = derive_with(1, nullptr);
  ASSERT_NE(expected.find("state-space explosion"), std::string::npos);
  util::ThreadPool pool(4);
  EXPECT_EQ(derive_with(2, &pool), expected);
  EXPECT_EQ(derive_with(8, &pool), expected);
}

// Many explorations of the same model against ONE shared arena + semantics:
// the interning stripes and memoisation caches are hit from every lane of
// every exploration at once.  All resulting spaces must agree.
TEST(ParallelStateSpace, ConcurrentDerivesOnSharedSemanticsAgree) {
  chor::TomcatParams params;
  params.clients = 2;
  const uml::Model model = chor::tomcat_model(false, params);
  auto extraction = chor::extract_state_machines(model);
  pepa::Semantics semantics(extraction.model.arena());

  util::ThreadPool pool(4);
  constexpr std::size_t kExplorers = 4;
  std::vector<std::vector<std::string>> results(kExplorers);
  std::vector<std::thread> explorers;
  explorers.reserve(kExplorers);
  for (std::size_t e = 0; e < kExplorers; ++e) {
    explorers.emplace_back([&, e] {
      pepa::DeriveOptions options;
      options.threads = 2;
      options.pool = &pool;
      const pepa::StateSpace space = pepa::StateSpace::derive(
          semantics, extraction.model.system(), options);
      results[e] = fingerprint(extraction.model.arena(), space);
    });
  }
  for (std::thread& explorer : explorers) explorer.join();
  for (std::size_t e = 1; e < kExplorers; ++e) {
    EXPECT_EQ(results[e], results[0]) << "explorer " << e;
  }
}

// Two threads derive different models over and over, at two lanes each.  A
// destroyed space retires its transition mapping to one process-wide spare,
// so a derive may write its records over pages the other model's derive
// left: every result must still equal that model's serial derive.
TEST(ParallelStateSpace, ConcurrentRepeatedDerivesOfDifferentModelsAgree) {
  constexpr std::size_t kRounds = 4;
  const std::size_t clients[] = {8, 6};  // 25,088 and 3,744 transitions
  auto extract = [](std::size_t count) {
    chor::TomcatParams params;
    params.clients = count;
    return chor::extract_state_machines(chor::tomcat_model(false, params));
  };
  std::vector<std::string> expected[2];
  for (std::size_t m = 0; m < 2; ++m) {
    auto extraction = extract(clients[m]);
    pepa::Semantics semantics(extraction.model.arena());
    expected[m] = fingerprint(
        extraction.model.arena(),
        pepa::StateSpace::derive(semantics, extraction.model.system()));
  }

  util::ThreadPool pool(4);
  std::vector<std::vector<std::string>> results[2];
  std::vector<std::thread> derivers;
  for (std::size_t m = 0; m < 2; ++m) {
    derivers.emplace_back([&, m] {
      auto extraction = extract(clients[m]);
      pepa::Semantics semantics(extraction.model.arena());
      pepa::DeriveOptions options;
      options.threads = 2;
      options.pool = &pool;
      for (std::size_t r = 0; r < kRounds; ++r) {
        const pepa::StateSpace space = pepa::StateSpace::derive(
            semantics, extraction.model.system(), options);
        results[m].push_back(fingerprint(extraction.model.arena(), space));
      }
    });
  }
  for (std::thread& deriver : derivers) deriver.join();
  for (std::size_t m = 0; m < 2; ++m) {
    ASSERT_EQ(results[m].size(), kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) {
      EXPECT_EQ(results[m][r], expected[m])
          << clients[m] << " clients, round " << r;
    }
  }
}

// Several threads make their first state measure calls on one freshly
// derived space at the same time, so they race to build its local-state
// index.  Every result must equal the serial one bit for bit.
TEST(ParallelStateSpace, ConcurrentFirstStateMeasuresAgree) {
  chor::TomcatParams params;
  params.clients = 6;
  auto extraction =
      chor::extract_state_machines(chor::tomcat_model(false, params));
  const pepa::ProcessArena& arena = extraction.model.arena();
  pepa::Semantics semantics(extraction.model.arena());
  const pepa::StateSpace serial =
      pepa::StateSpace::derive(semantics, extraction.model.system());
  const std::vector<double> pi =
      ctmc::steady_state(serial.generator()).distribution;
  const std::size_t constants = arena.constant_count();
  // Bits of {state_probability, mean_population} per constant.
  auto measure_all = [&](const pepa::StateSpace& space, std::size_t first) {
    std::vector<std::uint64_t> bits(2 * constants);
    for (std::size_t i = 0; i < constants; ++i) {
      const auto c = static_cast<pepa::ConstantId>((first + i) % constants);
      bits[2 * c] = std::bit_cast<std::uint64_t>(
          pepa::state_probability(space, pi, arena, c));
      bits[2 * c + 1] = std::bit_cast<std::uint64_t>(
          pepa::mean_population(space, pi, arena, c));
    }
    return bits;
  };
  const std::vector<std::uint64_t> expected = measure_all(serial, 0);

  const pepa::StateSpace fresh =
      pepa::StateSpace::derive(semantics, extraction.model.system());
  constexpr std::size_t kReaders = 6;
  std::vector<std::vector<std::uint64_t>> results(kReaders);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ready.fetch_add(1);
      while (ready.load() < kReaders) std::this_thread::yield();
      results[r] = measure_all(fresh, r);  // each starts at its own constant
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(results[r], expected) << "reader " << r;
  }
}

// The action index is built by the first query.  Six threads race the
// first action_transitions and action_throughput calls on a freshly derived
// space; every slice and every throughput must equal the serially built
// index's — a flat scan's positions, and its sums in emission order.
TEST(ParallelStateSpace, ConcurrentFirstActionQueriesAgree) {
  chor::TomcatParams params;
  params.clients = 6;
  auto extraction =
      chor::extract_state_machines(chor::tomcat_model(false, params));
  const pepa::ProcessArena& arena = extraction.model.arena();
  pepa::Semantics semantics(extraction.model.arena());
  const pepa::StateSpace serial =
      pepa::StateSpace::derive(semantics, extraction.model.system());
  const std::vector<double> pi =
      ctmc::steady_state(serial.generator()).distribution;
  const std::size_t actions = arena.action_count();
  // Per action: its positions by a flat scan, then its throughput's bits.
  std::vector<std::vector<std::uint64_t>> expected(actions);
  for (std::size_t a = 0; a < actions; ++a) {
    double sum = 0.0;
    for (std::size_t i = 0; i < serial.transitions().size(); ++i) {
      const pepa::StateTransition& t = serial.transitions()[i];
      if (t.action != a) continue;
      expected[a].push_back(i);
      sum += pi[t.source] * t.rate;
    }
    expected[a].push_back(std::bit_cast<std::uint64_t>(sum));
  }
  auto query_all = [&](const pepa::StateSpace& space, std::size_t first) {
    std::vector<std::vector<std::uint64_t>> out(actions);
    for (std::size_t k = 0; k < actions; ++k) {
      const std::size_t a = (first + k) % actions;
      const double throughput =
          pepa::action_throughput(space, pi, static_cast<pepa::ActionId>(a));
      for (const std::uint32_t i : space.lts().action_transitions(a)) {
        out[a].push_back(i);
      }
      out[a].push_back(std::bit_cast<std::uint64_t>(throughput));
    }
    return out;
  };

  const pepa::StateSpace fresh =
      pepa::StateSpace::derive(semantics, extraction.model.system());
  constexpr std::size_t kReaders = 6;
  std::vector<std::vector<std::vector<std::uint64_t>>> results(kReaders);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ready.fetch_add(1);
      while (ready.load() < kReaders) std::this_thread::yield();
      // Even readers ask a slice first, odd ones a throughput, so both
      // calls race the build.
      if (r % 2 == 0) (void)fresh.lts().action_transitions(r % actions);
      results[r] = query_all(fresh, r);
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(results[r], expected) << "reader " << r;
  }
}

// Concurrent service jobs exercising the whole pipeline with parallel
// exploration lanes — scheduler workers, per-job derivations and the lane
// pool all overlap.  Every job of one model must produce the same bytes.
TEST(ParallelStateSpace, ConcurrentServiceJobsProduceIdenticalBytes) {
  const xml::Document project = uml::to_xmi(chor::pda_handover_model());

  service::Registry registry;
  service::SchedulerOptions options;
  options.workers = 3;
  options.derive_threads = 2;
  options.registry = &registry;
  service::Scheduler scheduler(options);

  constexpr std::size_t kJobs = 6;
  std::vector<service::JobHandle> handles;
  handles.reserve(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    service::JobRequest request;
    request.name = "job-" + std::to_string(j);
    request.project = project;
    handles.push_back(scheduler.submit(request));
  }
  std::string expected;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const service::JobResult result = handles[j].wait();
    ASSERT_EQ(result.status, service::JobStatus::kDone) << result.error;
    if (j == 0) {
      expected = result.annotated_xmi;
      ASSERT_FALSE(expected.empty());
    } else {
      EXPECT_EQ(result.annotated_xmi, expected) << "job " << j;
    }
  }

  // The exploration metrics the scheduler exports are populated.
  EXPECT_GT(registry.counter("choreo_explored_states_total", "").value(), 0u);
  EXPECT_GT(registry.gauge("choreo_explore_peak_frontier", "").value(), 0);
  EXPECT_GT(registry.histogram("choreo_stage_derive_seconds", "").count(), 0u);
  EXPECT_GT(
      registry.histogram("choreo_explore_states_per_second", "").count(), 0u);
}

}  // namespace
