// Integration tests: state-space derivation -> CTMC -> steady state ->
// measures, including the paper's File protocol properties (Section 2.2)
// and the client/server state-diagram measures (Section 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/measures.hpp"
#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "pepa/statespace.hpp"
#include "state_measures_oracle.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cp = choreo::pepa;
namespace cc = choreo::ctmc;
namespace cu = choreo::util;
namespace chor = choreo::chor;

namespace {

std::vector<double> solve(const cp::StateSpace& space) {
  return cc::steady_state(space.generator()).distribution;
}

/// Derive lane counts the state-measure tests cover; the space keeps its
/// lanes for the local-state index.
std::vector<std::size_t> lane_counts() { return {1, 2, 4, 8}; }

cp::StateSpace derive_at(cp::Semantics& semantics, cp::ProcessId system,
                         std::size_t lanes, bool aggregate = false) {
  static cu::ThreadPool pool(4);  // real workers even on a single-core host
  cp::DeriveOptions options;
  options.threads = lanes;
  options.pool = &pool;
  options.aggregate = aggregate;
  return cp::StateSpace::derive(semantics, system, options);
}

/// Derives `model` at every lane count and checks the state measures of
/// every declared constant against the per-state scan, bit for bit.
void expect_measures_match_scan(cp::Model& model, bool aggregate = false) {
  for (const std::size_t lanes : lane_counts()) {
    cp::Semantics semantics(model.arena());
    const auto space = derive_at(semantics, model.system(), lanes, aggregate);
    choreo::test::expect_state_measures_match_scan(
        space, choreo::test::ragged_weights(space.state_count(), lanes),
        model.arena());
  }
}

/// Eight clients share one set of constants, so a state holds a constant
/// in up to eight positions; no state holds Unused.
constexpr const char* kReplicatedClients = R"(
  Client  = (request, 1.0).Wait;
  Wait    = (response, 2.0).Think;
  Think   = (think, 0.5).Client;
  Server  = (request, 4.0).Serve;
  Serve   = (response, 3.0).Server;
  Unused  = (idle, 1.0).Unused;
  Sys = Client[8] <request, response> Server;
  @system Sys;
)";

}  // namespace

TEST(StateSpace, TwoStateToggleMatchesClosedForm) {
  auto model = cp::parse_model("On = (off, 2.0).Off; Off = (on, 3.0).On; @system On;");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  ASSERT_EQ(space.state_count(), 2u);
  const auto pi = solve(space);
  EXPECT_NEAR(pi[0], 3.0 / 5.0, 1e-10);  // On
  EXPECT_NEAR(pi[1], 2.0 / 5.0, 1e-10);  // Off
}

TEST(StateSpace, FileProtocolStates) {
  // Figure 1 / Section 2.2: File, InStream, OutStream.
  auto model = cp::parse_model(R"(
    File      = (openread, 2.0).InStream + (openwrite, 2.0).OutStream;
    InStream  = (read, 1.8).InStream + (close, 3.0).File;
    OutStream = (write, 1.2).OutStream + (close, 3.0).File;
    @system File;
  )");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  EXPECT_EQ(space.state_count(), 3u);
  EXPECT_TRUE(space.deadlock_states().empty());

  // "It is not possible to write to a closed file": no write transition
  // leaves the File state, and "read and write operations cannot be
  // interleaved": no state enables both read and write.
  const auto write = *model.arena().find_action("write");
  const auto read = *model.arena().find_action("read");
  const auto file_state = *space.index_of(model.term("File"));
  for (const auto& t : space.transitions()) {
    EXPECT_FALSE(t.source == file_state && t.action == write);
  }
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    bool enables_read = false, enables_write = false;
    for (const auto& t : space.transitions()) {
      if (t.source != s) continue;
      enables_read |= t.action == read;
      enables_write |= t.action == write;
    }
    EXPECT_FALSE(enables_read && enables_write) << "state " << s;
  }
}

TEST(StateSpace, ThroughputBalance) {
  // openread + openwrite throughput must equal close throughput in steady
  // state (every open is eventually closed).
  auto model = cp::parse_model(R"(
    File      = (openread, 2.0).InStream + (openwrite, 2.0).OutStream;
    InStream  = (read, 1.8).InStream + (close, 3.0).File;
    OutStream = (write, 1.2).OutStream + (close, 3.0).File;
    @system File;
  )");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  const auto pi = solve(space);
  const double opens =
      cp::action_throughput(space, pi, *model.arena().find_action("openread")) +
      cp::action_throughput(space, pi, *model.arena().find_action("openwrite"));
  const double closes =
      cp::action_throughput(space, pi, *model.arena().find_action("close"));
  EXPECT_NEAR(opens, closes, 1e-10);
}

TEST(StateSpace, SharedActionAppearsOnceInCooperation) {
  auto model = cp::parse_model(R"(
    P = (work, 2.0).(sync, 1.0).P;
    Q = (sync, infty).(other, 3.0).Q;
    S = P <sync> Q;
    @system S;
  )");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  EXPECT_TRUE(space.deadlock_states().empty());
  const auto pi = solve(space);
  const double sync_tp =
      cp::action_throughput(space, pi, *model.arena().find_action("sync"));
  const double work_tp =
      cp::action_throughput(space, pi, *model.arena().find_action("work"));
  const double other_tp =
      cp::action_throughput(space, pi, *model.arena().find_action("other"));
  // One sync per work and one other per sync in the long run.
  EXPECT_NEAR(sync_tp, work_tp, 1e-10);
  EXPECT_NEAR(sync_tp, other_tp, 1e-10);
}

TEST(StateSpace, TopLevelPassiveRejected) {
  auto model = cp::parse_model("P = (a, infty).P; @system P;");
  cp::Semantics semantics(model.arena());
  EXPECT_THROW(cp::StateSpace::derive(semantics, model.system()), cu::ModelError);
}

TEST(StateSpace, MaxStatesBoundEnforced) {
  auto model = cp::parse_model(R"(
    P = (a, 1.0).(b, 1.0).(c, 1.0).(d, 1.0).P;
    S = P || P || P || P || P;
    @system S;
  )");
  cp::Semantics semantics(model.arena());
  cp::DeriveOptions options;
  options.max_states = 100;
  EXPECT_THROW(cp::StateSpace::derive(semantics, model.system(), options),
               cu::ModelError);
}

TEST(StateSpace, DeadlockDetected) {
  auto model = cp::parse_model("P = (a, 1.0).Stop; @system P;");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  EXPECT_EQ(space.deadlock_states().size(), 1u);
}

TEST(StateSpace, ReplicatedClientsGrowCombinatorially) {
  // State-space explosion (paper Section 1.1): N interleaved three-state
  // clients yield 3^N states.
  for (int n : {1, 2, 3, 4}) {
    std::string source = "C = (req, 1.0).(wait, 2.0).(think, 3.0).C;\nS = C";
    for (int i = 1; i < n; ++i) source += " || C";
    source += ";\n@system S;";
    auto model = cp::parse_model(source);
    cp::Semantics semantics(model.arena());
    const auto space = cp::StateSpace::derive(semantics, model.system());
    EXPECT_EQ(space.state_count(), static_cast<std::size_t>(std::pow(3, n)));
  }
}

TEST(Measures, OccupiesFindsSequentialPositions) {
  auto model = cp::parse_model(R"(
    A = (go, 1.0).B;
    B = (back, 1.0).A;
    S = A || B;
    @system S;
  )");
  const auto a = *model.arena().find_constant("A");
  const auto b = *model.arena().find_constant("B");
  const auto s = *model.arena().find_constant("S");
  auto& arena = model.arena();
  const auto term = arena.cooperation(arena.constant(a), {}, arena.constant(b));
  EXPECT_TRUE(cp::occupies(arena, term, a));
  EXPECT_TRUE(cp::occupies(arena, term, b));
  EXPECT_FALSE(cp::occupies(arena, term, s));
}

TEST(Measures, StateProbabilitiesSumOverDiagramStates) {
  // Client state diagram (paper Figure 8): three local states.
  auto model = cp::parse_model(R"(
    GenerateRequest = (request, 2.0).WaitForResponse;
    WaitForResponse = (response, 4.0).ProcessResponse;
    ProcessResponse = (offlineProcessing, 8.0).GenerateRequest;
    @system GenerateRequest;
  )");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  const auto pi = solve(space);
  double total = 0.0;
  for (const char* name : {"GenerateRequest", "WaitForResponse", "ProcessResponse"}) {
    total += cp::state_probability(space, pi, model.arena(),
                                   *model.arena().find_constant(name));
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
  // Sojourn proportional to 1/rate: P[GenerateRequest] = (1/2)/(1/2+1/4+1/8).
  EXPECT_NEAR(cp::state_probability(space, pi, model.arena(),
                                    *model.arena().find_constant("GenerateRequest")),
              (1.0 / 2.0) / (1.0 / 2.0 + 1.0 / 4.0 + 1.0 / 8.0), 1e-10);
}

TEST(Measures, MeanPopulationCountsReplicas) {
  auto model = cp::parse_model(R"(
    Busy = (rest, 1.0).Idle;
    Idle = (work, 1.0).Busy;
    S = Busy || Busy;
    @system S;
  )");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  const auto pi = solve(space);
  const auto busy = *model.arena().find_constant("Busy");
  // Symmetric rates: each replica is Busy half the time.
  EXPECT_NEAR(cp::mean_population(space, pi, model.arena(), busy), 1.0, 1e-10);
}

TEST(Measures, StateMeasuresMatchScanOnTomcatStateMachines) {
  // The paper's state-diagram leg: one constant per UML state, unique per
  // machine, so every state holds each constant at most once.
  chor::TomcatParams params;
  params.clients = 6;
  auto extraction =
      chor::extract_state_machines(chor::tomcat_model(false, params));
  expect_measures_match_scan(extraction.model);
}

TEST(Measures, StateMeasuresMatchScanOnReplicas) {
  auto model = cp::parse_model(kReplicatedClients);
  expect_measures_match_scan(model);
}

TEST(Measures, StateMeasuresMatchScanOnTheQuotient) {
  auto model = cp::parse_model(kReplicatedClients);
  expect_measures_match_scan(model, /*aggregate=*/true);
}

TEST(Measures, StateMeasuresMatchScanUnderHiding) {
  auto model = cp::parse_model(R"(
    Client = (request, 1.0).Wait;
    Wait   = (response, 2.0).Think;
    Think  = (think, 0.5).Client;
    Server = (request, 4.0).Serve;
    Serve  = (response, 3.0).Server;
    Sys = ((Client/{think})[2] <request, response> Server)/{request};
    @system Sys;
  )");
  expect_measures_match_scan(model);
}

// The local-state index is a counting sort over ranges of states, split
// over the derive's lanes once a space has 2^16 states: the sixteen-replica
// cycle (every state holds both constants many times, so the occurrence
// counts are kept) and the 12-client Tomcat (each constant at most once).
// Every lane count must give the one-lane index: the same slices, and the
// same measures bit for bit.
TEST(Measures, LocalStateIndexIsTheSameAtEveryLaneCount) {
  auto replicas = cp::parse_model(R"(
    P = (a, 1.0).Q;
    Q = (b, 2.0).P;
    Sys = P[16];
    @system Sys;
  )");
  chor::TomcatParams params;
  params.clients = 12;
  auto tomcat =
      chor::extract_state_machines(chor::tomcat_model(false, params)).model;
  for (cp::Model* model : {&replicas, &tomcat}) {
    const cp::ProcessArena& arena = model->arena();
    cp::Semantics serial_semantics(model->arena());
    const auto serial = derive_at(serial_semantics, model->system(), 1);
    ASSERT_GE(serial.state_count(), std::size_t{1} << 16);
    const auto pi = choreo::test::ragged_weights(serial.state_count(), 5);
    for (const std::size_t lanes : {2u, 4u, 8u}) {
      cp::Semantics semantics(model->arena());
      const auto space = derive_at(semantics, model->system(), lanes);
      for (cp::ConstantId c = 0; c < arena.constant_count(); ++c) {
        const auto expected = serial.local_states(arena).occupying(c);
        const auto got = space.local_states(arena).occupying(c);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                               expected.end()))
            << arena.constant_name(c) << " at " << lanes << " lanes";
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      cp::mean_population(space, pi, arena, c)),
                  std::bit_cast<std::uint64_t>(
                      cp::mean_population(serial, pi, arena, c)))
            << arena.constant_name(c) << " at " << lanes << " lanes";
      }
    }
  }
}

TEST(Measures, ConstantsDeclaredAfterDeriveMeasureZero) {
  auto model = cp::parse_model(kReplicatedClients);
  auto& arena = model.arena();
  for (const std::size_t lanes : lane_counts()) {
    cp::Semantics semantics(arena);
    const auto first = derive_at(semantics, model.system(), lanes);
    const auto second = derive_at(semantics, model.system(), lanes);
    const auto pi = choreo::test::ragged_weights(first.state_count(), lanes);
    first.local_states(arena);

    // `first` built its index before the declaration, so the new id lies
    // past its end; `second` builds its index now, with the id in range
    // but held by no state.
    const auto late = arena.declare("Late" + std::to_string(lanes));
    for (const cp::StateSpace* space : {&first, &second}) {
      EXPECT_TRUE(space->local_states(arena).occupying(late).empty());
      EXPECT_EQ(cp::state_probability(*space, pi, arena, late), 0.0);
      EXPECT_EQ(cp::mean_population(*space, pi, arena, late), 0.0);
    }
  }
}

// all_throughputs sums every action in one pass; each sum must equal the
// action's indexed query bit for bit, over exactly the actions that occur.
TEST(Measures, AllThroughputsMatchTheIndexedQueries) {
  chor::TomcatParams params;
  params.clients = 6;
  auto extraction =
      chor::extract_state_machines(chor::tomcat_model(false, params));
  const cp::ProcessArena& arena = extraction.model.arena();
  cp::Semantics semantics(extraction.model.arena());
  const auto space = derive_at(semantics, extraction.model.system(), 2);
  const auto pi = choreo::test::ragged_weights(space.state_count(), 9);
  const auto all = cp::all_throughputs(space, pi, arena);
  std::size_t next = 0;
  for (cp::ActionId action = 0; action < arena.action_count(); ++action) {
    if (space.lts().action_transitions(action).empty()) continue;
    ASSERT_LT(next, all.size());
    EXPECT_EQ(all[next].first, action);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(all[next].second),
              std::bit_cast<std::uint64_t>(
                  cp::action_throughput(space, pi, action)))
        << arena.action_name(action);
    ++next;
  }
  EXPECT_EQ(next, all.size());
}

TEST(Measures, AllThroughputsCoverEveryAction) {
  auto model = cp::parse_model(R"(
    P = (a, 1.0).(b, 2.0).P;
    @system P;
  )");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  const auto pi = solve(space);
  const auto throughputs = cp::all_throughputs(space, pi, model.arena());
  ASSERT_EQ(throughputs.size(), 2u);
  // In a two-phase cycle both activities have equal throughput 1/(1/1+1/2).
  EXPECT_NEAR(throughputs[0].second, 1.0 / 1.5, 1e-10);
  EXPECT_NEAR(throughputs[1].second, 1.0 / 1.5, 1e-10);
}
