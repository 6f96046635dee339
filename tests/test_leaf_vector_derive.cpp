// Differential tests of the leaf-vector derive (pepa::StateSpace::derive)
// against the term-level derive it replaced (tests/term_derive_oracle.hpp):
// state terms, transitions, rate bits and DeriveStats must agree bit for
// bit, full space and quotient-direct, at lanes {1, 2, nproc}.  The models
// cover the parametric families, the Tomcat study cached and uncached,
// dynamic structure (a leaf whose local state becomes a cooperation, and a
// dynamic top-level system), hiding over mixed-shape spines, same-shape
// composite siblings, repeated and self-looping offers, dropped top-level
// passive moves, and error parity: a local term that fails to derive fails
// only the global states that hold it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/aggregate.hpp"
#include "pepa/families.hpp"
#include "pepa/measures.hpp"
#include "pepa/parser.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "term_derive_oracle.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace choreo;
namespace cp = choreo::pepa;

std::vector<std::size_t> lane_counts() {
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  return {1, 2, cores};
}

/// Derives `system` term by term, then with the leaf-vector derive at
/// every lane count, full and quotient-direct, and requires identity.
void expect_matches_term_derive(cp::ProcessArena& arena, cp::ProcessId system,
                                const std::string& name,
                                cp::DeriveOptions options = {}) {
  util::ThreadPool pool(3);
  for (const bool aggregate : {false, true}) {
    options.aggregate = aggregate;
    cp::Semantics reference_semantics(arena);
    const test::TermSpace reference =
        test::term_derive(reference_semantics, system, options);
    for (const std::size_t lanes : lane_counts()) {
      const std::string context =
          name + (aggregate ? " quotient" : " full") + " at " +
          std::to_string(lanes) + " lanes";
      cp::Semantics semantics(arena);
      cp::DeriveOptions run = options;
      run.threads = lanes;
      run.pool = &pool;
      const cp::StateSpace space =
          cp::StateSpace::derive(semantics, system, run);
      test::expect_same_space(space, reference, context);
      EXPECT_EQ(space.aggregated(), aggregate) << context;
    }
  }
}

void expect_source_matches(const std::string& source, const std::string& name,
                           cp::DeriveOptions options = {}) {
  cp::Model model = cp::parse_model(source);
  expect_matches_term_derive(model.arena(), model.system(), name, options);
}

TEST(LeafVectorDerive, FamiliesMatchTheTermDerive) {
  for (const auto& [clients, servers] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 3}, {5, 3}, {6, 2}, {1, 1}}) {
    cp::Model model = cp::client_server(clients, {.servers = servers});
    expect_matches_term_derive(model.arena(), model.system(),
                               "client_server(" + std::to_string(clients) +
                                   ", " + std::to_string(servers) + ")");
  }
  for (const auto& [pdas, transmitters] :
       std::vector<std::pair<std::size_t, std::size_t>>{{3, 2}, {5, 3}}) {
    cp::Model model = cp::pda_handover(pdas, {.transmitters = transmitters});
    expect_matches_term_derive(model.arena(), model.system(),
                               "pda_handover(" + std::to_string(pdas) + ", " +
                                   std::to_string(transmitters) + ")");
  }
  for (const std::size_t stations : {4u, 8u, 12u}) {
    cp::Model model = cp::ring(stations);
    expect_matches_term_derive(model.arena(), model.system(),
                               "ring(" + std::to_string(stations) + ")");
  }
}

TEST(LeafVectorDerive, TomcatMatchesTheTermDeriveAtOneToEightClients) {
  for (const bool cached : {false, true}) {
    for (std::size_t clients = 1; clients <= 8; ++clients) {
      chor::TomcatParams params;
      params.clients = clients;
      auto extraction =
          chor::extract_state_machines(chor::tomcat_model(cached, params));
      expect_matches_term_derive(
          extraction.model.arena(), extraction.model.system(),
          std::string(cached ? "cached " : "") + "tomcat[" +
              std::to_string(clients) + "cl]");
    }
  }
}

TEST(LeafVectorDerive, DynamicLeafBesideASequentialOne) {
  // After `a`, P's local state is the cooperation Q <b> Q: a leaf of the
  // static tree whose local term reaches a cooperation under a prefix.
  expect_source_matches(R"(
    Q = (b, 2.0).(c, 3.0).Q;
    P = (a, 1.0).(Q <b> Q) + (d, 0.5).P;
    S = (a, 1.0).S + (c, 4.0).S;
    Sys = P <a, c> S;
    @system Sys;
  )", "dynamic leaf");
}

TEST(LeafVectorDerive, DynamicTopLevelSystem) {
  // The whole system is one leaf; its composite derivative is its own
  // local state, and under quotient its Canonicalizer representative.
  expect_source_matches(R"(
    Q = (b, 2.0).(c, 3.0).Q;
    P = (a, 1.0).(Q || Q);
    @system P;
  )", "dynamic top level");
  cp::Model model = cp::parse_model(R"(
    Q = (b, 2.0).(c, 3.0).Q;
    P = (a, 1.0).(Q || Q);
    @system P;
  )");
  cp::Semantics semantics(model.arena());
  cp::DeriveOptions options;
  options.aggregate = true;
  EXPECT_EQ(
      cp::StateSpace::derive(semantics, model.system(), options).state_count(),
      4u);
}

TEST(LeafVectorDerive, ChoiceOfferingOneActionTwiceAndSelfLoops) {
  expect_source_matches(R"(
    P = (a, 1.0).P + (a, 1.0).P + (b, 2.0).Q;
    Q = (a, 3.0).Q + (c, 1.0).P + (c, 1.0).P;
    R = (a, infty).R + (a, 2*infty).R2 + (c, 2.0).R;
    R2 = (a, infty).R + (b, 0.5).R2;
    Sys = (P <a> R) || P;
    @system Sys;
  )", "repeated offers");
}

// Top-level passive moves are never dropped: the derive refuses the model
// with the term derive's error at every lane count.
TEST(LeafVectorDerive, DroppedTopLevelPassiveMoves) {
  const std::string source = R"(
    P = (a, infty).P + (b, 1.0).Q;
    Q = (c, 1.0).P + (a, 2.0).Q;
    R = (c, infty).R + (d, infty).R;
    Sys = P <c> R;
    @system Sys;
  )";
  cp::Model model = cp::parse_model(source);
  cp::Semantics semantics(model.arena());
  const std::string expected = test::error_text(
      [&] { test::term_derive(semantics, model.system()); });
  ASSERT_NE(expected.find("occurs passively"), std::string::npos);
  for (const std::size_t lanes : lane_counts()) {
    cp::DeriveOptions options;
    options.threads = lanes;
    EXPECT_EQ(test::error_text([&] {
                cp::StateSpace::derive(semantics, model.system(), options);
              }),
              expected);
  }
}

TEST(LeafVectorDerive, HidingOverAMixedShapeSpine) {
  // The hidden spine's siblings are a cooperation and two leaves.  Every
  // local state is a named constant, so the siblings' structural order
  // never depends on their contents and the quotient keeps the term
  // quotient's representatives (UnreproducedRepresentativesAreStillExact-
  // Lumpings covers a spine where it does depend on them).
  expect_source_matches(R"(
    A = (x, 1.0).A1;
    A1 = (a, 2.0).A;
    B = (x, infty).B1;
    B1 = (b, 3.0).B;
    C = (a, 1.5).C + (c, 0.5).C2;
    C2 = (c, 2.5).C;
    Sys = ((A <x> B) || C || A)/{x, a} <c> ((C || C2)/{a});
    @system Sys;
  )", "hiding over a mixed spine");
}

TEST(LeafVectorDerive, SameShapeCompositeSiblings) {
  // Three same-shape composite siblings of one empty-set spine form a sort
  // group whose slot-wise leaves share union tables.
  expect_source_matches(R"(
    P = (go, 1.0).P2;
    P2 = (x, 2.0).P;
    Q = (x, infty).Q2;
    Q2 = (back, 3.0).Q;
    Pair = P <x> Q;
    Sys = Pair || Pair || Pair || (P || P);
    @system Sys;
  )", "same-shape composite siblings");
}

TEST(LeafVectorDerive, QuotientTestModelsMatch) {
  for (const auto& [clients, servers] :
       std::vector<std::pair<std::size_t, std::size_t>>{{4, 3}, {5, 3}}) {
    cp::Model model = cp::client_server(clients, {.servers = servers});
    expect_matches_term_derive(model.arena(), model.system(),
                               "quotient client_server");
  }
  cp::Model handover = cp::pda_handover(3, {.transmitters = 2});
  expect_matches_term_derive(handover.arena(), handover.system(),
                             "quotient pda_handover");
  cp::Model ring = cp::ring(4);
  expect_matches_term_derive(ring.arena(), ring.system(), "quotient ring");
}

TEST(LeafVectorDerive, UnreachableUnguardedRecursionIsNeverRaised) {
  // P could move by b to X, whose derivatives raise, but Q never offers b:
  // the global space is the one initial state, as with the term derive.
  expect_source_matches(R"(
    P = (a, 1.0).P + (b, 1.0).X;
    X = Y;
    Y = X;
    Q = (a, infty).Q;
    Sys = P <a, b> Q;
    @system Sys;
  )", "unreachable unguarded recursion");
  cp::Model model = cp::parse_model(R"(
    P = (a, 1.0).P + (b, 1.0).X;
    X = Y;
    Y = X;
    Q = (a, infty).Q;
    Sys = P <a, b> Q;
    @system Sys;
  )");
  cp::Semantics semantics(model.arena());
  EXPECT_EQ(cp::StateSpace::derive(semantics, model.system()).state_count(),
            1u);
}

TEST(LeafVectorDerive, ReachableUnguardedRecursionRaisesTheTermDeriveText) {
  cp::Model model = cp::parse_model(R"(
    P = (a, 1.0).X;
    X = Y;
    Y = X;
    Q = (a, infty).Q;
    Sys = P <a, b> Q;
    @system Sys;
  )");
  cp::Semantics reference(model.arena());
  const std::string expected = test::error_text(
      [&] { test::term_derive(reference, model.system()); });
  EXPECT_NE(expected.find("unguarded recursion through constant"),
            std::string::npos);
  for (const std::size_t lanes : lane_counts()) {
    for (const bool aggregate : {false, true}) {
      cp::Semantics semantics(model.arena());
      cp::DeriveOptions options;
      options.threads = lanes;
      options.aggregate = aggregate;
      EXPECT_EQ(test::error_text([&] {
                  cp::StateSpace::derive(semantics, model.system(), options);
                }),
                expected);
    }
  }
}

TEST(LeafVectorDerive, OneSidedMixedOfferRaisesTheTermDeriveText) {
  // One operand of <a> offers a both actively and passively — in one
  // choice (a leaf) or across a parallel pair — and its partner never
  // offers a.  No pair can form, but the term derive still asks that
  // operand's apparent rate of a, which raises; so must the leaf-vector
  // derive, whichever side the operand is on.
  const std::string components = R"(
    P = (a, 1.0).P + (a, infty).P + (b, 1.0).P;
    P1 = (a, 1.0).P1;
    P2 = (a, infty).P2;
    Q = (c, 1.0).Q;
  )";
  for (const std::string system :
       {"P <a> Q", "Q <a> P", "(P1 || P2) <a> Q", "Q <a> (P1 || P2)"}) {
    cp::Model model =
        cp::parse_model(components + "Sys = " + system + ";\n@system Sys;");
    for (const bool aggregate : {false, true}) {
      cp::DeriveOptions options;
      options.aggregate = aggregate;
      cp::Semantics reference(model.arena());
      const std::string expected = test::error_text(
          [&] { test::term_derive(reference, model.system(), options); });
      EXPECT_NE(expected.find("cannot mix active and passive rates"),
                std::string::npos)
          << system;
      for (const std::size_t lanes : lane_counts()) {
        cp::Semantics semantics(model.arena());
        options.threads = lanes;
        EXPECT_EQ(test::error_text([&] {
                    cp::StateSpace::derive(semantics, model.system(), options);
                  }),
                  expected)
            << system << (aggregate ? " quotient" : " full") << " at "
            << lanes << " lanes";
      }
    }
  }
}

TEST(LeafVectorDerive, ExplosionTextAndChargesMatchUnderASmallBound) {
  // The server's local closure is larger than the bound: the closure stops
  // there and the engine raises the bound, after charging what it kept.
  chor::TomcatParams params;
  params.clients = 3;
  auto extraction = chor::extract_state_machines(chor::tomcat_model(false, params));
  cp::DeriveOptions options;
  options.max_states = 5;
  cp::Semantics reference(extraction.model.arena());
  const std::string expected = test::error_text([&] {
    test::term_derive(reference, extraction.model.system(), options);
  });
  ASSERT_NE(expected.find("state-space explosion"), std::string::npos);
  util::Budget budget;
  options.budget = &budget;
  cp::Semantics semantics(extraction.model.arena());
  EXPECT_EQ(test::error_text([&] {
              cp::StateSpace::derive(semantics, extraction.model.system(),
                                     options);
            }),
            expected);
  EXPECT_EQ(budget.usage().states, 5u);
}

TEST(LeafVectorDerive, ALeafClosureBeyondTheBoundDerivesASpaceWithinIt) {
  // Each P0 closure is larger than the bound of 3, but S never offers b:
  // the spaces are the P states beside S, which fit.  In the second the
  // blocked branches come first in the closure's breadth-first order, so
  // a closure cut at the bound would miss P1 and P2.
  cp::DeriveOptions options;
  options.max_states = 3;
  expect_source_matches(R"(
    P0 = (a, 1.0).P1 + (b, 1.0).Q0;
    P1 = (a, 1.0).P0 + (b, 1.0).R0;
    Q0 = (c, 1.0).Q0;
    R0 = (c, 1.0).R0;
    S = (d, 1.0).S;
    Sys = P0 <b> S;
    @system Sys;
  )", "blocked move past the bound", options);
  expect_source_matches(R"(
    P0 = (b, 1.0).B1 + (b, 2.0).B2 + (b, 3.0).B3 + (a, 1.0).P1;
    P1 = (a, 1.0).P2;
    P2 = (a, 1.0).P0;
    B1 = (c, 1.0).B1;
    B2 = (c, 1.0).B2;
    B3 = (c, 1.0).B3;
    S = (d, 1.0).S;
    Sys = P0 <b> S;
    @system Sys;
  )", "blocked branches first", options);
}

TEST(LeafVectorDerive, AnUnboundedDynamicSystemExplodesWhereTheTermDeriveDoes) {
  // P's closure never ends.  As a top-level system it is explored in the
  // closure's own breadth-first order, so the bound trips at the same
  // state as the term derive's, full and quotient-direct.
  cp::Model model = cp::parse_model(R"(
    P = (a, 1.0).(P || P);
    @system P;
  )");
  for (const bool aggregate : {false, true}) {
    cp::DeriveOptions options;
    options.max_states = 20;
    options.aggregate = aggregate;
    cp::Semantics reference(model.arena());
    const std::string expected = test::error_text(
        [&] { test::term_derive(reference, model.system(), options); });
    ASSERT_NE(expected.find("state-space explosion"), std::string::npos);
    for (const std::size_t lanes : lane_counts()) {
      util::Budget budget;
      cp::DeriveOptions run = options;
      run.threads = lanes;
      run.budget = &budget;
      cp::Semantics semantics(model.arena());
      EXPECT_EQ(test::error_text([&] {
                  cp::StateSpace::derive(semantics, model.system(), run);
                }),
                expected)
          << (aggregate ? "quotient" : "full") << " at " << lanes << " lanes";
      EXPECT_EQ(budget.usage().states, 20u);
    }
  }
}

TEST(LeafVectorDerive, ALargeClosureObservesTheBudget) {
  // The top-level system's closure is its whole space, built before the
  // first level: it checks the budget as it grows, so a cancelled derive
  // stops inside it, before the engine charges the initial state.
  cp::Model model = cp::parse_model(R"(
    P = (a, 1.0).(P || P);
    @system P;
  )");
  cp::Semantics semantics(model.arena());
  util::Budget budget;
  budget.request_cancel();
  cp::DeriveOptions options;
  options.max_states = 5000;
  options.budget = &budget;
  try {
    cp::StateSpace::derive(semantics, model.system(), options);
    FAIL() << "a cancelled derive completed";
  } catch (const util::InterruptedError& error) {
    EXPECT_EQ(error.reason(), util::InterruptedError::Reason::kCancelled);
    EXPECT_EQ(error.stage(), "derive");
  }
  EXPECT_EQ(budget.usage().states, 0u);
  EXPECT_GT(budget.usage().state_bytes, 0u);
}

TEST(LeafVectorDerive, UnreproducedRepresentativesAreStillExactLumpings) {
  // Two quotients whose representatives may differ from the term
  // canonicalizer's.  (1) P's derivative Q || Q has the set of the spine it
  // sits in: the term rewrite flattens it into that spine, the key sort
  // keeps it one leaf (sorted inside by its representative).  (2) A's
  // local state (a, 2.0).A is a prefix term, which structural order puts
  // before the cooperation sibling, while the constant A goes after it:
  // the key sort keeps the sibling positions of the initial term.  Either
  // way the quotient must be an exact lumping: the same coarsest lumping as
  // the full space, and the same throughputs.
  for (const std::string source : {R"(
    Q = (b, 2.0).Q2;
    Q2 = (c, 3.0).Q;
    P = (a, 1.0).(Q || Q);
    Sys = P || Q || Q;
    @system Sys;
  )", R"(
    A = (x, 1.0).(a, 2.0).A;
    B = (x, infty).(b, 3.0).B;
    C = (a, 1.5).C + (c, 0.5).C2;
    C2 = (c, 2.5).C;
    Sys = ((A <x> B) || C || A)/{x, a} <c> ((C || C2)/{a});
    @system Sys;
  )"}) {
    cp::Model model = cp::parse_model(source);
    cp::Semantics semantics(model.arena());
    const cp::StateSpace full =
        cp::StateSpace::derive(semantics, model.system());
    cp::DeriveOptions options;
    options.aggregate = true;
    const cp::StateSpace quotient =
        cp::StateSpace::derive(semantics, model.system(), options);
    EXPECT_LT(quotient.state_count(), full.state_count()) << source;
    EXPECT_EQ(cp::aggregate(quotient).block_count,
              cp::aggregate(full).block_count)
        << source;
    const auto pi_full = ctmc::steady_state(full.generator()).distribution;
    const auto pi_quotient =
        ctmc::steady_state(quotient.generator()).distribution;
    for (cp::ActionId action = 0; action < model.arena().action_count();
         ++action) {
      EXPECT_NEAR(cp::action_throughput(full, pi_full, action),
                  cp::action_throughput(quotient, pi_quotient, action), 1e-9)
          << model.arena().action_name(action) << " in\n" << source;
    }
  }
}

TEST(LeafVectorDerive, KeysOfOneTwoAndThreeWordsMatch) {
  // One bit per client and per server: 64 leaves fill one word (held
  // inline), 72 need two words and 132 three (heap keys).
  for (const auto& [clients, words] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {62, 1}, {70, 2}, {130, 3}}) {
    cp::Model model = cp::client_server(clients, {.servers = 2});
    cp::Semantics semantics(model.arena());
    const cp::StateSpace space =
        cp::StateSpace::derive(semantics, model.system());
    EXPECT_EQ(space.key_bits(), clients + 2);
    EXPECT_EQ(space.key_words(), words);
    expect_matches_term_derive(model.arena(), model.system(),
                               "client_server(" + std::to_string(clients) +
                                   ", 2)");
  }
}

TEST(LeafVectorDerive, TomcatTwelveClientsPackIntoOneWord) {
  // Twelve 2-bit clients and a 3-bit server: the project_large model.
  chor::TomcatParams params;
  params.clients = 12;
  auto extraction =
      chor::extract_state_machines(chor::tomcat_model(false, params));
  cp::Semantics semantics(extraction.model.arena());
  const cp::StateSpace space =
      cp::StateSpace::derive(semantics, extraction.model.system());
  EXPECT_EQ(space.state_count(), 126'976u);
  EXPECT_EQ(space.transitions().size(), 847'872u);
  EXPECT_EQ(space.key_bits(), 27u);
  EXPECT_EQ(space.key_words(), 1u);
}

}  // namespace
