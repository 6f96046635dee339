// Unit tests for the PEPA structured operational semantics: apparent rates
// and one-step derivatives, including the cooperation apparent-rate law,
// plus the flat memo under concurrent queries and on failing computations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/error.hpp"

namespace cp = choreo::pepa;
namespace cu = choreo::util;
namespace chor = choreo::chor;

namespace {

/// Total rate of derivatives of `term` carrying `action`.
double total_rate(cp::Semantics& semantics, cp::ProcessId term,
                  const std::string& action) {
  const auto id = semantics.arena().find_action(action);
  if (!id) return 0.0;
  double sum = 0.0;
  for (const auto& d : semantics.derivatives(term)) {
    if (d.action == *id) sum += d.rate.value();
  }
  return sum;
}

std::size_t count_moves(cp::Semantics& semantics, cp::ProcessId term,
                        const std::string& action) {
  const auto id = semantics.arena().find_action(action);
  if (!id) return 0;
  return static_cast<std::size_t>(std::count_if(
      semantics.derivatives(term).begin(), semantics.derivatives(term).end(),
      [&](const cp::Derivative& d) { return d.action == *id; }));
}

}  // namespace

TEST(Semantics, PrefixHasSingleDerivative) {
  auto model = cp::parse_model("P = (a, 2.0).Stop;");
  cp::Semantics semantics(model.arena());
  const auto& moves = semantics.derivatives(model.term("P"));
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 2.0);
  EXPECT_EQ(semantics.arena().node(moves[0].target).op, cp::Op::kStop);
}

TEST(Semantics, ChoiceOffersBothBranches) {
  auto model = cp::parse_model("P = (a, 1.0).Stop + (b, 2.0).Stop;");
  cp::Semantics semantics(model.arena());
  EXPECT_EQ(semantics.derivatives(model.term("P")).size(), 2u);
  EXPECT_DOUBLE_EQ(total_rate(semantics, model.term("P"), "a"), 1.0);
  EXPECT_DOUBLE_EQ(total_rate(semantics, model.term("P"), "b"), 2.0);
}

TEST(Semantics, ChoiceMultiplicityPreserved) {
  // Two syntactic copies of the same activity double the apparent rate.
  auto model = cp::parse_model("P = (a, 1.5).Stop + (a, 1.5).Stop;");
  cp::Semantics semantics(model.arena());
  EXPECT_EQ(count_moves(semantics, model.term("P"), "a"), 2u);
  const auto a = *model.arena().find_action("a");
  EXPECT_DOUBLE_EQ(semantics.apparent_rate(model.term("P"), a).value(), 3.0);
}

TEST(Semantics, ApparentRateOfFileModel) {
  auto model = cp::parse_model(R"(
    File      = (openread, 2.0).InStream + (openwrite, 4.0).OutStream;
    InStream  = (read, 1.8).InStream + (close, 3.0).File;
    OutStream = (write, 1.2).OutStream + (close, 3.0).File;
  )");
  cp::Semantics semantics(model.arena());
  const auto file = model.term("File");
  EXPECT_DOUBLE_EQ(
      semantics.apparent_rate(file, *model.arena().find_action("openread")).value(),
      2.0);
  EXPECT_TRUE(
      semantics.apparent_rate(file, *model.arena().find_action("read")).is_zero());
}

TEST(Semantics, IndependentInterleaving) {
  auto model = cp::parse_model("P = (a, 1.0).Stop; S = P || P;");
  cp::Semantics semantics(model.arena());
  const auto& moves = semantics.derivatives(model.term("S"));
  // Both components move independently.
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_DOUBLE_EQ(total_rate(semantics, model.term("S"), "a"), 2.0);
}

TEST(Semantics, SynchronisedActionUsesMin) {
  auto model = cp::parse_model(R"(
    P = (a, 2.0).Stop;
    Q = (a, 5.0).Stop;
    S = P <a> Q;
  )");
  cp::Semantics semantics(model.arena());
  const auto& moves = semantics.derivatives(model.term("S"));
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 2.0);
}

TEST(Semantics, SynchronisationBlocksLoneParticipant) {
  auto model = cp::parse_model(R"(
    P = (a, 2.0).Stop;
    S = P <a> Stop;
  )");
  cp::Semantics semantics(model.arena());
  EXPECT_TRUE(semantics.derivatives(model.term("S")).empty());
}

TEST(Semantics, PassiveTakesActivePartnerRate) {
  auto model = cp::parse_model(R"(
    P = (a, 3.0).Stop;
    Q = (a, infty).Stop;
    S = P <a> Q;
  )");
  cp::Semantics semantics(model.arena());
  const auto& moves = semantics.derivatives(model.term("S"));
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_TRUE(moves[0].rate.is_active());
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 3.0);
}

TEST(Semantics, WeightedPassiveSplitsProportionally) {
  auto model = cp::parse_model(R"(
    P = (a, 6.0).Stop;
    Q = (a, infty).Q1 + (a, 2 * infty).Q2;
    Q1 = (b, 1.0).Q1;
    Q2 = (c, 1.0).Q2;
    S = P <a> Q;
  )");
  cp::Semantics semantics(model.arena());
  const auto& moves = semantics.derivatives(model.term("S"));
  ASSERT_EQ(moves.size(), 2u);
  // Weight-1 branch gets 1/3 of 6.0; weight-2 branch gets 2/3.
  double low = std::min(moves[0].rate.value(), moves[1].rate.value());
  double high = std::max(moves[0].rate.value(), moves[1].rate.value());
  EXPECT_DOUBLE_EQ(low, 2.0);
  EXPECT_DOUBLE_EQ(high, 4.0);
}

TEST(Semantics, CooperationApparentRateLaw) {
  // Left offers 'a' twice (rates 3, 3 -> apparent 6); right offers once
  // (rate 4).  Each pair runs at (3/6)*(4/4)*min(6,4) = 2, total 4.
  auto model = cp::parse_model(R"(
    P = (a, 3.0).P1 + (a, 3.0).P2;
    P1 = (x, 1.0).P1;
    P2 = (y, 1.0).P2;
    Q = (a, 4.0).Q;
    S = P <a> Q;
  )");
  cp::Semantics semantics(model.arena());
  const auto& moves = semantics.derivatives(model.term("S"));
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 2.0);
  EXPECT_DOUBLE_EQ(moves[1].rate.value(), 2.0);
  const auto a = *model.arena().find_action("a");
  EXPECT_DOUBLE_EQ(semantics.apparent_rate(model.term("S"), a).value(), 4.0);
}

TEST(Semantics, HidingRenamesToTau) {
  auto model = cp::parse_model("P = (a, 2.0).(b, 1.0).P; S = P/{a};");
  cp::Semantics semantics(model.arena());
  const auto& moves = semantics.derivatives(model.term("S"));
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].action, cp::kTau);
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 2.0);
  // The hidden action's own apparent rate vanishes; tau carries it.
  const auto a = *model.arena().find_action("a");
  EXPECT_TRUE(semantics.apparent_rate(model.term("S"), a).is_zero());
  EXPECT_DOUBLE_EQ(semantics.apparent_rate(model.term("S"), cp::kTau).value(), 2.0);
}

TEST(Semantics, HidingPersistsThroughDerivation) {
  auto model = cp::parse_model("P = (a, 2.0).(b, 1.0).P; S = P/{b};");
  cp::Semantics semantics(model.arena());
  const auto& first = semantics.derivatives(model.term("S"));
  ASSERT_EQ(first.size(), 1u);
  const auto& second = semantics.derivatives(first[0].target);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].action, cp::kTau);  // b is still hidden after a step
}

TEST(Semantics, UnguardedRecursionDetected) {
  auto model = cp::parse_model("P = P + (a, 1.0).P;");
  cp::Semantics semantics(model.arena());
  EXPECT_THROW(semantics.derivatives(model.term("P")), cu::ModelError);
}

TEST(Semantics, MutualUnguardedRecursionDetected) {
  auto model = cp::parse_model("P = Q; Q = P;");
  cp::Semantics semantics(model.arena());
  EXPECT_THROW(semantics.derivatives(model.term("P")), cu::ModelError);
}

TEST(Semantics, MixedActivePassiveApparentRateRejected) {
  auto model = cp::parse_model("P = (a, 1.0).Stop + (a, infty).Stop; Q = (a, 1.0).Stop; S = P <a> Q;");
  cp::Semantics semantics(model.arena());
  EXPECT_THROW(semantics.derivatives(model.term("S")), cu::ModelError);
}

TEST(Semantics, InstantMessagePepaComponent) {
  // The paper's InstantMessage = (transmit, r_t).File token.
  auto model = cp::parse_model(R"(
    r_t = 0.7;
    File      = (openread, 2.0).InStream + (openwrite, 2.0).OutStream;
    InStream  = (read, 1.8).InStream + (close, 3.0).File;
    OutStream = (write, 1.2).OutStream + (close, 3.0).File;
    InstantMessage = (transmit, r_t).File;
  )");
  cp::Semantics semantics(model.arena());
  const auto& moves = semantics.derivatives(model.term("InstantMessage"));
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 0.7);
  EXPECT_EQ(moves[0].target, model.term("File"));
}

// --- The flat memo under concurrency ---------------------------------------

namespace {

/// One term's memoised results: its derivative list (and where it lives)
/// and its apparent rate for every action of the arena, tau included.
struct Observed {
  std::vector<cp::Derivative> moves;
  const cp::Derivative* storage = nullptr;
  std::vector<cp::Rate> apparent;
};

Observed observe(cp::Semantics& semantics, cp::ProcessId term,
                 std::size_t actions) {
  Observed out;
  const std::span<const cp::Derivative> moves = semantics.derivatives(term);
  out.moves.assign(moves.begin(), moves.end());
  out.storage = moves.data();
  for (cp::ActionId a = 0; a < actions; ++a) {
    out.apparent.push_back(semantics.apparent_rate(term, a));
  }
  return out;
}

void expect_same_rate(const cp::Rate& a, const cp::Rate& b) {
  EXPECT_EQ(a.is_passive(), b.is_passive());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value()),
            std::bit_cast<std::uint64_t>(b.value()));
}

/// Several threads query every term of `model`'s arena after derivation,
/// each in its own shuffled order, through one fresh Semantics; each must
/// see exactly what a serial Semantics computes (same actions, same target
/// ids, rates equal bit for bit), and every thread must be handed the same
/// storage.
void check_concurrent_queries(cp::Model& model) {
  cp::Semantics serial(model.arena());
  cp::DeriveOptions options;
  options.threads = 1;
  const auto space = cp::StateSpace::derive(serial, model.system(), options);
  ASSERT_GT(space.state_count(), 1u);
  // Every state term and every subterm of one: the whole arena.  The serial
  // pass interns whatever targets the derivation had not, so the fresh
  // Semantics below never grows the arena.
  const std::size_t actions = model.arena().action_count();
  std::vector<cp::ProcessId> terms(model.arena().node_count());
  std::iota(terms.begin(), terms.end(), cp::ProcessId{0});
  std::vector<Observed> expected;
  for (const cp::ProcessId term : terms) {
    expected.push_back(observe(serial, term, actions));
  }
  const std::size_t nodes = model.arena().node_count();

  cp::Semantics shared(model.arena());
  constexpr std::size_t kThreads = 6;
  std::vector<std::vector<Observed>> seen(
      kThreads, std::vector<Observed>(terms.size()));
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> order(terms.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::mt19937 rng(static_cast<std::uint32_t>(t + 1));
      std::shuffle(order.begin(), order.end(), rng);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (const std::size_t i : order) {
        seen[t][i] = observe(shared, terms[i], actions);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(model.arena().node_count(), nodes);
  for (std::size_t i = 0; i < terms.size(); ++i) {
    // Repeated calls return the storage every thread was handed.
    EXPECT_EQ(shared.derivatives(terms[i]).data(), seen[0][i].storage);
    for (std::size_t t = 0; t < kThreads; ++t) {
      const Observed& got = seen[t][i];
      EXPECT_EQ(got.storage, seen[0][i].storage);
      ASSERT_EQ(got.moves.size(), expected[i].moves.size());
      for (std::size_t m = 0; m < got.moves.size(); ++m) {
        EXPECT_EQ(got.moves[m].action, expected[i].moves[m].action);
        EXPECT_EQ(got.moves[m].target, expected[i].moves[m].target);
        expect_same_rate(got.moves[m].rate, expected[i].moves[m].rate);
      }
      for (std::size_t a = 0; a < actions; ++a) {
        expect_same_rate(got.apparent[a], expected[i].apparent[a]);
      }
    }
  }
}

}  // namespace

TEST(SemanticsConcurrency, ThreadsAgreeWithSerialOnTomcatSixClients) {
  chor::TomcatParams params;
  params.clients = 6;
  auto extraction = chor::extract_state_machines(chor::tomcat_model(false, params));
  check_concurrent_queries(extraction.model);
}

TEST(SemanticsConcurrency, ThreadsAgreeWithSerialOnHiddenWeightedReplicas) {
  auto model = cp::parse_model(R"(
    Client  = (request, 2.0).Wait;
    Wait    = (reply, infty).Think + (reply, 2 * infty).Log;
    Think   = (think, 0.5).Client;
    Log     = (log, 4.0).Client;
    Server  = (request, 3 * infty).Serve + (request, infty).Audit;
    Serve   = (reply, 6.0).Server;
    Audit   = (audit, 1.0).(reply, 2.0).Server;
    System  = (Client[4] <request, reply> Server[2]) / {log, audit};
    @system System;
  )");
  check_concurrent_queries(model);
}

TEST(SemanticsConcurrency, RepeatedCallsReturnTheSameStorage) {
  auto model = cp::parse_model(
      "P = (a, 1.0).P + (b, 2.0).Q; Q = (c, 3.0).P; S = P <a> P;");
  cp::Semantics semantics(model.arena());
  for (const char* name : {"P", "Q", "S"}) {
    const auto first = semantics.derivatives(model.term(name));
    const auto second = semantics.derivatives(model.term(name));
    EXPECT_EQ(first.data(), second.data()) << name;
    EXPECT_EQ(first.size(), second.size()) << name;
  }
  // A constant shares its body's list.
  const cp::ProcessId p = model.term("P");
  EXPECT_EQ(semantics.derivatives(p).data(),
            semantics.derivatives(model.arena().body(model.arena().node(p).constant))
                .data());
}

// --- Failed computations publish nothing -------------------------------------

namespace {

/// `call` throws util::ModelError every time — twice in a row on this
/// thread, then once more on each of several threads at once — so a failed
/// computation never leaves a memoised result behind.
template <typename Call>
void expect_throws_every_time(Call call) {
  EXPECT_THROW(call(), cu::ModelError);
  EXPECT_THROW(call(), cu::ModelError);
  std::atomic<std::size_t> thrown{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      try {
        call();
      } catch (const cu::ModelError&) {
        thrown.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(thrown.load(), 4u);
  EXPECT_THROW(call(), cu::ModelError);
}

}  // namespace

TEST(SemanticsErrors, UnguardedRecursionThrowsOnEveryCall) {
  auto model = cp::parse_model("P = P + (a, 1.0).P;");
  cp::Semantics semantics(model.arena());
  const cp::ProcessId p = model.term("P");
  const cp::ActionId a = *model.arena().find_action("a");
  expect_throws_every_time([&] { semantics.derivatives(p); });
  expect_throws_every_time([&] { semantics.apparent_rate(p, a); });
}

TEST(SemanticsErrors, MutualRecursionThrowsOnEveryCall) {
  auto model = cp::parse_model("P = Q; Q = P; R = (a, 1.0).Stop;");
  cp::Semantics semantics(model.arena());
  const cp::ActionId a = *model.arena().find_action("a");
  for (const char* name : {"P", "Q"}) {
    const cp::ProcessId term = model.term(name);
    expect_throws_every_time([&] { semantics.derivatives(term); });
    expect_throws_every_time([&] { semantics.apparent_rate(term, a); });
  }
  // The failures leave the rest of the memo usable.
  EXPECT_EQ(semantics.derivatives(model.term("R")).size(), 1u);
}

TEST(SemanticsErrors, MixedActivePassiveThrowsOnEveryCall) {
  auto model = cp::parse_model(
      "P = (a, 1.0).Stop + (a, infty).Stop; Q = (a, 1.0).Stop; S = P <a> Q;");
  cp::Semantics semantics(model.arena());
  const cp::ActionId a = *model.arena().find_action("a");
  expect_throws_every_time([&] { semantics.derivatives(model.term("S")); });
  expect_throws_every_time([&] { semantics.apparent_rate(model.term("P"), a); });
  expect_throws_every_time([&] { semantics.apparent_rate(model.term("S"), a); });
  // P's own moves are well defined: both offers, active and passive.
  EXPECT_EQ(semantics.derivatives(model.term("P")).size(), 2u);
}
