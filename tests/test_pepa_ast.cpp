// Unit tests for the hash-consed PEPA term arena, including concurrent
// interning through its open-addressing intern table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "pepa/ast.hpp"
#include "pepa/printer.hpp"
#include "util/error.hpp"

namespace cp = choreo::pepa;
namespace cu = choreo::util;

namespace {
struct Arena : ::testing::Test {
  cp::ProcessArena arena;
};
}  // namespace

TEST_F(Arena, ActionInterning) {
  const auto a = arena.action("read");
  EXPECT_EQ(arena.action("read"), a);
  EXPECT_NE(arena.action("write"), a);
  EXPECT_EQ(arena.action_name(a), "read");
  EXPECT_EQ(arena.action("tau"), cp::kTau);
  EXPECT_FALSE(arena.find_action("nothere").has_value());
}

TEST_F(Arena, HashConsingPrefix) {
  const auto stop = arena.stop();
  const auto a = arena.action("a");
  const auto p1 = arena.prefix(a, cp::Rate::active(1.0), stop);
  const auto p2 = arena.prefix(a, cp::Rate::active(1.0), stop);
  const auto p3 = arena.prefix(a, cp::Rate::active(2.0), stop);
  const auto p4 = arena.prefix(a, cp::Rate::passive(1.0), stop);
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_NE(p1, p4);
}

TEST_F(Arena, HashConsingCooperationSetsNormalised) {
  const auto stop = arena.stop();
  const auto a = arena.action("a"), b = arena.action("b");
  const auto c1 = arena.cooperation(stop, {a, b}, stop);
  const auto c2 = arena.cooperation(stop, {b, a, a}, stop);
  EXPECT_EQ(c1, c2);
  EXPECT_NE(arena.cooperation(stop, {a}, stop), c1);
}

TEST_F(Arena, TauForbiddenInSets) {
  const auto stop = arena.stop();
  EXPECT_THROW(arena.cooperation(stop, {cp::kTau}, stop), cu::ModelError);
  EXPECT_THROW(arena.hiding(stop, {cp::kTau}), cu::ModelError);
}

TEST_F(Arena, ConstantsDeclareDefine) {
  const auto id = arena.declare("File");
  EXPECT_EQ(arena.declare("File"), id);
  EXPECT_FALSE(arena.is_defined(id));
  EXPECT_THROW(arena.body(id), cu::ModelError);
  arena.define(id, arena.stop());
  EXPECT_TRUE(arena.is_defined(id));
  EXPECT_EQ(arena.body(id), arena.stop());
  EXPECT_THROW(arena.define(id, arena.stop()), cu::ModelError);
  EXPECT_EQ(arena.constant("File"), arena.constant(id));
}

TEST_F(Arena, PrefixRejectsZeroRate) {
  EXPECT_THROW(arena.prefix(arena.action("a"), cp::Rate(), arena.stop()),
               cu::ModelError);
}

TEST_F(Arena, SetOperations) {
  const cp::ActionId a = 1, b = 2, c = 3;
  EXPECT_TRUE(cp::set_contains({a, b}, a));
  EXPECT_FALSE(cp::set_contains({a, b}, c));
  EXPECT_EQ(cp::set_union({a, c}, {b, c}), (std::vector<cp::ActionId>{a, b, c}));
  EXPECT_EQ(cp::set_intersection({a, b}, {b, c}), std::vector<cp::ActionId>{b});
}

TEST_F(Arena, AlphabetThroughConstantsAndHiding) {
  const auto a = arena.action("a"), b = arena.action("b"), h = arena.action("h");
  const auto x = arena.declare("X");
  // X = (a, 1).(h, 1).X
  arena.define(
      x, arena.prefix(a, cp::Rate::active(1.0),
                      arena.prefix(h, cp::Rate::active(1.0), arena.constant(x))));
  const auto term = arena.cooperation(
      arena.hiding(arena.constant(x), {h}),
      {}, arena.prefix(b, cp::Rate::active(1.0), arena.stop()));
  const auto alpha = cp::alphabet(arena, term);
  EXPECT_EQ(alpha, (std::vector<cp::ActionId>{a, b}));  // h hidden, tau excluded
}

TEST_F(Arena, AlphabetOfRecursiveConstantTerminates) {
  const auto a = arena.action("a");
  const auto x = arena.declare("Loop");
  arena.define(x, arena.prefix(a, cp::Rate::active(1.0), arena.constant(x)));
  EXPECT_EQ(cp::alphabet(arena, arena.constant(x)),
            std::vector<cp::ActionId>{a});
}

TEST_F(Arena, PrinterPrecedence) {
  const auto a = arena.action("a"), b = arena.action("b");
  const auto stop = arena.stop();
  const auto p = arena.prefix(a, cp::Rate::active(1.0), stop);
  const auto q = arena.prefix(b, cp::Rate::passive(1.0), stop);
  EXPECT_EQ(cp::to_string(arena, arena.choice(p, q)),
            "(a, 1).Stop + (b, infty).Stop");
  EXPECT_EQ(cp::to_string(arena, arena.cooperation(p, {a}, q)),
            "(a, 1).Stop <a> (b, infty).Stop");
  EXPECT_EQ(cp::to_string(arena, arena.cooperation(arena.choice(p, q), {}, stop)),
            "((a, 1).Stop + (b, infty).Stop) || Stop");
  EXPECT_EQ(cp::to_string(arena, arena.hiding(arena.constant("X"), {a, b})),
            "X/{a, b}");
}

// --- The intern table ---------------------------------------------------------

TEST_F(Arena, SingleThreadGetsDenseIdsInFirstInternOrder) {
  const auto a = arena.action("a"), b = arena.action("b");
  const std::size_t base = arena.node_count();
  std::vector<cp::ProcessId> ids;
  ids.push_back(arena.stop());
  for (int i = 0; i < 5000; ++i) {
    const cp::ProcessId p =
        arena.prefix(i % 2 == 0 ? a : b, cp::Rate::active(1.0 + i), ids.back());
    EXPECT_EQ(p, base + ids.size()) << i;
    ids.push_back(p);
    // Re-interning earlier nodes hands back their ids and allocates none.
    EXPECT_EQ(arena.prefix(i % 2 == 0 ? a : b, cp::Rate::active(1.0 + i),
                           ids[ids.size() - 2]),
              p);
    EXPECT_EQ(arena.stop(), ids.front());
  }
  const cp::ProcessId coop = arena.cooperation(ids[1], {b, a}, ids[2]);
  EXPECT_EQ(coop, base + ids.size());
  EXPECT_EQ(arena.hiding(coop, {a}), coop + 1);
  EXPECT_EQ(arena.node_count(), base + ids.size() + 2);
}

TEST_F(Arena, NormalisedSetPathMatchesCooperationAndHiding) {
  const auto a = arena.action("a"), b = arena.action("b"), c = arena.action("c");
  const auto stop = arena.stop();
  const auto p = arena.prefix(a, cp::Rate::active(1.0), stop);
  const auto q = arena.prefix(c, cp::Rate::passive(2.0), stop);
  const std::vector<cp::ActionId> normalised{a, b, c};

  // The view path first: it creates the node, copying the set.
  const auto viewed = arena.cooperation_normalised(p, normalised, q);
  EXPECT_EQ(arena.node(viewed).action_set, normalised);
  EXPECT_EQ(arena.cooperation(p, {c, a, b, a, c}, q), viewed);
  // And the other way round, on a node the vector path created.
  const auto built = arena.cooperation(q, {b, b, a}, p);
  EXPECT_EQ(arena.cooperation_normalised(q, arena.node(built).action_set, p),
            built);
  EXPECT_NE(arena.cooperation_normalised(q, std::vector<cp::ActionId>{a}, p),
            built);

  const auto hidden = arena.hiding(viewed, {c, c, a});
  const std::vector<cp::ActionId> ac{a, c};
  EXPECT_EQ(arena.hiding_normalised(viewed, ac), hidden);
  EXPECT_EQ(arena.hiding_normalised(viewed, {}),
            arena.hiding(viewed, std::vector<cp::ActionId>{}));
}

TEST(ArenaConcurrency, OverlappingInternsAgreeOnEveryId) {
  // 4 threads each intern three quarters of 60,000 prefixes and of the
  // 60,000 cooperations built on them, in their own shuffled order: 120,001
  // distinct nodes (with Stop), far past many table growths per stripe.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBase = 60'000;
  cp::ProcessArena arena;
  const cp::ActionId a = arena.action("a"), b = arena.action("b");
  const cp::ProcessId stop = arena.stop();
  const std::vector<cp::ActionId> set{a, b};

  std::vector<std::vector<cp::ProcessId>> prefixes(
      kThreads, std::vector<cp::ProcessId>(kBase, cp::kInvalidProcess));
  std::vector<std::vector<cp::ProcessId>> cooperations = prefixes;
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> mine;
      for (std::size_t i = 0; i < kBase; ++i) {
        if (i % kThreads != t) mine.push_back(i);
      }
      std::mt19937 rng(static_cast<std::uint32_t>(t + 11));
      std::shuffle(mine.begin(), mine.end(), rng);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (const std::size_t i : mine) {
        const cp::ProcessId p = arena.prefix(
            i % 2 == 0 ? a : b, cp::Rate::active(1.0 + static_cast<double>(i)),
            stop);
        prefixes[t][i] = p;
        cooperations[t][i] = i % 3 == 0 ? arena.cooperation(p, {b, a, b}, stop)
                                        : arena.cooperation_normalised(p, set, stop);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(arena.node_count(), 2 * kBase + 1);
  for (std::size_t i = 0; i < kBase; ++i) {
    std::set<cp::ProcessId> prefix_ids, cooperation_ids;
    for (std::size_t t = 0; t < kThreads; ++t) {
      if (i % kThreads == t) continue;
      prefix_ids.insert(prefixes[t][i]);
      cooperation_ids.insert(cooperations[t][i]);
    }
    ASSERT_EQ(prefix_ids.size(), 1u) << i;
    ASSERT_EQ(cooperation_ids.size(), 1u) << i;
    const cp::ProcessNode& node = arena.node(*cooperation_ids.begin());
    EXPECT_EQ(node.left, *prefix_ids.begin());
    EXPECT_EQ(node.action_set, set);
    // Single-threaded lookups find the same nodes.
    EXPECT_EQ(arena.prefix(i % 2 == 0 ? a : b,
                           cp::Rate::active(1.0 + static_cast<double>(i)), stop),
              *prefix_ids.begin());
  }
  EXPECT_EQ(arena.node_count(), 2 * kBase + 1);
}
