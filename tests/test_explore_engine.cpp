// Edge cases of the generic exploration engine (explore::run) exercised on
// a synthetic state graph, away from the PEPA/PEPA-net policies: the
// max_states bound tripping mid-level under multiple lanes, an initial
// state with no successors, successor exceptions raised from non-first
// expansion chunks, the states an abandoned level charges, a long
// multi-level run that grows the flat state index many times, and one
// whose transitions grow the array's mapping through many doublings or
// land in a mapping a larger run retired — all required to behave
// identically at every lane count.  The flat index
// itself (explore::StateIndex) is tested directly too.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "explore/engine.hpp"
#include "explore/state_index.hpp"
#include "explore/transition_system.hpp"
#include "pepa/rate.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/retained_memory.hpp"
#include "util/thread_pool.hpp"

namespace {

using choreo::explore::DeriveStats;
using choreo::explore::EngineOptions;
using choreo::explore::StateIndex;
using choreo::pepa::Rate;

/// One synthetic move: an active rate and a target state value.
struct Move {
  Rate rate = Rate::active(1.0);
  std::size_t target = 0;
};

struct Transition {
  std::size_t source;
  std::size_t target;
  double rate;

  bool operator==(const Transition&) const = default;
};

/// Runs the engine over the graph `successors` describes (a function of the
/// state VALUE, so it is pure and thread-safe) and returns the committed
/// transitions plus the explored states.
struct Run {
  std::vector<std::size_t> states;
  std::vector<Transition> transitions;
  DeriveStats stats;
  /// Where the run's transition array ended up.
  const void* array = nullptr;
};

template <typename Successors, typename Record = Transition>
Run run_engine(Successors successors, std::size_t lanes,
               choreo::util::ThreadPool& pool, EngineOptions options = {}) {
  Run run;
  StateIndex index;
  choreo::explore::TransitionSystem<Record> written;
  options.threads = lanes;
  options.pool = &pool;
  run.stats = choreo::explore::run<std::hash<std::size_t>>(
      run.states, index, std::size_t{0}, successors,
      choreo::explore::NoCanonicalize{},
      [](const Move&) { return std::string("synthetic"); },
      choreo::explore::AllRepresentable{},
      [](std::size_t source, const Move& move, std::size_t target) {
        return Record{source, target, move.rate.value()};
      },
      written, options);
  run.array = written.transitions().data();
  for (const Record& t : written.transitions()) {
    run.transitions.push_back({t.source, t.target, t.rate});
  }
  return run;
}

/// 0 -> {1..width}, every other state terminal.
auto star_graph(std::size_t width) {
  return [width](const std::size_t& state) {
    std::vector<Move> moves;
    if (state == 0) {
      for (std::size_t v = 1; v <= width; ++v) {
        moves.push_back({Rate::active(1.0), v});
      }
    }
    return moves;
  };
}

TEST(ExploreEngine, ImmediatelyDeadlockedInitialState) {
  choreo::util::ThreadPool pool(4);
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    const auto run = run_engine(star_graph(0), lanes, pool);
    EXPECT_EQ(run.states.size(), 1u);
    EXPECT_TRUE(run.transitions.empty());
    EXPECT_EQ(run.stats.levels, 1u);
    EXPECT_EQ(run.stats.peak_frontier, 1u);
    EXPECT_EQ(run.stats.dedup_misses, 1u);
    EXPECT_EQ(run.stats.dedup_hits, 0u);
  }
}

TEST(ExploreEngine, MaxStatesExceededMidLevelUnderManyLanes) {
  choreo::util::ThreadPool pool(4);
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    EngineOptions options;
    options.max_states = 5;  // trips midway through numbering 64 children
    try {
      run_engine(star_graph(64), lanes, pool, options);
      FAIL() << "expected util::BudgetError at " << lanes << " lanes";
    } catch (const choreo::util::BudgetError& error) {
      EXPECT_STREQ(error.what(),
                   "state space exceeds the configured bound of 5 states"
                   " (state-space explosion)");
    }
  }
}

TEST(ExploreEngine, SuccessorErrorInNonFirstChunkIsRethrown) {
  choreo::util::ThreadPool pool(4);
  // Level 1 holds values 1..64 in canonical order; with 8 lanes value 51
  // sits in the 7th expansion chunk.  The engine must still surface it.
  const auto graph = [](const std::size_t& state) {
    if (state == 51) throw std::runtime_error("boom 51");
    std::vector<Move> moves;
    if (state == 0) {
      for (std::size_t v = 1; v <= 64; ++v) {
        moves.push_back({Rate::active(1.0), v});
      }
    }
    return moves;
  };
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    try {
      run_engine(graph, lanes, pool);
      FAIL() << "expected the successor error at " << lanes << " lanes";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom 51");
    }
  }
}

TEST(ExploreEngine, CanonicallyFirstSuccessorErrorWinsAtEveryLaneCount) {
  choreo::util::ThreadPool pool(4);
  // Two failing states in one level: the one numbered first (value 11) must
  // be reported whichever lane reaches the other (value 51) first.
  const auto graph = [](const std::size_t& state) {
    if (state == 11) throw std::runtime_error("boom 11");
    if (state == 51) throw std::runtime_error("boom 51");
    std::vector<Move> moves;
    if (state == 0) {
      for (std::size_t v = 1; v <= 64; ++v) {
        moves.push_back({Rate::active(1.0), v});
      }
    }
    return moves;
  };
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    try {
      run_engine(graph, lanes, pool);
      FAIL() << "expected the successor error at " << lanes << " lanes";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom 11");
    }
  }
}

TEST(ExploreEngine, PassiveMoveAtTopLevelIsRejectedWithSharedDiagnostic) {
  choreo::util::ThreadPool pool(4);
  const auto graph = [](const std::size_t& state) {
    std::vector<Move> moves;
    if (state == 0) moves.push_back({Rate::passive(), 1});
    return moves;
  };
  try {
    run_engine(graph, 1, pool);
    FAIL() << "expected util::ModelError";
  } catch (const choreo::util::ModelError& error) {
    EXPECT_STREQ(error.what(),
                 "activity 'synthetic' occurs passively at the top level;"
                 " synchronise it with an active partner");
  }
}

TEST(ExploreEngine, AbandonedLevelsChargeTheSameStatesAtEveryLaneCount) {
  choreo::util::ThreadPool pool(4);
  // Level 1 holds 1..64, each moving to a fresh state v + 64; state 51 then
  // offers a passive move, from a non-first expansion chunk at 2 and 8
  // lanes.  The serial phase numbers only what the lanes left unresolved in
  // the other chunks, yet the states numbered before the passive move (the
  // 51 fresh targets of 1..51) must be charged exactly as a one-lane walk
  // charges them.  The star with a bound of 5 trips mid-level the same way.
  const auto passive_after_fresh = [](const std::size_t& state) {
    std::vector<Move> moves;
    if (state == 0) {
      for (std::size_t v = 1; v <= 64; ++v) {
        moves.push_back({Rate::active(1.0), v});
      }
    } else if (state <= 64) {
      moves.push_back({Rate::active(1.0), state + 64});
      if (state == 51) moves.push_back({Rate::passive(), 1});
    }
    return moves;
  };
  struct Case {
    std::function<std::vector<Move>(const std::size_t&)> graph;
    std::size_t max_states;
    std::string error;
    std::size_t charged;
  };
  const Case cases[] = {
      {passive_after_fresh, 1000,
       "activity 'synthetic' occurs passively at the top level;"
       " synchronise it with an active partner",
       1 + 64 + 51},
      {star_graph(64), 5,
       "state space exceeds the configured bound of 5 states"
       " (state-space explosion)",
       5}};
  for (const Case& test : cases) {
    for (const std::size_t lanes : {1u, 2u, 8u}) {
      choreo::util::Budget budget;
      EngineOptions options;
      options.max_states = test.max_states;
      options.budget = &budget;
      try {
        run_engine(test.graph, lanes, pool, options);
        FAIL() << "expected an error at " << lanes << " lanes";
      } catch (const std::exception& error) {
        EXPECT_EQ(error.what(), test.error) << lanes << " lanes";
      }
      EXPECT_EQ(budget.usage().states, test.charged) << lanes << " lanes";
    }
  }
}

TEST(ExploreEngine, CommitSequenceIsIdenticalAtEveryLaneCount) {
  choreo::util::ThreadPool pool(4);
  // A graph with sharing and cycles: value v moves to v+1, v*2 and v/2
  // (mod 97), so levels mix fresh and already-numbered targets.
  const auto graph = [](const std::size_t& state) {
    std::vector<Move> moves;
    moves.push_back({Rate::active(1.0 + static_cast<double>(state)),
                     (state + 1) % 97});
    moves.push_back({Rate::active(2.0), (state * 2) % 97});
    moves.push_back({Rate::active(3.0), state / 2});
    return moves;
  };
  const auto baseline = run_engine(graph, 1, pool);
  EXPECT_EQ(baseline.states.size(), 97u);
  for (const std::size_t lanes : {2u, 8u}) {
    const auto run = run_engine(graph, lanes, pool);
    EXPECT_EQ(run.states, baseline.states);
    EXPECT_EQ(run.transitions, baseline.transitions);
    EXPECT_EQ(run.stats.dedup_misses, baseline.stats.dedup_misses);
    EXPECT_EQ(run.stats.dedup_hits, baseline.stats.dedup_hits);
    EXPECT_EQ(run.stats.levels, baseline.stats.levels);
  }
}

TEST(ExploreEngine, ManyLevelsGrowTheIndexIdenticallyAtEveryLaneCount) {
  choreo::util::ThreadPool pool(4);
  // A 300 x 300 grid walked from one corner: 599 levels of up to 300
  // states, 90,000 states in all, so the flat index regrows a dozen times
  // between levels while lanes read it.  Diagonal moves make most targets
  // duplicates within a level (found by the serial phase) or of an earlier
  // level (found by the lanes).
  constexpr std::size_t kSide = 300;
  const auto grid = [](const std::size_t& state) {
    const std::size_t row = state / kSide;
    const std::size_t column = state % kSide;
    std::vector<Move> moves;
    if (column + 1 < kSide) moves.push_back({Rate::active(1.0), state + 1});
    if (row + 1 < kSide) moves.push_back({Rate::active(2.0), state + kSide});
    if (row > 0 && column + 1 < kSide) {
      moves.push_back({Rate::active(3.0), state - kSide + 1});
    }
    return moves;
  };
  const auto baseline = run_engine(grid, 1, pool);
  ASSERT_EQ(baseline.states.size(), kSide * kSide);
  EXPECT_EQ(baseline.stats.levels, 2 * kSide - 1);
  EXPECT_EQ(baseline.stats.dedup_misses, kSide * kSide);
  EXPECT_EQ(baseline.transitions.size(),
            baseline.stats.dedup_hits + baseline.stats.dedup_misses - 1);
  for (const std::size_t lanes : {2u, 4u, 8u}) {
    const auto run = run_engine(grid, lanes, pool);
    EXPECT_EQ(run.states, baseline.states) << lanes << " lanes";
    EXPECT_EQ(run.transitions, baseline.transitions) << lanes << " lanes";
    EXPECT_EQ(run.stats.dedup_hits, baseline.stats.dedup_hits);
    EXPECT_EQ(run.stats.levels, baseline.stats.levels);
    EXPECT_EQ(run.stats.peak_frontier, baseline.stats.peak_frontier);
  }
}

/// A transition record padded to 64 bytes, so that a modest graph's
/// transitions outgrow the mapping's first granule many times over.
struct WideTransition {
  std::size_t source;
  std::size_t target;
  double rate;
  std::uint64_t padding[5] = {};
};
static_assert(sizeof(WideTransition) == 64);

/// The side x side grid: right, down and up-right moves, rates by row.
auto grid_graph(std::size_t side, double base_rate) {
  return [side, base_rate](const std::size_t& state) {
    const std::size_t row = state / side;
    const std::size_t column = state % side;
    std::vector<Move> moves;
    if (column + 1 < side) {
      moves.push_back(
          {Rate::active(base_rate + 0.5 * static_cast<double>(row)), state + 1});
    }
    if (row + 1 < side) moves.push_back({Rate::active(2.0), state + side});
    if (row > 0 && column + 1 < side) {
      moves.push_back({Rate::active(3.0), state - side + 1});
    }
    return moves;
  };
}

TEST(ExploreEngine, TransitionArrayGrowsInPlaceIdenticallyAtEveryLaneCount) {
  choreo::util::ThreadPool pool(4);
  // The 300 x 300 grid again, 599 levels: the array grows before nearly
  // every fork.  From a fresh start it begins on the heap, moves into a
  // mapping of two granules, and its 269,101 wide records fill more than
  // 256 granules, so the mapping doubles at least eight times, moving as it
  // goes.  Right after a larger derive with other rates has retired its
  // mapping, it leaves the heap into that mapping instead, over records the
  // larger derive wrote: none of them may show.
  constexpr std::size_t kSide = 300;
  const auto grid = grid_graph(kSide, 1.0);
  const auto larger = grid_graph(kSide + 40, 7.0);
  for (const bool after_larger : {false, true}) {
    for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
      const std::string where = std::to_string(lanes) + " lanes" +
                                (after_larger ? ", after a larger derive" : "");
      const void* retired = nullptr;
      if (after_larger) {
        retired =
            run_engine<decltype(larger), WideTransition>(larger, lanes, pool)
                .array;
      } else {
        choreo::util::release_spare_mapping();
      }
      const auto run =
          run_engine<decltype(grid), WideTransition>(grid, lanes, pool);
      if (after_larger) {
        EXPECT_EQ(run.array, retired) << where;  // it took the spare
      }
      ASSERT_EQ(run.states.size(), kSide * kSide);
      EXPECT_GE(run.transitions.size() * sizeof(WideTransition),
                choreo::explore::MappedArray<WideTransition>::kGranule << 8);
      // Each state's row is exactly its successors, in order, numbered as
      // the run numbered their targets: every record survived the moves.
      std::vector<std::size_t> id(kSide * kSide);
      for (std::size_t s = 0; s < run.states.size(); ++s) {
        id[run.states[s]] = s;
      }
      std::vector<Transition> expected;
      for (std::size_t s = 0; s < run.states.size(); ++s) {
        for (const Move& move : grid(run.states[s])) {
          expected.push_back({s, id[move.target], move.rate.value()});
        }
      }
      EXPECT_EQ(run.transitions, expected) << where;
    }
  }
}

TEST(StateIndex, FindsWhatWasInsertedAcrossGrowth) {
  // Keys whose hashes collide in their low bits and in whole: a hash that
  // keeps only key / 7 puts runs of seven keys on one tag, so equality, not
  // the tag, must tell them apart.
  std::vector<std::size_t> keys;
  StateIndex index;
  EXPECT_EQ(index.find(0, [](std::size_t) { return true; }),
            StateIndex::kAbsent);
  for (std::size_t k = 0; k < 5000; ++k) {
    keys.push_back(k * 3);
    index.insert(k * 3 / 7, k);
    EXPECT_LE(2 * index.size(), index.bytes() / 8);  // at most half full
  }
  EXPECT_EQ(index.size(), 5000u);
  for (std::size_t k = 0; k < 5000; ++k) {
    const std::size_t value = k * 3;
    EXPECT_EQ(index.find(value / 7,
                         [&](std::size_t id) { return keys[id] == value; }),
              k);
  }
  // A value never inserted, sharing a tag with inserted ones, is absent.
  EXPECT_EQ(index.find(1, [&](std::size_t id) { return keys[id] == 8u; }),
            StateIndex::kAbsent);
}

}  // namespace
