// The term-level PEPA derive, kept as the reference for
// pepa::StateSpace::derive: a sequential FIFO breadth-first exploration over
// interned terms, each state's successors from Semantics::derivatives, and,
// under DeriveOptions::aggregate, every state rewritten by
// pepa::Canonicalizer before it is looked up.  This is the derivation the
// leaf-vector derive replaced; the differential tests require the two to
// agree bit for bit: state terms, transitions, rate bits, DeriveStats and
// error texts.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pepa/canonical.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/error.hpp"

namespace choreo::test {

struct TermSpace {
  std::vector<pepa::ProcessId> states;
  std::vector<pepa::StateTransition> transitions;
  pepa::DeriveStats stats;
};

/// Derives the space of `system` term by term.  Honours max_states and
/// aggregate; raises what the derive raises, for the same state.
inline TermSpace term_derive(pepa::Semantics& semantics,
                             pepa::ProcessId system,
                             const pepa::DeriveOptions& options = {}) {
  pepa::ProcessArena& arena = semantics.arena();
  std::optional<pepa::Canonicalizer> canonicalizer;
  if (options.aggregate) canonicalizer.emplace(arena);
  auto canonicalize = [&canonicalizer](pepa::ProcessId& term) {
    return canonicalizer.has_value() && (*canonicalizer)(term);
  };

  TermSpace out;
  std::unordered_map<pepa::ProcessId, std::size_t> index;
  pepa::ProcessId initial = pepa::expand_static(arena, system);
  if (canonicalize(initial)) ++out.stats.canonical_rewrites;
  out.states.push_back(initial);
  index.emplace(initial, 0);
  ++out.stats.dedup_misses;
  std::vector<std::size_t> frontier{0};
  while (!frontier.empty()) {
    ++out.stats.levels;
    out.stats.peak_frontier = std::max(out.stats.peak_frontier,
                                       frontier.size());
    std::vector<std::size_t> next;
    for (const std::size_t source : frontier) {
      for (const pepa::Derivative& move :
           semantics.derivatives(out.states[source])) {
        pepa::ProcessId target = move.target;
        if (canonicalize(target)) ++out.stats.canonical_rewrites;
        if (move.rate.is_passive()) {
          throw util::ModelError(util::msg(
              "activity '", arena.action_name(move.action),
              "' occurs passively at the top level of the model: it would"
              " never be performed; synchronise it with an active partner"));
        }
        std::size_t id = 0;
        if (const auto it = index.find(target); it != index.end()) {
          id = it->second;
          ++out.stats.dedup_hits;
        } else {
          if (out.states.size() >= options.max_states) {
            throw util::BudgetError(util::msg(
                "state space exceeds the configured bound of ",
                options.max_states, " states (state-space explosion)"));
          }
          id = out.states.size();
          out.states.push_back(target);
          index.emplace(target, id);
          ++out.stats.dedup_misses;
          next.push_back(id);
        }
        out.transitions.push_back({static_cast<std::uint32_t>(source),
                                   static_cast<std::uint32_t>(id), move.action,
                                   move.rate.value()});
      }
    }
    frontier = std::move(next);
  }
  return out;
}

/// Checks that `space`, derived over the arena `reference` was derived
/// over, is `reference` bit for bit: state terms (equal ids in one arena),
/// transitions with their rate bits, and the derive counters.
inline void expect_same_space(const pepa::StateSpace& space,
                              const TermSpace& reference,
                              const std::string& context) {
  ASSERT_EQ(space.state_count(), reference.states.size()) << context;
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    ASSERT_EQ(space.state_term(s), reference.states[s])
        << context << ": state " << s;
  }
  const std::span<const pepa::StateTransition> transitions =
      space.transitions();
  ASSERT_EQ(transitions.size(), reference.transitions.size()) << context;
  for (std::size_t t = 0; t < transitions.size(); ++t) {
    const pepa::StateTransition& got = transitions[t];
    const pepa::StateTransition& want = reference.transitions[t];
    ASSERT_EQ(got.source, want.source) << context << ": transition " << t;
    ASSERT_EQ(got.target, want.target) << context << ": transition " << t;
    ASSERT_EQ(got.action, want.action) << context << ": transition " << t;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.rate),
              std::bit_cast<std::uint64_t>(want.rate))
        << context << ": transition " << t;
  }
  const pepa::DeriveStats& got = space.stats();
  const pepa::DeriveStats& want = reference.stats;
  EXPECT_EQ(got.levels, want.levels) << context;
  EXPECT_EQ(got.peak_frontier, want.peak_frontier) << context;
  EXPECT_EQ(got.dedup_hits, want.dedup_hits) << context;
  EXPECT_EQ(got.dedup_misses, want.dedup_misses) << context;
  EXPECT_EQ(got.canonical_rewrites, want.canonical_rewrites) << context;
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    ASSERT_EQ(space.index_of(reference.states[s]), s) << context;
  }
}

/// The text of what deriving raises, or "" when it completes.
template <typename Derive>
std::string error_text(Derive&& derive) {
  try {
    derive();
  } catch (const std::exception& error) {
    return error.what();
  }
  return "";
}

}  // namespace choreo::test
