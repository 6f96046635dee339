// Per-state reference for the state measures, shared by the PEPA test
// suites: the scan over every state term that pepa::state_probability and
// pepa::mean_population performed before the local-state index.  The index
// must reproduce it bit for bit, including the order of the additions.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pepa/measures.hpp"
#include "pepa/statespace.hpp"
#include "util/rng.hpp"

namespace choreo::test {

/// Sequential positions of `term` holding `constant` (0 when it holds none).
inline std::size_t count_positions(const pepa::ProcessArena& arena,
                                   pepa::ProcessId term,
                                   pepa::ConstantId constant) {
  const pepa::ProcessNode& node = arena.node(term);
  switch (node.op) {
    case pepa::Op::kConstant:
      return node.constant == constant ? 1 : 0;
    case pepa::Op::kCooperation:
      return count_positions(arena, node.left, constant) +
             count_positions(arena, node.right, constant);
    case pepa::Op::kHiding:
      return count_positions(arena, node.left, constant);
    default:
      return 0;
  }
}

/// A distribution-shaped vector of unequal positive weights, so a sum taken
/// in another order or with another grouping shows in the last bits.
inline std::vector<double> ragged_weights(std::size_t states,
                                          std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> weights(states);
  for (double& w : weights) w = rng.uniform_positive() / 3.0;
  return weights;
}

/// Checks every constant `arena` declares: the states the index lists equal
/// those pepa::occupies accepts, and both measures equal the per-state scan
/// bit for bit.
inline void expect_state_measures_match_scan(
    const pepa::StateSpace& space, std::span<const double> distribution,
    const pepa::ProcessArena& arena) {
  for (pepa::ConstantId c = 0; c < arena.constant_count(); ++c) {
    std::vector<std::uint32_t> occupied;
    double probability = 0.0;
    double population = 0.0;
    for (std::size_t s = 0; s < space.state_count(); ++s) {
      if (pepa::occupies(arena, space.state_term(s), c)) {
        occupied.push_back(static_cast<std::uint32_t>(s));
        probability += distribution[s];
      }
      population +=
          distribution[s] *
          static_cast<double>(count_positions(arena, space.state_term(s), c));
    }
    const auto listed = space.local_states(arena).occupying(c);
    EXPECT_EQ(std::vector<std::uint32_t>(listed.begin(), listed.end()),
              occupied)
        << arena.constant_name(c);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  pepa::state_probability(space, distribution, arena, c)),
              std::bit_cast<std::uint64_t>(probability))
        << arena.constant_name(c);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  pepa::mean_population(space, distribution, arena, c)),
              std::bit_cast<std::uint64_t>(population))
        << arena.constant_name(c);
  }
}

}  // namespace choreo::test
