// Performance measures over a solved PEPA model.
//
// The Choreographer reflector reports two kinds of result (paper Section 5):
//   - throughput of each activity, written back onto activity diagrams, and
//   - steady-state probability of each local state, written back onto state
//     diagrams (one named constant per UML state).
//
// A single throughput reads the transition system's action index (built on
// its first query); all_throughputs sums every action in one pass over the
// transitions instead.  State measures read the space's local-state index
// (StateSpace::local_states, built on the first state measure), so each
// query costs the size of one slice.  All of them sum in the order a flat
// scan would, so results are bit-identical to it.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "pepa/statespace.hpp"

namespace choreo::pepa {

/// Steady-state throughput of `action`: expected completions per time unit.
double action_throughput(const StateSpace& space,
                         std::span<const double> distribution, ActionId action);

/// Throughput of every action occurring in the transition system, as
/// (action, throughput) pairs ordered by action id, in one pass over the
/// transitions.  `arena` is the arena the space was derived over.
std::vector<std::pair<ActionId, double>> all_throughputs(
    const StateSpace& space, std::span<const double> distribution,
    const ProcessArena& arena);

/// True when `constant` occurs as a *sequential position* of `term`: the
/// term itself, or a leaf of its cooperation/hiding structure.  With the
/// one-constant-per-UML-state encoding this asks "is some component
/// currently in this state?".
bool occupies(const ProcessArena& arena, ProcessId term, ConstantId constant);

/// Steady-state probability that some component occupies `constant`.
/// `arena` must be the arena `space` was derived over.
double state_probability(const StateSpace& space,
                         std::span<const double> distribution,
                         const ProcessArena& arena, ConstantId constant);

/// Expected number of components occupying `constant` in steady state
/// (population measure; equals state_probability for a single replica).
/// `arena` must be the arena `space` was derived over.
double mean_population(const StateSpace& space,
                       std::span<const double> distribution,
                       const ProcessArena& arena, ConstantId constant);

}  // namespace choreo::pepa
