#include "pepa/measures.hpp"

#include "util/error.hpp"

namespace choreo::pepa {

double action_throughput(const StateSpace& space,
                         std::span<const double> distribution, ActionId action) {
  CHOREO_ASSERT(distribution.size() == space.state_count());
  // O(degree of the action) via the CSR action index; the slice keeps
  // emission order, so the sum is bit-identical to the former flat scan.
  return space.lts().action_throughput(distribution, action);
}

std::vector<std::pair<ActionId, double>> all_throughputs(
    const StateSpace& space, std::span<const double> distribution,
    const ProcessArena& arena) {
  CHOREO_ASSERT(distribution.size() == space.state_count());
  // One ascending pass with one accumulator per action: each action's sum
  // takes the products its index slice would, in the same order, so every
  // throughput is bit-identical to action_throughput's.
  std::vector<double> sums(arena.action_count(), 0.0);
  std::vector<char> occurs(arena.action_count(), 0);
  for (const StateTransition& t : space.transitions()) {
    CHOREO_ASSERT(t.action < sums.size());
    sums[t.action] += distribution[t.source] * t.rate;
    occurs[t.action] = 1;
  }
  std::vector<std::pair<ActionId, double>> out;
  for (std::size_t action = 0; action < sums.size(); ++action) {
    if (occurs[action] != 0) {
      out.emplace_back(static_cast<ActionId>(action), sums[action]);
    }
  }
  return out;
}

bool occupies(const ProcessArena& arena, ProcessId term, ConstantId constant) {
  const ProcessNode& node = arena.node(term);
  switch (node.op) {
    case Op::kConstant:
      return node.constant == constant;
    case Op::kCooperation:
      return occupies(arena, node.left, constant) ||
             occupies(arena, node.right, constant);
    case Op::kHiding:
      return occupies(arena, node.left, constant);
    default:
      return false;
  }
}

// Both state measures are slice sums over the space's local-state index:
// O(states occupying the constant) per query, not a walk of every state
// term, and bit-identical to the per-state scan (see LocalStateIndex).
double state_probability(const StateSpace& space,
                         std::span<const double> distribution,
                         const ProcessArena& arena, ConstantId constant) {
  CHOREO_ASSERT(distribution.size() == space.state_count());
  return space.local_states(arena).probability(distribution, constant);
}

double mean_population(const StateSpace& space,
                       std::span<const double> distribution,
                       const ProcessArena& arena, ConstantId constant) {
  CHOREO_ASSERT(distribution.size() == space.state_count());
  return space.local_states(arena).population(distribution, constant);
}

}  // namespace choreo::pepa
