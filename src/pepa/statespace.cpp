#include "pepa/statespace.hpp"

#include <limits>
#include <string>
#include <utility>

#include "pepa/canonical.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace choreo::pepa {

namespace {

/// Calls visit(c) for the constant at every sequential position of `term`:
/// the term itself, or a leaf of its cooperation/hiding structure — the
/// positions pepa::occupies tests.
template <typename Visit>
void for_each_position(const ProcessArena& arena, ProcessId term,
                       Visit& visit) {
  const ProcessNode& node = arena.node(term);
  switch (node.op) {
    case Op::kConstant:
      visit(node.constant);
      return;
    case Op::kCooperation:
      for_each_position(arena, node.left, visit);
      for_each_position(arena, node.right, visit);
      return;
    case Op::kHiding:
      for_each_position(arena, node.left, visit);
      return;
    default:
      return;
  }
}

}  // namespace

LocalStateIndex::LocalStateIndex(const ProcessArena& arena,
                                 std::span<const ProcessId> states) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  if (states.size() > kNone) {
    throw util::ModelError("state space of " + std::to_string(states.size()) +
                           " states is too large for 32-bit state ids");
  }
  const std::size_t constants = arena.constant_count();

  // Count pass: distinct (constant, state) pairs per constant.  `last`
  // holds the newest state counted for each constant, so a second position
  // of the same constant in one state is a repeat, not a new entry.
  std::vector<std::uint32_t> last(constants, kNone);
  offsets_.assign(constants + 1, 0);
  bool repeats = false;
  for (std::size_t s = 0; s < states.size(); ++s) {
    const auto state = static_cast<std::uint32_t>(s);
    auto count = [&](ConstantId c) {
      CHOREO_ASSERT(c < constants);
      if (last[c] == state) {
        repeats = true;
      } else {
        last[c] = state;
        ++offsets_[c + 1];
      }
    };
    for_each_position(arena, states[s], count);
  }
  for (std::size_t c = 0; c < constants; ++c) offsets_[c + 1] += offsets_[c];

  // Fill pass: states arrive in ascending order, so each slice comes out
  // sorted, and a repeat is always the slice's newest entry.
  states_.resize(offsets_[constants]);
  if (repeats) counts_.assign(offsets_[constants], 0);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t s = 0; s < states.size(); ++s) {
    const auto state = static_cast<std::uint32_t>(s);
    auto fill = [&](ConstantId c) {
      std::size_t& end = cursor[c];
      if (end > offsets_[c] && states_[end - 1] == state) {
        ++counts_[end - 1];
        return;
      }
      if (repeats) counts_[end] = 1;
      states_[end++] = state;
    };
    for_each_position(arena, states[s], fill);
  }
}

std::span<const std::uint32_t> LocalStateIndex::occupying(
    ConstantId constant) const {
  const std::size_t c = constant;
  if (c + 1 >= offsets_.size()) return {};
  return std::span<const std::uint32_t>(states_).subspan(
      offsets_[c], offsets_[c + 1] - offsets_[c]);
}

double LocalStateIndex::probability(std::span<const double> distribution,
                                    ConstantId constant) const {
  double sum = 0.0;
  for (const std::uint32_t s : occupying(constant)) sum += distribution[s];
  return sum;
}

double LocalStateIndex::population(std::span<const double> distribution,
                                   ConstantId constant) const {
  const std::span<const std::uint32_t> states = occupying(constant);
  const std::size_t first = states.empty() ? 0 : offsets_[constant];
  double sum = 0.0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    const double count =
        counts_.empty() ? 1.0 : static_cast<double>(counts_[first + i]);
    sum += distribution[states[i]] * count;
  }
  return sum;
}

std::size_t LocalStateIndex::bytes() const noexcept {
  return offsets_.capacity() * sizeof(std::size_t) +
         (states_.capacity() + counts_.capacity()) * sizeof(std::uint32_t);
}

StateSpace StateSpace::derive(Semantics& semantics, ProcessId initial,
                              const DeriveOptions& options) {
  util::Stopwatch timer;
  StateSpace space;

  explore::EngineOptions engine;
  engine.max_states = options.max_states;
  engine.allow_top_level_passive = options.allow_top_level_passive;
  engine.threads = options.threads;
  engine.chunk_grain = options.chunk_grain;
  engine.pool = options.pool;
  engine.budget = options.budget;
  // Approximate per-state footprint: the term id plus its interning entry.
  engine.bytes_per_state = sizeof(ProcessId) + 2 * sizeof(std::size_t);
  engine.space_noun = "state space";
  engine.state_noun = "states";
  engine.passive_suffix =
      "' occurs passively at the top level of the model: it would never"
      " be performed; synchronise it with an active partner";

  auto run_with = [&](auto&& canonicalize) {
    return explore::run(
        space.states_, space.index_, expand_static(semantics.arena(), initial),
        [&semantics](const ProcessId& term) {
          return semantics.derivatives(term);
        },
        std::forward<decltype(canonicalize)>(canonicalize),
        [&semantics](const Derivative& move) {
          return semantics.arena().action_name(move.action);
        },
        [&space](std::size_t source, const Derivative& move,
                 std::size_t target) {
          space.lts_.push_back(
              {source, target, move.action, move.rate.value()});
        },
        engine);
  };
  if (options.aggregate) {
    // Quotient-direct derivation: successors collapse to sort-canonical
    // representatives before interning; parallel moves into one block are
    // committed separately and summed by the generator build, which is
    // exactly the lumped rate.  The memo lives for this derivation only.
    space.aggregated_ = true;
    Canonicalizer canonicalizer(semantics.arena());
    space.stats_ = run_with(
        [&canonicalizer](ProcessId& term) { return canonicalizer(term); });
  } else {
    space.stats_ = run_with(explore::NoCanonicalize{});
  }
  space.lts_.finalize(space.states_.size());
  space.stats_.seconds = timer.seconds();
  return space;
}

std::optional<std::size_t> StateSpace::index_of(ProcessId term) const {
  const std::size_t* found = index_.find(term);
  if (found == nullptr) return std::nullopt;
  return *found;
}

ctmc::Generator StateSpace::generator() const {
  return ctmc::Generator::build_from<StateTransition>(state_count(),
                                                      lts_.transitions());
}

std::vector<ctmc::RatedTransition> StateSpace::transitions_of(ActionId action) const {
  std::vector<ctmc::RatedTransition> out;
  const auto slice = lts_.action_transitions(action);
  out.reserve(slice.size());
  for (const std::size_t i : slice) {
    const StateTransition& t = lts_[i];
    out.push_back({t.source, t.target, t.rate});
  }
  return out;
}

std::vector<std::size_t> StateSpace::deadlock_states() const {
  return lts_.deadlock_states();
}

const LocalStateIndex& StateSpace::local_states(
    const ProcessArena& arena) const {
  std::call_once(local_states_->built, [&] {
    local_states_->index = LocalStateIndex(arena, states_);
  });
  return local_states_->index;
}

}  // namespace choreo::pepa
