#include "pepa/statespace.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <utility>

#include "pepa/canonical.hpp"
#include "pepa/leaf_layout.hpp"
#include "pepa/leaf_moves.hpp"
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
                                 const LeafLayout& layout,
                                 std::span<const std::uint64_t> keys,
                                 std::size_t state_count,
                                 const util::Lanes& lanes) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  if (state_count > kNone) {
    throw util::ModelError("state space of " + std::to_string(state_count) +
                           " states is too large for 32-bit state ids");
  }
  const std::size_t constants = arena.constant_count();
  const std::size_t words = layout.words();

  // The constants at the sequential positions of every local term, per
  // table: a state's positions are its leaves' terms' positions, in leaf
  // order — those for_each_position finds in the rendered state term.
  struct Positions {
    std::vector<std::uint32_t> begin;
    std::vector<ConstantId> constants;
  };
  std::vector<Positions> positions(layout.table_count());
  for (std::uint32_t t = 0; t < layout.table_count(); ++t) {
    Positions& table = positions[t];
    auto add = [&table](ConstantId c) { table.constants.push_back(c); };
    for (const ProcessId term : layout.table(t).terms) {
      table.begin.push_back(static_cast<std::uint32_t>(table.constants.size()));
      for_each_position(arena, term, add);
    }
    table.begin.push_back(static_cast<std::uint32_t>(table.constants.size()));
  }
  auto for_each_constant = [&](std::size_t s, auto&& visit) {
    const std::uint64_t* key = keys.data() + s * words;
    for (std::uint32_t l = 0; l < layout.leaf_count(); ++l) {
      const Positions& table = positions[layout.leaf(l).table];
      const std::uint32_t local = layout.local(key, l);
      for (std::uint32_t p = table.begin[local]; p < table.begin[local + 1];
           ++p) {
        visit(table.constants[p]);
      }
    }
  };

  // A counting sort on constant over ranges of states.  Count: distinct
  // (constant, state) pairs per constant; `last` holds the newest state the
  // range counted for each constant, so a second position of the same
  // constant in one state is a repeat, not a new entry.
  std::atomic<bool> repeats{false};
  util::CountingSort<std::size_t> sort(
      constants, util::split_parts(state_count, lanes), lanes,
      [&](std::size_t begin, std::size_t end, std::size_t* counts) {
        std::vector<std::uint32_t> last(constants, kNone);
        bool repeated = false;
        for (std::size_t s = begin; s < end; ++s) {
          const auto state = static_cast<std::uint32_t>(s);
          for_each_constant(s, [&](ConstantId c) {
            CHOREO_ASSERT(c < constants);
            if (last[c] == state) {
              repeated = true;
            } else {
              last[c] = state;
              ++counts[c];
            }
          });
        }
        if (repeated) repeats.store(true, std::memory_order_relaxed);
      });
  offsets_ = std::move(sort.offsets());

  // Fill: a range's states arrive in ascending order, after those of the
  // ranges before it, so each slice comes out sorted, and a repeat is the
  // range's newest entry of its constant.
  states_.resize(offsets_[constants]);
  if (repeats.load(std::memory_order_relaxed)) {
    counts_.assign(offsets_[constants], 0);
  }
  const bool counted = !counts_.empty();
  sort.place([&](std::size_t begin, std::size_t end, std::size_t* cursor) {
    std::vector<std::uint32_t> last(constants, kNone);
    for (std::size_t s = begin; s < end; ++s) {
      const auto state = static_cast<std::uint32_t>(s);
      for_each_constant(s, [&](ConstantId c) {
        if (last[c] == state) {
          ++counts_[cursor[c] - 1];
          return;
        }
        last[c] = state;
        if (counted) counts_[cursor[c]] = 1;
        states_[cursor[c]++] = state;
      });
    }
  });
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

template <typename Key>
void StateSpace::explore_keys(const explore::EngineOptions& engine) {
  using Moves = LeafMoves<Key, LeafRates>;
  using Move = typename Moves::Move;
  const LeafLayout& layout = *layout_;
  const ProcessArena& arena = *arena_;
  LeafRates algebra(layout, arena);
  const Moves moves(layout, algebra);
  Key initial(layout.words());
  layout.encode_initial(initial.data());
  std::vector<Key> states;
  auto run_with = [&](auto&& canonicalize) {
    return explore::run<KeyHash>(
        states, index_, std::move(initial), moves,
        std::forward<decltype(canonicalize)>(canonicalize),
        [&arena](const Move& move) -> const std::string& {
          return arena.action_name(move.action);
        },
        // A state past a truncated closure: the engine's own count did not
        // trip, but the closure cannot represent it.
        [&layout](const Key& key) {
          return !layout.truncated() || !layout.outside(key.data());
        },
        [](std::size_t source, const Move& move, std::size_t target) {
          return StateTransition{static_cast<std::uint32_t>(source),
                                 static_cast<std::uint32_t>(target),
                                 move.action, move.rate.value()};
        },
        lts_, engine);
  };
  if (aggregated_) {
    stats_ = run_with(
        [&layout](Key& key) { return layout.canonicalize(key.data()); });
  } else {
    stats_ = run_with(explore::NoCanonicalize{});
  }
  state_count_ = states.size();
  keys_.reserve(states.size() * layout.words());
  for (const Key& key : states) {
    keys_.insert(keys_.end(), key.data(), key.data() + key.size());
  }
}

StateSpace::StateSpace() = default;
StateSpace::~StateSpace() = default;
StateSpace::StateSpace(StateSpace&&) noexcept = default;
StateSpace& StateSpace::operator=(StateSpace&&) noexcept = default;

StateSpace StateSpace::derive(Semantics& semantics, ProcessId initial,
                              const DeriveOptions& options) {
  util::Stopwatch timer;
  StateSpace space;
  ProcessArena& arena = semantics.arena();
  space.arena_ = &arena;
  space.aggregated_ = options.aggregate;
  const ProcessId expanded = expand_static(arena, initial);
  bool initial_rewritten = false;
  if (options.aggregate) {
    // Quotient-direct derivation: the tree is the canonical initial term,
    // and successors collapse to sort-canonical keys before interning;
    // parallel moves into one block are committed separately and summed by
    // the generator build, which is exactly the lumped rate.  The
    // canonicalizer serves the layout only (its representatives of local
    // terms), so its memo lives for the build.
    Canonicalizer canonicalizer(arena);
    const ProcessId canonical = canonicalizer.canonical(expanded);
    initial_rewritten = canonical != expanded;
    space.layout_ = std::make_unique<const LeafLayout>(
        semantics, canonical, &canonicalizer, options.max_states,
        options.budget);
  } else {
    space.layout_ = std::make_unique<const LeafLayout>(
        semantics, expanded, nullptr, options.max_states, options.budget);
  }

  explore::EngineOptions engine;
  engine.max_states = options.max_states;
  engine.threads = options.threads;
  engine.pool = options.pool;
  engine.budget = options.budget;
  // Approximate per-state footprint: the packed key plus its index share.
  engine.bytes_per_state = space.layout_->words() * sizeof(std::uint64_t) +
                           explore::StateIndex::kBytesPerState;
  engine.space_noun = "state space";
  engine.state_noun = "states";
  engine.passive_suffix =
      "' occurs passively at the top level of the model: it would never"
      " be performed; synchronise it with an active partner";
  space.lanes_ = util::Lanes::of(options.pool, options.threads);

  if (space.layout_->words() == 1) {
    space.explore_keys<WordKey>(engine);
  } else {
    space.explore_keys<HeapKey>(engine);
  }
  // The term derive counted the initial state's rewrite to its canonical
  // form; here the tree is built from that form.
  if (initial_rewritten) ++space.stats_.canonical_rewrites;
  // The layout is serial work of the derive too.
  const double seconds = timer.seconds();
  space.stats_.serial_seconds += seconds - space.stats_.seconds;
  space.stats_.seconds = seconds;
  return space;
}

std::span<const std::uint64_t> StateSpace::key(std::size_t index) const {
  CHOREO_ASSERT(index < state_count_);
  const std::size_t words = layout_->words();
  return std::span<const std::uint64_t>(keys_).subspan(index * words, words);
}

ProcessId StateSpace::state_term(std::size_t index) const {
  CHOREO_ASSERT(index < state_count_);
  return layout_->render(*arena_, keys_.data() + index * layout_->words());
}

std::optional<std::size_t> StateSpace::index_of(ProcessId term) const {
  if (!layout_) return std::nullopt;
  const std::size_t words = layout_->words();
  std::vector<std::uint64_t> key(words, 0);
  if (!layout_->decompose(*arena_, term, key.data())) return std::nullopt;
  const std::size_t found = index_.find(
      hash_key_words(key.data(), words), [&](std::size_t id) {
        return std::equal(key.begin(), key.end(),
                          keys_.begin() + static_cast<std::ptrdiff_t>(id * words));
      });
  if (found == explore::StateIndex::kAbsent) return std::nullopt;
  return found;
}

std::size_t StateSpace::key_words() const noexcept {
  return layout_ ? layout_->words() : 0;
}

std::size_t StateSpace::key_bits() const noexcept {
  return layout_ ? layout_->bits() : 0;
}

ctmc::Generator StateSpace::generator() const {
  return ctmc::Generator::build_from<StateTransition>(
      state_count(), lts_.transitions(), lts_.row_offsets(), lanes_);
}

std::vector<ctmc::RatedTransition> StateSpace::transitions_of(ActionId action) const {
  std::vector<ctmc::RatedTransition> out;
  const auto slice = lts_.action_transitions(action);
  out.reserve(slice.size());
  for (const std::size_t i : slice) {
    const StateTransition& t = lts_.transitions()[i];
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
    if (layout_) {
      local_states_->index =
          LocalStateIndex(arena, *layout_, keys_, state_count_, lanes_);
    }
  });
  return local_states_->index;
}

}  // namespace choreo::pepa
