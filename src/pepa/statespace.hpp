// State-space derivation: breadth-first exploration of the derivation graph
// of a PEPA term, yielding the labelled transition system from which the
// CTMC generator matrix is assembled.
//
// A state is the vector of its leaves' local states over the static
// cooperation/hiding tree of the system equation (pepa/leaf_layout.hpp),
// bit-packed into a fixed-width key: successors compose the leaves' local
// moves over the tree in Semantics' emission order and arithmetic
// (pepa/leaf_moves.hpp), so no compound term is interned while deriving.
// state_term() renders a state's term on demand; the numbering, transitions
// and rates are those of the term-level derivation bit for bit.  layout()
// and key() expose the tree and the packed states, so that a sweep can
// compose the same moves over its rate tape instead of pepa::Rate values.
//
// The exploration loop itself lives in explore::run (src/explore/engine.hpp)
// — the level-synchronous multi-lane BFS shared with PEPA-net marking-graph
// derivation, over a flat lock-free state index.  State ids, transition
// order and every downstream artifact (generator matrix, annotated XMI, DOT
// dumps, cache keys) are byte-identical for every lane count — including
// errors, which are raised for the first offending state in canonical
// order.
//
// Transitions are held in a CSR-indexed explore::TransitionSystem: the
// generator builds straight off the payload array, per-action measures are
// O(degree) slice lookups, and deadlock detection reads the row index.
//
// Local states get the same treatment: the first state measure asked of a
// space builds a LocalStateIndex (constant -> states occupying it) in one
// pass over the leaf columns, so each UML state's probability or population
// is one slice sum, not a walk of every state term.  Derive-only callers
// (sweeps, activity graphs, the state-space benches) never build it and pay
// neither its time nor bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "ctmc/generator.hpp"
#include "explore/engine.hpp"
#include "explore/state_index.hpp"
#include "explore/transition_system.hpp"
#include "pepa/semantics.hpp"
#include "util/budget.hpp"
#include "util/counting_sort.hpp"
#include "util/thread_pool.hpp"

namespace choreo::pepa {

class LeafLayout;

struct DeriveOptions {
  /// Exploration aborts (util::BudgetError) beyond this many states; the
  /// paper's Section 1.1 names state-space explosion as the known hazard of
  /// the numerical approach.  A dynamic leaf (one whose local states become
  /// cooperations) also expands at most this many composite local states
  /// (see pepa/leaf_layout.hpp).
  std::size_t max_states = 4'000'000;
  /// Exploration lanes per breadth-first level: 1 forces the sequential
  /// path, 0 sizes to the pool (worker count + the calling thread).  The
  /// derived space is identical for every setting.
  std::size_t threads = 0;
  /// Pool expansion chunks run on; nullptr means util::ThreadPool::shared().
  /// The space keeps it, with the lane count, for the sorts that follow the
  /// derive (StateSpace::lanes()), so a caller's own pool must outlive it.
  util::ThreadPool* pool = nullptr;
  /// Resource governor: cancellation, deadline and state/byte accounting.
  /// Checked once per breadth-first level (deterministic; an interrupted
  /// derivation stops within one frontier level of the request) and charged
  /// with every discovered state; the leaves' local closures, built before
  /// the first level, are checked every 1,024 terms and charged with their
  /// approximate bytes.  nullptr disables governance.
  util::Budget* budget = nullptr;
  /// Derive the strong-equivalence quotient directly: every successor is
  /// rewritten to its sort-canonical representative (same-shape siblings of
  /// same-set cooperation spines sorted, see pepa/leaf_layout.hpp) before
  /// interning, so permutation-equivalent states collapse at discovery time
  /// and the explored space — and therefore max_states, the budget's
  /// state/byte accounting and peak memory — is the quotient, not the full
  /// interleaved chain.  Throughputs and the presence/count measures
  /// (state_probability, mean_population) are permutation-invariant and
  /// stay exact; the state terms exposed by state_term() are canonical
  /// representatives.  The quotient is byte-identical at every lane count,
  /// like the full space.
  bool aggregate = false;
};

/// Counters describing one derivation run, for perf reports and the
/// service's exploration metrics (shared with the PEPA-net derivation).
using DeriveStats = explore::DeriveStats;

/// One transition of the explored labelled transition system.  State ids
/// are 32-bit, as explore::StateIndex numbers them.
struct StateTransition {
  std::uint32_t source;
  std::uint32_t target;
  ActionId action;
  double rate;
};
static_assert(sizeof(StateTransition) == 24);

/// Where each local state sits across a derived space: a CSR index keyed by
/// ConstantId, the local-state counterpart of the transition system's action
/// index.  For every constant it lists, ascending and each once, the states
/// in which the constant occupies a sequential position (a cooperation or
/// hiding leaf: exactly what pepa::occupies tests), with the number of
/// positions it occupies there.
class LocalStateIndex {
 public:
  LocalStateIndex() = default;

  /// Indexes the `state_count` packed states in `keys` (state id =
  /// position) by a stable counting sort on constant over ranges of states
  /// (util::CountingSort, on `lanes`): one pass over the leaf columns
  /// counts, a second fills, so the build needs little beyond the index
  /// itself, and the index is the same at every lane count.  Throws
  /// util::ModelError when the state ids do not fit in 32 bits.
  LocalStateIndex(const ProcessArena& arena, const LeafLayout& layout,
                  std::span<const std::uint64_t> keys,
                  std::size_t state_count, const util::Lanes& lanes);

  /// The states occupying `constant`, ascending; empty for a constant no
  /// state holds, including one declared after the index was built.
  std::span<const std::uint32_t> occupying(ConstantId constant) const;

  /// Sum of distribution[s] over occupying(constant), in ascending order:
  /// the additions a per-state scan makes, so the result is bit-identical.
  double probability(std::span<const double> distribution,
                     ConstantId constant) const;

  /// Sum of distribution[s] * (occurrences of `constant` in s) over the
  /// same slice.  The states a per-state scan would add as distribution[s]
  /// * 0 are skipped, which leaves a finite sum unchanged.
  double population(std::span<const double> distribution,
                    ConstantId constant) const;

  /// (constant, state) entries held.
  std::size_t size() const noexcept { return states_.size(); }

  /// Heap bytes held by the index arrays.
  std::size_t bytes() const noexcept;

 private:
  /// offsets_[c]..offsets_[c+1]: the slice of states_ (and counts_) for c.
  std::vector<std::size_t> offsets_;
  util::NoInitVector<std::uint32_t> states_;
  /// Occurrences per entry; left empty when every count is 1 (no constant
  /// is held by two components of one state, as in the one-constant-per-
  /// UML-state extractions), which halves the index.
  std::vector<std::uint32_t> counts_;
};

class StateSpace {
 public:
  /// An empty space (no states).
  StateSpace();
  ~StateSpace();
  StateSpace(StateSpace&&) noexcept;
  StateSpace& operator=(StateSpace&&) noexcept;

  /// Explores from `initial`.  State 0 is the initial state.
  static StateSpace derive(Semantics& semantics, ProcessId initial,
                           const DeriveOptions& options = {});

  std::size_t state_count() const noexcept { return state_count_; }
  /// The static tree, local tables and key geometry of the derive
  /// (pepa/leaf_layout.hpp).  Only for a derived space.
  const LeafLayout& layout() const noexcept { return *layout_; }
  /// State `index`'s packed key: key_words() words.
  std::span<const std::uint64_t> key(std::size_t index) const;
  /// The term of state `index`, rendered on demand: its cooperation and
  /// hiding nodes are interned in the arena the space was derived over
  /// (which must outlive the space), so equal states render to equal ids.
  ProcessId state_term(std::size_t index) const;
  /// The state whose term is `term`; nullopt when the term does not have
  /// the space's static shape or is not a derived state.
  std::optional<std::size_t> index_of(ProcessId term) const;

  /// The CSR-indexed labelled transition system.
  const explore::TransitionSystem<StateTransition>& lts() const noexcept {
    return lts_;
  }

  /// The flat transition payload, in canonical emission order.
  std::span<const StateTransition> transitions() const noexcept {
    return lts_.transitions();
  }

  /// Counters from the derivation that produced this space.
  const DeriveStats& stats() const noexcept { return stats_; }

  /// Width of a packed state key: 64-bit words per state, and the bits of
  /// them the leaves' local indices use.
  std::size_t key_words() const noexcept;
  std::size_t key_bits() const noexcept;

  /// True when this space was derived quotient-direct (DeriveOptions::
  /// aggregate): states are canonical representatives of strong-equivalence
  /// blocks, not raw interleavings.
  bool aggregated() const noexcept { return aggregated_; }

  /// The CTMC generator (parallel transitions summed), built directly from
  /// the transition-system payload and its row index, without an
  /// intermediate copy, on the derive's lanes.
  ctmc::Generator generator() const;

  /// The derive's pool and lane count, which generator() and
  /// local_states() sort on.  A null pool is ThreadPool::shared(); a
  /// caller's own pool must outlive the space.
  const util::Lanes& lanes() const noexcept { return lanes_; }

  /// The transitions carrying `action`, as CTMC rated transitions.
  /// O(degree of the action) via the action index, which the first query
  /// builds, not a scan of the full transition vector.
  std::vector<ctmc::RatedTransition> transitions_of(ActionId action) const;

  /// States enabling no activity at all (empty rows of the CSR index).
  std::vector<std::size_t> deadlock_states() const;

  /// The local-state index, built from `arena` (the arena this space was
  /// derived over) on the derive's lanes by the first call, and kept for
  /// the space's lifetime.
  /// Safe to call from several threads at once; every caller sees the one
  /// index.  local_states(arena).occupying(c) is the set of states in which
  /// some component is in local state c.
  const LocalStateIndex& local_states(const ProcessArena& arena) const;

 private:
  /// The once-flag pins its address, so it lives on the heap with the
  /// index it guards and the space stays movable.
  struct LazyLocalStates {
    std::once_flag built;
    LocalStateIndex index;
  };

  /// Runs the exploration over keys of type Key (one, two or more words).
  template <typename Key>
  void explore_keys(const explore::EngineOptions& engine);

  /// The arena of the derive; state_term() interns rendered terms in it.
  ProcessArena* arena_ = nullptr;
  /// The static tree, local tables and key geometry of the derive.
  std::unique_ptr<const LeafLayout> layout_;
  /// State i's packed key: words [i * words, (i + 1) * words).
  std::vector<std::uint64_t> keys_;
  std::size_t state_count_ = 0;
  /// Key -> state id, as built by the exploration.
  explore::StateIndex index_;
  explore::TransitionSystem<StateTransition> lts_;
  DeriveStats stats_;
  bool aggregated_ = false;
  util::Lanes lanes_;
  std::unique_ptr<LazyLocalStates> local_states_ =
      std::make_unique<LazyLocalStates>();
};

}  // namespace choreo::pepa
