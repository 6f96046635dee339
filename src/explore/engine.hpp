// The generic level-synchronous state-space exploration engine.
//
// Both Figure-4 derivations — PEPA state spaces (state diagrams) and
// PEPA-net marking graphs (activity diagrams) — are breadth-first
// explorations of a derivation graph with identical structure: expand the
// states of one level in parallel lanes, then number the discovered states
// and emit the transitions serially in canonical order.  This header is the
// single implementation of that loop; pepa::StateSpace::derive and
// pepanet::NetStateSpace::derive_from are thin policies over it.
//
// The parallel phase is built to make extra lanes actually pay:
//
//   - work-stealing chunks: lanes pull dynamic chunks of the frontier from
//     an atomic cursor (util::ThreadPool::parallel_for_dynamic), so a lane
//     that draws cheap states immediately steals the next chunk instead of
//     idling at a static split until the slowest lane finishes;
//   - batched pre-resolution: each chunk resolves all of its transition
//     targets against the interning index with one StripedMap::find_batch
//     call, which locks each touched stripe once per chunk instead of once
//     per move;
//   - a latch instead of a future join: the calling thread is itself a
//     lane and, once the cursor runs dry, helps drain the pool's task
//     queue while the remaining lanes finish — no per-level sleep on a
//     vector of futures.
//
// The serial phase stays the ordering authority.  It numbers discoveries
// against a level-local set (the shared index is immutable during a level,
// so any unresolved target is either new or a duplicate within the level)
// and publishes the whole level to the index with one
// StripedMap::try_emplace_batch call — again one stripe visit per level,
// not one per state.
//
// The engine is parameterised over the state type, the interning map, the
// successor function and the move-commit callback, and preserves the
// guarantees the two former copies established:
//
//   - canonical FIFO numbering: state ids, transition order and every
//     downstream artifact (generator matrix, annotated XMI, DOT dumps,
//     cache keys) are byte-identical at every lane count, because the
//     serial phase renumbers discoveries in source-index-then-move order —
//     exactly the order a sequential FIFO exploration assigns;
//   - deterministic errors: expansion failures are captured per state and
//     the canonically-first one is rethrown, and the shared diagnostics
//     (state-space explosion, passive-at-top-level) keep the exact texts
//     the per-formalism copies produced;
//   - once-per-level budget checks: the resource governor is consulted
//     once per frontier level, after the level is recorded in the
//     accounting, so uninterrupted runs never observe the check and
//     interrupted runs stop within one level of the request.  States are
//     charged per level, including — through an unwind path — the states
//     appended by a level the serial phase abandons mid-way, so partial
//     DeriveStats and JobHandle::progress() never under-report.
//
// Requirements on the policy types:
//
//   State       value interned into `states`/`index`; moved, hashed (Hash)
//               and compared for equality.
//   Successors  callable State-const-ref -> a range of Move: a
//               std::vector<Move> by value, or a view (such as
//               std::span<const Move>) that stays valid until the run
//               ends.  Must be safe to call concurrently from expansion
//               lanes.
//   Move        exposes `.target` (State) and `.rate` (with is_passive()).
//   Canonicalize callable State-ref -> bool, rewriting the state to its
//               canonical representative in place (returning whether it
//               changed) before any lookup or interning.  Applied to the
//               initial state and to every successor target, so the
//               explored space is the quotient under the induced
//               equivalence.  Must be deterministic and safe to call
//               concurrently from expansion lanes.  NoCanonicalize keeps
//               the identity (full-space) behaviour.
//   ActionName  callable Move-const-ref -> printable action name, used in
//               the passive-at-top-level diagnostic.
//   Commit      callable (source index, Move&, target index), invoked
//               serially in canonical order; `move.target` may already be
//               moved-from when the target was newly interned.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/striped_map.hpp"
#include "util/thread_pool.hpp"

namespace choreo::explore {

/// Counters describing one exploration run, for perf reports and the
/// service's exploration metrics.
struct DeriveStats {
  /// Breadth-first levels explored.
  std::size_t levels = 0;
  /// Largest level (states expanded in one parallel round).
  std::size_t peak_frontier = 0;
  /// Transition targets that resolved to an already-discovered state.
  std::size_t dedup_hits = 0;
  /// Newly discovered states (equals the final state count).
  std::size_t dedup_misses = 0;
  /// States the canonicalization stage rewrote to a different (canonical)
  /// representative before interning; 0 on unaggregated runs.  Together
  /// with dedup_misses this yields the on-the-fly aggregation's reduction
  /// evidence: rewrites happened and the explored space is the quotient.
  std::size_t canonical_rewrites = 0;
  /// Wall-clock derivation time.
  double seconds = 0.0;
};

struct EngineOptions {
  /// Exploration aborts (util::BudgetError) beyond this many states; the
  /// paper's Section 1.1 names state-space explosion as the known hazard of
  /// the numerical approach.
  std::size_t max_states = 4'000'000;
  /// When false, passive moves at the top level raise util::ModelError
  /// instead of being dropped.
  bool allow_top_level_passive = false;
  /// Exploration lanes per breadth-first level: 1 forces the sequential
  /// path, 0 sizes to the pool (worker count + the calling thread).  The
  /// explored space is identical for every setting.
  std::size_t threads = 0;
  /// States per work-stealing expansion chunk; 0 sizes automatically from
  /// the level and lane count.  A pure throughput knob — chunk boundaries
  /// never affect the explored space.
  std::size_t chunk_grain = 0;
  /// Pool expansion chunks run on; nullptr means util::ThreadPool::shared().
  util::ThreadPool* pool = nullptr;
  /// Resource governor: cancellation, deadline and state/byte accounting.
  /// Checked once per breadth-first level and charged with every discovered
  /// state.  nullptr disables governance.
  util::Budget* budget = nullptr;
  /// Approximate per-state footprint charged to the budget.
  std::size_t bytes_per_state = 0;
  /// Formalism vocabulary for the state-space-explosion diagnostic:
  /// "state space"/"states" (PEPA) or "marking graph"/"markings" (nets).
  std::string_view space_noun = "state space";
  std::string_view state_noun = "states";
  /// Tail of the passive-at-top-level diagnostic, appended directly after
  /// "activity '<name>" (so it conventionally starts with "' ").
  std::string_view passive_suffix =
      "' occurs passively at the top level; synchronise it with an active"
      " partner";
};

/// Sentinel for "target not yet numbered" in the expansion buffers.
inline constexpr std::size_t kUnresolved =
    std::numeric_limits<std::size_t>::max();

/// One move recorded by an expansion worker: the move itself plus the
/// target's state index when it was already numbered in an earlier level.
template <typename Move>
struct PendingMove {
  Move move;
  std::size_t resolved = kUnresolved;
};

/// A not-yet-numbered successor, looked up in the level-local dedup set
/// through FreshHash / FreshEq's transparent overloads without a copy.
template <typename State>
struct FreshCandidate {
  const State* state;
};

/// Hash of the level-local dedup set, whose keys are indices into `states`.
template <typename State, typename Hash>
struct FreshHash {
  using is_transparent = void;
  const std::vector<State>* states;
  std::size_t operator()(std::size_t idx) const {
    return Hash{}((*states)[idx]);
  }
  std::size_t operator()(FreshCandidate<State> c) const {
    return Hash{}(*c.state);
  }
};

/// Equality of the level-local dedup set (see FreshHash).
template <typename State>
struct FreshEq {
  using is_transparent = void;
  const std::vector<State>* states;
  bool operator()(std::size_t a, std::size_t b) const {
    return (*states)[a] == (*states)[b];
  }
  bool operator()(std::size_t a, FreshCandidate<State> c) const {
    return (*states)[a] == *c.state;
  }
  bool operator()(FreshCandidate<State> c, std::size_t a) const {
    return *c.state == (*states)[a];
  }
};

/// The identity canonicalization: every state is its own representative, so
/// the explored space is the full chain (the default, golden-locked path).
struct NoCanonicalize {
  template <typename State>
  bool operator()(State&) const noexcept {
    return false;
  }
};

/// Explores from `initial`, appending discovered states to `states` (state
/// 0 is the initial state) and publishing them in `index`; both are expected
/// empty.  Every state — the initial one and each successor target — passes
/// through `canonicalize` before lookup or interning, so the explored space
/// is the quotient of the derivation graph under the canonicalizer's
/// equivalence (pass NoCanonicalize for the full space).  Transitions are
/// handed to `commit` in canonical order.  Returns the exploration counters
/// (seconds covers the exploration loop only; callers usually overwrite it
/// with their own stopwatch).
template <typename State, typename Hash, typename Successors,
          typename Canonicalize, typename ActionName, typename Commit>
DeriveStats run(std::vector<State>& states,
                util::StripedMap<State, std::size_t, Hash>& index,
                State initial, Successors&& successors,
                Canonicalize&& canonicalize, ActionName&& action_name,
                Commit&& commit, const EngineOptions& options) {
  util::Stopwatch timer;
  DeriveStats stats;
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::shared();
  const std::size_t lanes =
      options.threads == 0 ? pool.worker_count() + 1 : options.threads;

  // The states of the level being expanded, in canonical (index) order.
  std::vector<std::size_t> frontier;

  // Expansion lanes count their rewrites locally and fold them in here once
  // per chunk; the serial phases add theirs directly to `stats`.
  std::atomic<std::size_t> rewrites{0};

  if (canonicalize(initial)) ++stats.canonical_rewrites;
  states.push_back(std::move(initial));
  index.try_emplace(states[0], 0);
  ++stats.dedup_misses;
  frontier.push_back(0);
  if (options.budget != nullptr) {
    options.budget->charge_states(1, options.bytes_per_state);
  }

  using Move = typename std::decay_t<
      decltype(successors(std::declval<const State&>()))>::value_type;

  // The level-local dedup set for the serial phase: keys are indices into
  // `states`, and lookups against a not-yet-numbered candidate go through a
  // transparent wrapper so the candidate is never copied before it wins a
  // number (the wrapper also keeps the overloads unambiguous when State is
  // itself an integer type).  The shared index is never consulted here — it
  // is immutable while a level runs, so a target the expansion phase left
  // unresolved is either genuinely new or a duplicate within the level, and
  // this set holds exactly those.
  using Candidate = FreshCandidate<State>;
  std::unordered_set<std::size_t, FreshHash<State, Hash>, FreshEq<State>>
      fresh(16, FreshHash<State, Hash>{&states}, FreshEq<State>{&states});

  while (!frontier.empty()) {
    ++stats.levels;
    stats.peak_frontier = std::max(stats.peak_frontier, frontier.size());
    // The cooperative governance point: once per level, after recording the
    // level in the accounting (so partial stats cover the level being
    // abandoned), before the expensive expansion.  Level granularity keeps
    // exploration deterministic — uninterrupted runs never observe it.
    if (options.budget != nullptr) {
      options.budget->note_level(frontier.size());
      options.budget->check("derive");
    }
    const std::vector<std::size_t> level = std::move(frontier);
    frontier.clear();

    // Parallel phase: expand every level state into its move buffer.  The
    // workers call the successor function concurrently (the policy must be
    // thread-safe) and pre-resolve targets against the index — one batched
    // lookup per chunk — which only the serial phase below mutates, between
    // levels.  Errors are captured per state so the canonically-first one
    // can be rethrown deterministically.
    std::vector<std::vector<PendingMove<Move>>> moves(level.size());
    std::vector<std::exception_ptr> errors(level.size());
    auto expand = [&](std::size_t begin, std::size_t end) {
      std::size_t local_rewrites = 0;
      for (std::size_t i = begin; i < end; ++i) {
        try {
          auto&& found = successors(states[level[i]]);
          moves[i].reserve(found.size());
          for (auto& move : found) {
            // Moves out of an owned vector, copies out of a view.
            moves[i].push_back({std::move(move), kUnresolved});
            // Canonicalize before the batched lookup below, so the index
            // only ever sees (and interns) canonical representatives.
            if (canonicalize(moves[i].back().move.target)) ++local_rewrites;
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
      if (local_rewrites != 0) {
        rewrites.fetch_add(local_rewrites, std::memory_order_relaxed);
      }
      // Batched pre-resolution over the whole chunk: one stripe visit per
      // touched stripe instead of one lock round-trip per move.
      std::vector<const State*> keys;
      for (std::size_t i = begin; i < end; ++i) {
        if (errors[i]) continue;
        for (const PendingMove<Move>& pending : moves[i]) {
          keys.push_back(&pending.move.target);
        }
      }
      if (keys.empty()) return;
      std::vector<const std::size_t*> found(keys.size());
      index.find_batch(keys, found);
      std::size_t k = 0;
      for (std::size_t i = begin; i < end; ++i) {
        if (errors[i]) continue;
        for (PendingMove<Move>& pending : moves[i]) {
          const std::size_t* known = found[k++];
          if (known != nullptr) pending.resolved = *known;
        }
      }
    };
    if (lanes <= 1 || level.size() <= 1) {
      expand(0, level.size());
    } else {
      const std::size_t grain =
          options.chunk_grain != 0
              ? options.chunk_grain
              : std::clamp<std::size_t>(level.size() / (lanes * 8), 1, 128);
      pool.parallel_for_dynamic(level.size(), grain, lanes, expand);
    }

    // Serial phase: number the discovered states and commit transitions in
    // canonical order — source index, then move order — which is the order
    // the sequential FIFO exploration produces.
    const std::size_t known_before = states.size();
    auto charge_level = [&] {
      if (options.budget != nullptr) {
        options.budget->charge_states(
            states.size() - known_before,
            (states.size() - known_before) * options.bytes_per_state);
      }
    };
    try {
      for (std::size_t i = 0; i < level.size(); ++i) {
        if (errors[i]) std::rethrow_exception(errors[i]);
        const std::size_t source = level[i];
        for (PendingMove<Move>& pending_move : moves[i]) {
          Move& move = pending_move.move;
          if (move.rate.is_passive()) {
            if (options.allow_top_level_passive) continue;
            throw util::ModelError(util::msg("activity '", action_name(move),
                                             options.passive_suffix));
          }
          std::size_t target = pending_move.resolved;
          if (target != kUnresolved) {
            ++stats.dedup_hits;
          } else if (const auto it = fresh.find(Candidate{&move.target});
                     it != fresh.end()) {
            target = *it;
            ++stats.dedup_hits;
          } else {
            if (states.size() >= options.max_states) {
              throw util::BudgetError(util::msg(
                  options.space_noun, " exceeds the configured bound of ",
                  options.max_states, " ", options.state_noun,
                  " (state-space explosion)"));
            }
            target = states.size();
            states.push_back(std::move(move.target));
            fresh.insert(target);
            ++stats.dedup_misses;
            frontier.push_back(target);
          }
          commit(source, move, target);
        }
      }
    } catch (...) {
      // Unwind accounting: states already appended by this level must be
      // charged even though the level is being abandoned, or partial
      // DeriveStats and JobHandle::progress() under-report.
      charge_level();
      throw;
    }
    // Bulk-intern the level: publish every state this serial pass numbered
    // with a single batched insert (each touched stripe locked once), then
    // charge the budget for them.
    if (states.size() > known_before) {
      std::vector<const State*> keys;
      std::vector<std::size_t> values;
      keys.reserve(states.size() - known_before);
      values.reserve(states.size() - known_before);
      for (std::size_t s = known_before; s < states.size(); ++s) {
        keys.push_back(&states[s]);
        values.push_back(s);
      }
      index.try_emplace_batch(keys, values);
    }
    fresh.clear();
    charge_level();
  }
  stats.canonical_rewrites += rewrites.load(std::memory_order_relaxed);
  stats.seconds = timer.seconds();
  return stats;
}

/// The historical signature: explore the full space (no canonicalization).
template <typename State, typename Hash, typename Successors,
          typename ActionName, typename Commit>
DeriveStats run(std::vector<State>& states,
                util::StripedMap<State, std::size_t, Hash>& index,
                State initial, Successors&& successors,
                ActionName&& action_name, Commit&& commit,
                const EngineOptions& options) {
  return run(states, index, std::move(initial),
             std::forward<Successors>(successors), NoCanonicalize{},
             std::forward<ActionName>(action_name),
             std::forward<Commit>(commit), options);
}

}  // namespace choreo::explore
