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
//   - lock-free pre-resolution: the state index (explore::StateIndex, a
//     flat {hash tag, state id} table over `states`) is read-only while a
//     level expands, so each lane looks its transition targets up without a
//     lock and keeps each target's hash for the serial phase;
//   - one move buffer per chunk, reused from level to level, instead of
//     one vector per expanded state;
//   - a latch instead of a future join: the calling thread is itself a
//     lane and, once the cursor runs dry, helps drain the pool's task
//     queue while the remaining lanes finish — no per-level sleep on a
//     vector of futures.
//
// The serial phase stays the ordering authority.  It walks the chunks in
// canonical order and finds or inserts each target the lanes left
// unresolved directly in the index, so a state discovered twice in one
// level is numbered once, by its canonically first occurrence; it is the
// only writer of `states` and the index.
//
// The engine is parameterised over the state type and its hash, the
// successor function, the canonicalization stage and the move-commit
// callback, and preserves the
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
//   State       value stored in `states` and indexed by `index`; moved,
//               hashed (Hash, to 64 bits) and compared for equality.
//   Successors  callable State-const-ref -> a range of Move: a
//               std::vector<Move> by value, or a view (such as
//               std::span<const Move>) that stays valid until the same
//               thread calls it again.  Must be safe to call concurrently
//               from expansion lanes.
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
#include <cstdint>
#include <exception>
#include <string_view>
#include <utility>
#include <vector>

#include "explore/state_index.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
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
  /// Exploration lanes per breadth-first level: 1 forces the sequential
  /// path, 0 sizes to the pool (worker count + the calling thread).  The
  /// explored space is identical for every setting.
  std::size_t threads = 0;
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
inline constexpr std::size_t kUnresolved = StateIndex::kAbsent;

/// One move recorded by an expansion lane: the move itself, its target's
/// hash, and the target's state index when it was already numbered in an
/// earlier level.
template <typename Move>
struct PendingMove {
  Move move;
  std::uint64_t hash = 0;
  std::size_t resolved = kUnresolved;
};

/// The moves of one work-stealing chunk of a level, states [begin, end),
/// in canonical order; `ends[k]` closes the moves of state begin + k.
template <typename Move>
struct ExpandedChunk {
  bool used = false;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<PendingMove<Move>> moves;
  std::vector<std::size_t> ends;
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
/// 0 is the initial state) and indexing them in `index` under Hash; both
/// are expected empty.  Every state — the initial one and each successor
/// target — passes through `canonicalize` before lookup or interning, so
/// the explored space is the quotient of the derivation graph under the
/// canonicalizer's equivalence (pass NoCanonicalize for the full space).
/// Transitions are handed to `commit` in canonical order.  Returns the
/// exploration counters (seconds covers the exploration loop only; callers
/// usually overwrite it with their own stopwatch).
template <typename Hash, typename State, typename Successors,
          typename Canonicalize, typename ActionName, typename Commit>
DeriveStats run(std::vector<State>& states, StateIndex& index, State initial,
                Successors&& successors, Canonicalize&& canonicalize,
                ActionName&& action_name, Commit&& commit,
                const EngineOptions& options) {
  util::Stopwatch timer;
  DeriveStats stats;
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::shared();
  const std::size_t lanes =
      options.threads == 0 ? pool.worker_count() + 1 : options.threads;
  const Hash hash;

  // The states of the level being expanded, in canonical (index) order.
  std::vector<std::size_t> frontier;
  std::vector<std::size_t> level;

  // Expansion lanes count their rewrites locally and fold them in here once
  // per chunk; the serial phases add theirs directly to `stats`.
  std::atomic<std::size_t> rewrites{0};

  if (canonicalize(initial)) ++stats.canonical_rewrites;
  states.push_back(std::move(initial));
  index.insert(hash(states[0]), 0);
  ++stats.dedup_misses;
  frontier.push_back(0);
  if (options.budget != nullptr) {
    options.budget->charge_states(1, options.bytes_per_state);
  }

  using Move = typename std::decay_t<
      decltype(successors(std::declval<const State&>()))>::value_type;

  // Chunk buffers live across levels, so a level reuses the capacity the
  // previous ones grew.
  std::vector<ExpandedChunk<Move>> chunks;
  std::vector<std::exception_ptr> errors;

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
    level.swap(frontier);
    frontier.clear();

    // Parallel phase: expand every level state into its chunk's buffer.
    // The lanes call the successor function concurrently (the policy must
    // be thread-safe) and resolve targets against the index, which only the
    // serial phase below writes, between levels.  Errors are captured per
    // state so the canonically-first one can be rethrown deterministically.
    const std::size_t grain =
        lanes <= 1 ? std::max<std::size_t>(level.size(), 1)
                   : std::clamp<std::size_t>(level.size() / (lanes * 8), 1,
                                             128);
    const std::size_t chunk_count = (level.size() + grain - 1) / grain;
    if (chunks.size() < chunk_count) chunks.resize(chunk_count);
    for (std::size_t c = 0; c < chunk_count; ++c) chunks[c].used = false;
    errors.assign(level.size(), nullptr);
    auto expand = [&](std::size_t begin, std::size_t end) {
      ExpandedChunk<Move>& chunk = chunks[begin / grain];
      chunk.used = true;
      chunk.begin = begin;
      chunk.end = end;
      chunk.moves.clear();
      chunk.ends.clear();
      std::size_t local_rewrites = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t first = chunk.moves.size();
        try {
          auto&& found = successors(states[level[i]]);
          for (auto& move : found) {
            // Moves out of an owned vector, copies out of a view.
            chunk.moves.push_back({std::move(move)});
            PendingMove<Move>& pending = chunk.moves.back();
            // Canonicalize before the lookup, so the index only ever sees
            // (and interns) canonical representatives.
            if (canonicalize(pending.move.target)) ++local_rewrites;
            pending.hash = hash(pending.move.target);
            pending.resolved = index.find(
                pending.hash, [&states, &pending](std::size_t id) {
                  return states[id] == pending.move.target;
                });
          }
        } catch (...) {
          errors[i] = std::current_exception();
          chunk.moves.erase(chunk.moves.begin() + first, chunk.moves.end());
        }
        chunk.ends.push_back(chunk.moves.size());
      }
      if (local_rewrites != 0) {
        rewrites.fetch_add(local_rewrites, std::memory_order_relaxed);
      }
    };
    if (lanes <= 1 || level.size() <= 1) {
      expand(0, level.size());
    } else {
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
      for (std::size_t c = 0; c < chunk_count; ++c) {
        ExpandedChunk<Move>& chunk = chunks[c];
        if (!chunk.used) continue;  // covered by an earlier, wider call
        std::size_t at = 0;
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          if (errors[i]) std::rethrow_exception(errors[i]);
          const std::size_t source = level[i];
          for (const std::size_t stop = chunk.ends[i - chunk.begin]; at < stop;
               ++at) {
            PendingMove<Move>& pending = chunk.moves[at];
            Move& move = pending.move;
            if (move.rate.is_passive()) {
              throw util::ModelError(util::msg(
                  "activity '", action_name(move), options.passive_suffix));
            }
            std::size_t target = pending.resolved;
            if (target == kUnresolved) {
              target = index.find(pending.hash, [&states, &move](std::size_t id) {
                return states[id] == move.target;
              });
            }
            if (target != kUnresolved) {
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
              index.insert(pending.hash, target);
              ++stats.dedup_misses;
              frontier.push_back(target);
            }
            commit(source, move, target);
          }
        }
      }
    } catch (...) {
      // Unwind accounting: states already appended by this level must be
      // charged even though the level is being abandoned, or partial
      // DeriveStats and JobHandle::progress() under-report.
      charge_level();
      throw;
    }
    charge_level();
  }
  stats.canonical_rewrites += rewrites.load(std::memory_order_relaxed);
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace choreo::explore
