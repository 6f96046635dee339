// The generic level-synchronous state-space exploration engine.
//
// Both Figure-4 derivations — PEPA state spaces (state diagrams) and
// PEPA-net marking graphs (activity diagrams) — are breadth-first
// explorations of a derivation graph: expand the states of one level in
// parallel lanes, number the newly discovered states serially in canonical
// order, and write the level's transitions.  This header is the single
// implementation of that loop; pepa::StateSpace::derive and
// pepanet::NetStateSpace::derive_from are thin policies over it.
//
// The parallel phase: lanes pull work-stealing chunks of the frontier from
// an atomic cursor (util::ThreadPool::parallel_for_dynamic), each into a
// reused move buffer.  The state index (explore::StateIndex) is read-only
// while a level expands, so each lane resolves its targets without a lock,
// keeps each target's hash, and lists the moves it could not resolve — the
// targets first discovered in this level.  The calling thread is a lane
// too, and helps drain the pool's queue while the others finish.
//
// The serial phase is the ordering authority, and the only writer of
// `states` and the index: it walks each chunk's unresolved moves in
// canonical order and finds or inserts their targets, so a state found
// twice in one level is numbered by its canonically first occurrence.  A
// chunk holding a passive move or an expansion error is walked move by move
// instead, so every error surfaces at its canonical position.
//
// The array contract: every transition is stored once, in one anonymous
// mapping (explore::MappedArray) that the lanes write in place.  Level k's
// chunks are kept until level k + 1's fork.  Before that fork the serial
// phase grows the mapping (mremap, doubling its capacity) to hold level k,
// whose positions follow from the chunks' move counts; the fork's lanes
// then write each chunk's records (Write's) straight into it, with the
// source-row index of its states — a level's states are a contiguous id
// range, so their rows are too.  One last fork writes the last level, and
// the mapping is handed to the TransitionSystem as it is: no second copy,
// no join.  Every position is written before anything reads it, so a
// mapping a finished derive retired serves the next one as it stands.
//
// The guarantees:
//
//   - canonical FIFO numbering: state ids, transition order and everything
//     downstream are byte-identical at every lane count, because the serial
//     phase numbers discoveries in source-index-then-move order and every
//     transition's position follows from the move counts alone;
//   - deterministic errors: expansion failures are captured per state and
//     the canonically-first one is rethrown; the shared diagnostics
//     (state-space explosion, passive-at-top-level) keep their exact texts;
//   - once-per-level budget checks, after the level is recorded in the
//     accounting, so interrupted runs stop within one level.  States are
//     charged per level, an abandoned level's too (through an unwind path).
//
// Requirements on the policy types:
//
//   State       value stored in `states` and indexed by `index`; moved,
//               hashed (Hash, to 64 bits) and compared for equality.
//   Successors  callable State-const-ref -> a range of Move: a
//               std::vector<Move> by value, or a view (such as
//               std::span<const Move>) that stays valid until the same
//               thread calls it again.  Safe to call concurrently.
//   Move        exposes `.target` (State) and `.rate` (with is_passive()).
//   Canonicalize callable State-ref -> bool, rewriting the state to its
//               canonical representative in place (returning whether it
//               changed) before any lookup or interning, so the explored
//               space is the quotient under the induced equivalence.
//               Deterministic and safe to call concurrently.
//   ActionName  callable Move-const-ref -> printable action name, used in
//               the passive-at-top-level diagnostic.
//   Representable callable State-const-ref -> bool, asked serially of each
//               state right after it is numbered (and charged); false
//               raises the state-space explosion.  AllRepresentable accepts
//               every state.
//   Write       callable (source index, Move-const-ref, target index) ->
//               Transition, the record stored at the move's canonical
//               position.  Called concurrently from the lanes; `move.target`
//               may be moved-from (the target was numbered by this move).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <string_view>
#include <utility>
#include <vector>

#include "explore/state_index.hpp"
#include "explore/transition_system.hpp"
#include "util/budget.hpp"
#include "util/counting_sort.hpp"
#include "util/error.hpp"
#include "util/retained_memory.hpp"
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
  /// representative before interning; 0 on unaggregated runs.  With
  /// dedup_misses, the evidence that the explored space is the quotient.
  std::size_t canonical_rewrites = 0;
  /// Wall-clock derivation time.
  double seconds = 0.0;
  /// The part of `seconds` spent outside lane work: numbering, growing the
  /// transition array and everything else the calling thread does alone.
  double serial_seconds = 0.0;
};

struct EngineOptions {
  /// Exploration aborts (util::BudgetError) beyond this many states.
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
  std::size_t bytes_per_state = 0;  ///< charged to the budget per state
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
/// hash, and the target's state index — set by the lane when the target was
/// numbered in an earlier level, else by the serial phase.
template <typename Move>
struct PendingMove {
  Move move;
  std::uint64_t hash = 0;
  std::size_t target = kUnresolved;
};

/// The moves of one work-stealing chunk of a level, states [begin, end),
/// in canonical order; `ends[k]` closes the moves of state begin + k.
template <typename Move>
struct ExpandedChunk {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<PendingMove<Move>> moves;
  std::vector<std::size_t> ends;
  /// Positions in `moves` of the moves the lane left unresolved.
  std::vector<std::size_t> unresolved;
  /// The chunk holds a passive move or an expansion error, so the serial
  /// phase walks it move by move.
  bool walk_whole = false;
  /// Position of the chunk's first transition within its level.
  std::size_t first = 0;
};

/// The identity canonicalization: every state is its own representative, so
/// the explored space is the full chain (the default, golden-locked path).
struct NoCanonicalize {
  template <typename State>
  bool operator()(State&) const noexcept {
    return false;
  }
};

/// Every numbered state is representable: only the engine's own count
/// raises the state-space explosion.
struct AllRepresentable {
  template <typename State>
  bool operator()(const State&) const noexcept {
    return true;
  }
};

/// Explores from `initial`, appending discovered states to `states` (state
/// 0 is the initial state) and indexing them in `index` under Hash; both
/// are expected empty.  Every state — the initial one and each successor
/// target — passes through `canonicalize` before lookup or interning, so
/// the explored space is the quotient of the derivation graph under the
/// canonicalizer's equivalence (pass NoCanonicalize for the full space).
/// Each transition is the record `write` makes of it, stored in canonical
/// order into `transitions` with its source-row index.  Returns the
/// exploration counters (seconds covers the exploration loop only; callers
/// usually widen it to their own stopwatch, adding the difference to
/// serial_seconds).
template <typename Hash, typename State, typename Successors,
          typename Canonicalize, typename ActionName, typename Representable,
          typename Write, typename Transition>
DeriveStats run(std::vector<State>& states, StateIndex& index, State initial,
                Successors&& successors, Canonicalize&& canonicalize,
                ActionName&& action_name, Representable&& representable,
                Write&& write, TransitionSystem<Transition>& transitions,
                const EngineOptions& options) {
  // Every analysis derives before its large allocations, so the heap keeps
  // a finished job's memory for the next from here on.
  util::retain_freed_heap();
  util::Stopwatch timer;
  double lane_seconds = 0.0;
  DeriveStats stats;
  const util::Lanes run_lanes = util::Lanes::of(options.pool, options.threads);
  const std::size_t lanes = run_lanes.count;
  const Hash hash;

  // Expansion lanes count their rewrites locally and fold them in here once
  // per chunk; the serial phases add theirs directly to `stats`.
  std::atomic<std::size_t> rewrites{0};

  if (canonicalize(initial)) ++stats.canonical_rewrites;
  states.push_back(std::move(initial));
  index.insert(hash(states[0]), 0);
  ++stats.dedup_misses;
  if (options.budget != nullptr) {
    options.budget->charge_states(1, options.bytes_per_state);
  }

  using Move = typename std::decay_t<
      decltype(successors(std::declval<const State&>()))>::value_type;
  using Chunks = std::vector<ExpandedChunk<Move>>;

  /// The level the next fork writes: its states from `first` on, its chunks
  /// and its `count` transitions, at positions [base, base + count).
  struct Written {
    std::size_t first = 0;
    Chunks* chunks = nullptr;
    std::size_t chunk_count = 0;
    std::size_t base = 0;
    std::size_t count = 0;
  };

  // Two chunk sets: a level expands into one while the lanes write the
  // previous level's transitions out of the other.
  Chunks chunk_sets[2];
  MappedArray<Transition> array;
  std::vector<std::size_t> rows(1, 0);
  std::size_t total = 0;
  std::vector<std::exception_ptr> errors;

  auto explosion = [&options] {
    return util::BudgetError(util::msg(
        options.space_noun, " exceeds the configured bound of ",
        options.max_states, " ", options.state_noun,
        " (state-space explosion)"));
  };

  // Writes one chunk's transitions from position level.base + chunk.first
  // on and closes the rows of its states.
  auto write_chunk = [&](const Written& level,
                         const ExpandedChunk<Move>& chunk) {
    CHOREO_ASSERT(chunk.first + chunk.moves.size() <= level.count &&
                  level.base + level.count <= array.capacity());
    Transition* out = array.data() + level.base + chunk.first;
    std::size_t at = 0;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      const std::size_t source = level.first + i;
      for (const std::size_t stop = chunk.ends[i - chunk.begin]; at < stop;
           ++at) {
        const PendingMove<Move>& pending = chunk.moves[at];
        out[at] = write(source, pending.move, pending.target);
      }
      rows[source + 1] = level.base + chunk.first + at;
    }
  };

  // Runs `tasks` task indices over the lanes (inline at one lane).
  auto fork = [&](std::size_t tasks, auto&& task) {
    const double start = timer.seconds();
    util::run_parts(tasks, run_lanes, task);
    lane_seconds += timer.seconds() - start;
  };

  std::size_t level_first = 0;
  std::size_t level_size = 1;
  Written pending_write;  // nothing to write before the first level
  for (std::size_t parity = 0; level_size != 0; parity ^= 1) {
    ++stats.levels;
    stats.peak_frontier = std::max(stats.peak_frontier, level_size);
    // The governance point: once per level, after recording the level in
    // the accounting (so partial stats cover an abandoned level).
    if (options.budget != nullptr) {
      options.budget->note_level(level_size);
      options.budget->check("derive");
    }

    // Parallel phase: expand every level state into its chunk's buffer, and
    // write the previous level's transitions.  Errors are kept per state.
    Chunks& chunks = chunk_sets[parity];
    const std::size_t grain =
        lanes <= 1 ? level_size
                   : std::clamp<std::size_t>(level_size / (lanes * 8), 1, 128);
    const std::size_t chunk_count = (level_size + grain - 1) / grain;
    if (chunks.size() < chunk_count) chunks.resize(chunk_count);
    errors.assign(level_size, nullptr);
    auto expand = [&](std::size_t c) {
      ExpandedChunk<Move>& chunk = chunks[c];
      chunk.begin = c * grain;
      chunk.end = std::min(chunk.begin + grain, level_size);
      chunk.moves.clear();
      chunk.ends.clear();
      chunk.unresolved.clear();
      chunk.walk_whole = false;
      std::size_t local_rewrites = 0;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        const std::size_t first = chunk.moves.size();
        const std::size_t first_unresolved = chunk.unresolved.size();
        try {
          auto&& found = successors(states[level_first + i]);
          for (auto& move : found) {
            // Moves out of an owned vector, copies out of a view.
            chunk.moves.push_back({std::move(move)});
            PendingMove<Move>& pending = chunk.moves.back();
            if (pending.move.rate.is_passive()) chunk.walk_whole = true;
            // The index only ever sees canonical representatives.
            if (canonicalize(pending.move.target)) ++local_rewrites;
            pending.hash = hash(pending.move.target);
            pending.target = index.find(
                pending.hash, [&states, &pending](std::size_t id) {
                  return states[id] == pending.move.target;
                });
            if (pending.target == kUnresolved) {
              chunk.unresolved.push_back(chunk.moves.size() - 1);
            }
          }
        } catch (...) {
          errors[i] = std::current_exception();
          chunk.walk_whole = true;
          chunk.moves.erase(chunk.moves.begin() + first, chunk.moves.end());
          chunk.unresolved.resize(first_unresolved);
        }
        chunk.ends.push_back(chunk.moves.size());
      }
      if (local_rewrites != 0) {
        rewrites.fetch_add(local_rewrites, std::memory_order_relaxed);
      }
    };
    fork(chunk_count + pending_write.chunk_count, [&](std::size_t t) {
      if (t < chunk_count) {
        expand(t);
      } else {
        write_chunk(pending_write, (*pending_write.chunks)[t - chunk_count]);
      }
    });

    // Serial phase: number the discovered states in canonical order (source
    // index, then move order), the order a sequential FIFO exploration uses.
    const std::size_t known_before = states.size();
    auto charge_level = [&] {
      if (options.budget != nullptr) {
        options.budget->charge_states(
            states.size() - known_before,
            (states.size() - known_before) * options.bytes_per_state);
      }
    };
    auto resolve = [&](PendingMove<Move>& pending) {
      pending.target = index.find(pending.hash, [&](std::size_t id) {
        return states[id] == pending.move.target;
      });
      if (pending.target != kUnresolved) {
        ++stats.dedup_hits;
        return;
      }
      if (states.size() >= options.max_states) throw explosion();
      pending.target = states.size();
      states.push_back(std::move(pending.move.target));
      index.insert(pending.hash, pending.target);
      ++stats.dedup_misses;
      if (!representable(states.back())) throw explosion();
    };
    std::size_t level_count = 0;
    try {
      for (std::size_t c = 0; c < chunk_count; ++c) {
        ExpandedChunk<Move>& chunk = chunks[c];
        chunk.first = level_count;
        level_count += chunk.moves.size();
        if (!chunk.walk_whole) {
          stats.dedup_hits += chunk.moves.size() - chunk.unresolved.size();
          for (const std::size_t at : chunk.unresolved) {
            resolve(chunk.moves[at]);
          }
          continue;
        }
        std::size_t at = 0;
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          if (errors[i]) std::rethrow_exception(errors[i]);
          for (const std::size_t stop = chunk.ends[i - chunk.begin]; at < stop;
               ++at) {
            PendingMove<Move>& pending = chunk.moves[at];
            if (pending.move.rate.is_passive()) {
              throw util::ModelError(util::msg("activity '",
                                               action_name(pending.move),
                                               options.passive_suffix));
            }
            if (pending.target != kUnresolved) {
              ++stats.dedup_hits;
            } else {
              resolve(pending);
            }
          }
        }
      }
    } catch (...) {
      // States this level appended are charged though it is abandoned, or
      // partial DeriveStats and JobHandle::progress() under-report.
      charge_level();
      throw;
    }
    charge_level();

    // The next fork writes this level, into the array grown to hold it.
    pending_write = {level_first, &chunks, chunk_count, total, level_count};
    total += level_count;
    array.reserve(total);
    level_first = known_before;
    level_size = states.size() - known_before;
    rows.resize(states.size() + 1);
  }

  // The last level's writes.
  fork(pending_write.chunk_count, [&](std::size_t t) {
    write_chunk(pending_write, (*pending_write.chunks)[t]);
  });
  transitions.assign(std::move(array), total, std::move(rows));

  stats.canonical_rewrites += rewrites.load(std::memory_order_relaxed);
  stats.seconds = timer.seconds();
  stats.serial_seconds = stats.seconds - lane_seconds;
  return stats;
}

}  // namespace choreo::explore
