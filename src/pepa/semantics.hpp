// Structured operational semantics of PEPA.
//
// Provides memoised apparent rates r_alpha(P) and one-step derivatives.
// Because terms are hash-consed, both memos are keyed by node id and every
// semantically-identical subterm is evaluated once.
//
// compute_derivatives and compute_apparent are the reference composition
// of the SOS: pepa::StateSpace::derive asks this class only for the local
// terms of its leaves (pepa/leaf_layout.hpp) and composes their moves over
// the static cooperation/hiding tree in the same emission order and with
// the same rate arithmetic, so any change to the composition here must be
// mirrored there (tests/term_derive_oracle.hpp keeps the two in step).
// PEPA-net marking graphs and sweep tape recording call it on whole terms.
//
// The memo is flat: one dense slot per node (util::SlotArray, segments
// allocated on demand, lock-free reads) holding an atomic pointer to the
// node's derivative list and the head of a short (action, rate) chain of
// its apparent rates.  Lists and chain entries live in a util::BumpArena
// owned by the Semantics and freed in bulk with it; a constant's slot
// shares its body's list.  Callers on several threads (the net
// exploration's lanes, concurrent jobs sharing one model) call
// derivatives()/apparent_rate() concurrently, compute misses without any
// lock, and publish by compare-and-swap: the first publisher wins (the
// computations are deterministic, so racing results are identical).  A
// computation that throws publishes nothing.  Returned spans stay valid
// for the lifetime of the Semantics object.
//
// Derivative lists preserve multiplicity: (a, r).P + (a, r).P yields two
// entries, so downstream CTMC construction (which sums parallel transitions)
// sees the correct apparent rate 2r.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>

#include "pepa/ast.hpp"
#include "util/bump_arena.hpp"
#include "util/slot_array.hpp"

namespace choreo::pepa {

/// One enabled activity of a process term.
struct Derivative {
  ActionId action;
  Rate rate;
  ProcessId target;
};

class Semantics {
 public:
  /// The arena is mutated: derivative targets intern new terms.
  explicit Semantics(ProcessArena& arena) : arena_(arena) {}

  Semantics(const Semantics&) = delete;
  Semantics& operator=(const Semantics&) = delete;

  ProcessArena& arena() noexcept { return arena_; }
  const ProcessArena& arena() const noexcept { return arena_; }

  /// Apparent rate of `action` in `process` (total capacity for the action,
  /// Rate() when the action is not enabled).  Throws util::ModelError on
  /// unguarded recursion and on mixed active/passive offerings.
  /// Thread-safe.
  Rate apparent_rate(ProcessId process, ActionId action);

  /// All enabled activities of `process`.  Thread-safe; the span stays
  /// valid (and repeated calls return the same storage) for the lifetime of
  /// this Semantics.
  std::span<const Derivative> derivatives(ProcessId process);

 private:
  struct List {
    Derivative* items;
    std::size_t size;
  };
  struct Apparent {
    Rate rate;
    ActionId action;
    const Apparent* next;
  };
  struct Slot {
    std::atomic<const List*> derivatives{nullptr};
    std::atomic<const Apparent*> apparent{nullptr};
  };

  const List* list_of(ProcessId process);
  const List* compute_derivatives(ProcessId process);
  Rate compute_apparent(ProcessId process, ActionId action);
  /// Storage for a list of `size` derivatives, to be filled by the caller.
  List* new_list(std::size_t size);

  ProcessArena& arena_;
  util::SlotArray<Slot> slots_;
  util::BumpArena store_;
};

}  // namespace choreo::pepa
