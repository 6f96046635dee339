// Sort-canonical representatives of PEPA terms: the reference for
// on-the-fly aggregation.  pepa::StateSpace::derive builds its static tree
// from the canonical initial term and canonicalizes packed keys by sorting
// same-shape siblings over tables closed under these representatives
// (pepa/leaf_layout.hpp); PEPA-net markings canonicalize their slot terms
// here directly (pepanet::MarkingCanonicalizer).
//
// PEPA cooperation over one action set L is commutative and associative up
// to strong equivalence (the apparent-rate minimum is symmetric and
// associative), so the siblings of a maximal cooperation spine sharing the
// same set — in particular the replicated components of the `pepa::families`
// populations, folded over the empty set — may be reordered freely without
// changing the induced CTMC up to lumping.  The canonicalizer flattens every
// such spine, canonicalizes the siblings, sorts them under a *structural*
// order, and rebuilds the same balanced shape `families.cpp` uses.  Deriving
// through this rewrite makes the explored space the population-vector
// quotient of Ding & Hillston's vector form: a state is "how many replicas
// sit in each local derivative", not "which replica sits where".
//
// The sibling order must not depend on ProcessIds: the arena interns nodes
// concurrently, so ids differ from run to run and lane count to lane count,
// while the byte-identity guarantee (tests/test_golden_artifacts.cpp) and
// the lanes {1,2,8} determinism of the quotient space require a stable
// order.  structural_compare therefore orders terms by their syntax alone
// (operator, then per-operator fields, then children), which is invariant
// across arenas, runs and lane counts; ActionIds and ConstantIds are
// registered single-threaded at model-build time and are deterministic.
#pragma once

#include <atomic>

#include "pepa/ast.hpp"
#include "util/slot_array.hpp"

namespace choreo::pepa {

/// Total structural order on terms of one arena: <0, 0, >0 as `a` comes
/// before, equals, or follows `b`.  Hash-consing makes equal subterms share
/// ids, so the a == b short-circuit keeps comparisons of large equal
/// subtrees O(1).  Deterministic across runs and lane counts (never
/// consults raw ProcessIds).
int structural_compare(const ProcessArena& arena, ProcessId a, ProcessId b);

inline bool structural_less(const ProcessArena& arena, ProcessId a,
                            ProcessId b) {
  return structural_compare(arena, a, b) < 0;
}

/// Memoized canonical-representative computation.  Thread-safe: the memo is
/// one dense slot per node (util::SlotArray, lock-free reads, the same
/// layout pepa::Semantics uses) published by compare-and-swap, and the
/// arena interns concurrently; racing computations of the same term produce
/// the same id, so the first publisher winning is harmless.  Usable directly
/// as explore::run's canonicalization stage over terms.
class Canonicalizer {
 public:
  explicit Canonicalizer(ProcessArena& arena) : arena_(arena) {}

  /// The canonical representative of `term`'s strong-equivalence class
  /// under sibling reordering.  Idempotent: canonical(canonical(t)) ==
  /// canonical(t).
  ProcessId canonical(ProcessId term);

  /// explore::run hook: rewrite in place, report whether it changed.
  bool operator()(ProcessId& term) {
    const ProcessId replacement = canonical(term);
    if (replacement == term) return false;
    term = replacement;
    return true;
  }

  ProcessArena& arena() noexcept { return arena_; }

 private:
  ProcessArena& arena_;
  /// canonical(id) + 1 per node; 0 while not yet computed.
  util::SlotArray<std::atomic<ProcessId>> memo_;
};

}  // namespace choreo::pepa
