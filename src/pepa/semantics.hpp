// Structured operational semantics of PEPA, generic over the rate algebra
// it composes in.
//
// BasicSemantics provides memoised apparent rates r_alpha(P) and one-step
// derivatives.  Because terms are hash-consed, both memos are keyed by node
// id and every semantically-identical subterm is evaluated once.
//
// The walk is one syntax-directed recursion over terms; every rate it
// computes it asks of its algebra:
//
//   - prefix(id, node): the rate of prefix node `id`;
//   - zero() and is_zero(): the "no capacity" value;
//   - plus(a, b, context), min(a, b) and cooperation(r1, a1, r2, a2,
//     context): Rate::plus, Rate::min and pepa::cooperation_rate, where
//     `context` is context(action) of the action being composed.
//
// It asks them in one order, whatever the algebra.  Two algebras exist.
// RateAlgebra computes pepa::Rate values; that instance is pepa::Semantics,
// compiled once in semantics.cpp, which derives, PEPA-net marking graphs,
// the fluid vector form and simulation ask.  The sweep's TapeRecorder
// (sweep/rebind.hpp) computes rate-tape nodes: a sweep walks the base
// model's local terms in it, so every local move and apparent rate gets the
// node of its rate, in the order this walk first computes it.  Both
// instances compute derivative targets; a tape walk only finds terms that a
// Rate walk over the same terms interned before it.
//
// pepa::StateSpace::derive asks this class only for the local terms of its
// leaves (pepa/leaf_layout.hpp) and composes their moves over the static
// cooperation/hiding tree (pepa/leaf_moves.hpp) in the same emission order
// and with the same rate arithmetic, so a change to the composition here
// must be made there too (tests/term_derive_oracle.hpp keeps the two in
// step).
//
// The memo is flat: one dense slot per node (util::SlotArray, segments
// allocated on demand, lock-free reads) holding an atomic pointer to the
// node's derivative list and the head of a short (action, rate) chain of
// its apparent rates.  Lists and chain entries live in a util::BumpArena
// owned by the walk and freed in bulk with it; a constant's slot shares its
// body's list.  Callers on several threads (the net exploration's lanes,
// concurrent jobs sharing one model) call derivatives()/apparent_rate()
// concurrently, compute misses without any lock, and publish by
// compare-and-swap: the first publisher wins (the computations are
// deterministic, so racing results are identical).  A computation that
// throws publishes nothing.  Returned spans stay valid for the lifetime of
// the walk.
//
// Derivative lists preserve multiplicity: (a, r).P + (a, r).P yields two
// entries, so downstream CTMC construction (which sums parallel transitions)
// sees the correct apparent rate 2r.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pepa/ast.hpp"
#include "pepa/rate.hpp"
#include "util/bump_arena.hpp"
#include "util/error.hpp"
#include "util/slot_array.hpp"

namespace choreo::pepa {

/// One enabled activity of a process term, its rate a value of the walk's
/// algebra.
template <typename Value>
struct BasicDerivative {
  ActionId action;
  Value rate;
  ProcessId target;
};

/// pepa::Rate arithmetic: the algebra of pepa::Semantics and, with the
/// leaves' rates added (pepa::LeafRates), of the derive's composition.
/// Reads only action names, so threads share one.
class RateAlgebra {
 public:
  using Value = Rate;
  /// The action's name, for the messages of Rate::plus and cooperation_rate.
  using Context = const std::string&;

  explicit RateAlgebra(const ProcessArena& arena) : arena_(arena) {}

  Context context(ActionId action) const { return arena_.action_name(action); }
  static Rate zero() { return Rate(); }
  static bool is_zero(const Rate& rate) { return rate.is_zero(); }
  static const Rate& prefix(ProcessId, const ProcessNode& node) {
    return node.rate;
  }
  static Rate plus(const Rate& a, const Rate& b, Context name) {
    return a.plus(b, name);
  }
  static Rate min(const Rate& a, const Rate& b) { return Rate::min(a, b); }
  static Rate cooperation(const Rate& r1, const Rate& apparent1,
                          const Rate& r2, const Rate& apparent2,
                          Context name) {
    return cooperation_rate(r1, apparent1, r2, apparent2, name);
  }

 private:
  const ProcessArena& arena_;
};

namespace detail {

/// Marks a constant as being expanded by the calling thread for the guard's
/// lifetime, for unguarded-recursion detection.  Throws util::ModelError
/// when the thread is expanding it already.
class ExpandingGuard {
 public:
  ExpandingGuard(const ProcessArena& arena, ConstantId constant);
  ~ExpandingGuard();

  ExpandingGuard(const ExpandingGuard&) = delete;
  ExpandingGuard& operator=(const ExpandingGuard&) = delete;
};

}  // namespace detail

/// The SOS walk in `Algebra` (see the header comment).  Thread-safe when the
/// algebra's calls are.
template <typename Algebra>
class BasicSemantics {
 public:
  using Value = typename Algebra::Value;
  using Move = BasicDerivative<Value>;

  /// The arena is mutated: derivative targets intern new terms.
  explicit BasicSemantics(ProcessArena& arena)
      : BasicSemantics(arena, Algebra(arena)) {}
  BasicSemantics(ProcessArena& arena, Algebra algebra)
      : arena_(arena), algebra_(std::move(algebra)) {}

  BasicSemantics(const BasicSemantics&) = delete;
  BasicSemantics& operator=(const BasicSemantics&) = delete;

  ProcessArena& arena() noexcept { return arena_; }
  const ProcessArena& arena() const noexcept { return arena_; }
  Algebra& algebra() noexcept { return algebra_; }

  /// Apparent rate of `action` in `process` (total capacity for the action,
  /// zero() when the action is not enabled).  Throws util::ModelError on
  /// unguarded recursion and on mixed active/passive offerings.
  Value apparent_rate(ProcessId process, ActionId action);

  /// All enabled activities of `process`.  The span stays valid (and
  /// repeated calls return the same storage) for the lifetime of this
  /// walk.
  std::span<const Move> derivatives(ProcessId process);

 private:
  // The memo store never runs destructors.
  static_assert(std::is_trivially_destructible_v<Move>);

  struct List {
    Move* items;
    std::size_t size;
  };
  struct Apparent {
    Value rate;
    ActionId action;
    const Apparent* next;
  };
  struct Slot {
    std::atomic<const List*> derivatives{nullptr};
    std::atomic<const Apparent*> apparent{nullptr};
  };

  const List* list_of(ProcessId process);
  const List* compute_derivatives(ProcessId process);
  Value compute_apparent(ProcessId process, ActionId action);
  /// Storage for a list of `size` derivatives, to be filled by the caller.
  List* new_list(std::size_t size);

  ProcessArena& arena_;
  Algebra algebra_;
  util::SlotArray<Slot> slots_;
  util::BumpArena store_;
};

using Derivative = BasicDerivative<Rate>;
using Semantics = BasicSemantics<RateAlgebra>;

// The Rate instance is compiled once, in semantics.cpp.
extern template class BasicSemantics<RateAlgebra>;

template <typename Algebra>
auto BasicSemantics<Algebra>::apparent_rate(ProcessId process,
                                            ActionId action) -> Value {
  std::atomic<const Apparent*>& head = slots_[process].apparent;
  auto find = [action](const Apparent* from,
                       const Apparent* until) -> const Apparent* {
    for (; from != until; from = from->next) {
      if (from->action == action) return from;
    }
    return nullptr;
  };
  const Apparent* seen = head.load(std::memory_order_acquire);
  if (const Apparent* hit = find(seen, nullptr)) return hit->rate;
  const Value rate = compute_apparent(process, action);
  auto* entry = new (store_.allocate(sizeof(Apparent), alignof(Apparent)))
      Apparent{rate, action, seen};
  // Prepend; on a lost race, the entries published since `seen` may already
  // hold this action, and the first publisher wins.
  while (!head.compare_exchange_weak(entry->next, entry,
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
    if (const Apparent* hit = find(entry->next, seen)) return hit->rate;
    seen = entry->next;
  }
  return rate;
}

template <typename Algebra>
auto BasicSemantics<Algebra>::compute_apparent(ProcessId process,
                                               ActionId action) -> Value {
  const ProcessNode& node = arena_.node(process);
  switch (node.op) {
    case Op::kStop:
      return algebra_.zero();
    case Op::kPrefix:
      return node.action == action ? algebra_.prefix(process, node)
                                   : algebra_.zero();
    case Op::kChoice: {
      const Value left = apparent_rate(node.left, action);
      const Value right = apparent_rate(node.right, action);
      return algebra_.plus(left, right, algebra_.context(action));
    }
    case Op::kHiding:
      // Activities of a hidden type appear as tau; their original type has
      // apparent rate zero.  tau itself aggregates the hidden activities.
      if (action == kTau) {
        Value sum = apparent_rate(node.left, kTau);
        for (ActionId hidden : node.action_set) {
          const Value term = apparent_rate(node.left, hidden);
          sum = algebra_.plus(sum, term, algebra_.context(kTau));
        }
        return sum;
      }
      if (set_contains(node.action_set, action)) return algebra_.zero();
      return apparent_rate(node.left, action);
    case Op::kCooperation: {
      const Value left = apparent_rate(node.left, action);
      const Value right = apparent_rate(node.right, action);
      if (action != kTau && set_contains(node.action_set, action)) {
        return algebra_.min(left, right);
      }
      return algebra_.plus(left, right, algebra_.context(action));
    }
    case Op::kConstant: {
      const detail::ExpandingGuard guard(arena_, node.constant);
      return apparent_rate(arena_.body(node.constant), action);
    }
  }
  CHOREO_ASSERT(false);
  return algebra_.zero();
}

template <typename Algebra>
auto BasicSemantics<Algebra>::derivatives(ProcessId process)
    -> std::span<const Move> {
  const List* list = list_of(process);
  return {list->items, list->size};
}

template <typename Algebra>
auto BasicSemantics<Algebra>::list_of(ProcessId process) -> const List* {
  std::atomic<const List*>& slot = slots_[process].derivatives;
  if (const List* hit = slot.load(std::memory_order_acquire)) return hit;
  const List* computed = compute_derivatives(process);
  const List* published = nullptr;
  if (slot.compare_exchange_strong(published, computed,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return computed;
  }
  return published;
}

template <typename Algebra>
auto BasicSemantics<Algebra>::new_list(std::size_t size) -> List* {
  // One block: the header, then the items (sizeof(List) keeps them
  // aligned).
  static_assert(sizeof(List) % alignof(Move) == 0);
  void* block =
      store_.allocate(sizeof(List) + size * sizeof(Move), alignof(List));
  auto* items =
      reinterpret_cast<Move*>(static_cast<std::byte*>(block) + sizeof(List));
  return new (block) List{items, size};
}

template <typename Algebra>
auto BasicSemantics<Algebra>::compute_derivatives(ProcessId process)
    -> const List* {
  static constexpr List kNone{nullptr, 0};
  const ProcessNode& node = arena_.node(process);
  switch (node.op) {
    case Op::kStop:
      return &kNone;
    case Op::kPrefix: {
      List* out = new_list(1);
      new (out->items)
          Move{node.action, algebra_.prefix(process, node), node.left};
      return out;
    }
    case Op::kChoice: {
      const std::span<const Move> left = derivatives(node.left);
      const std::span<const Move> right = derivatives(node.right);
      List* out = new_list(left.size() + right.size());
      std::uninitialized_copy(right.begin(), right.end(),
                              std::uninitialized_copy(left.begin(), left.end(),
                                                      out->items));
      return out;
    }
    case Op::kHiding: {
      const std::span<const Move> inner = derivatives(node.left);
      List* out = new_list(inner.size());
      for (std::size_t i = 0; i < inner.size(); ++i) {
        const Move& d = inner[i];
        const ActionId action =
            set_contains(node.action_set, d.action) ? kTau : d.action;
        new (out->items + i) Move{
            action, d.rate, arena_.hiding_normalised(d.target, node.action_set)};
      }
      return out;
    }
    case Op::kCooperation: {
      const std::span<const Move> left = derivatives(node.left);
      const std::span<const Move> right = derivatives(node.right);
      // Per-thread staging for the list, whose length is known only once it
      // is built.  Filling it calls only apparent_rate() and the arena,
      // never derivatives(), so one buffer per thread is never in use twice.
      thread_local std::vector<Move> staging;
      std::vector<Move>& out = staging;
      out.clear();
      // Independent moves (action outside the cooperation set; tau is never
      // in the set).
      for (const Move& d : left) {
        if (set_contains(node.action_set, d.action)) continue;
        out.push_back({d.action, d.rate,
                       arena_.cooperation_normalised(d.target, node.action_set,
                                                     node.right)});
      }
      for (const Move& d : right) {
        if (set_contains(node.action_set, d.action)) continue;
        out.push_back({d.action, d.rate,
                       arena_.cooperation_normalised(node.left, node.action_set,
                                                     d.target)});
      }
      // Shared moves: each pair of co-operating activities, scaled by the
      // apparent-rate law.
      for (ActionId shared : node.action_set) {
        const Value apparent_left = apparent_rate(node.left, shared);
        const Value apparent_right = apparent_rate(node.right, shared);
        if (algebra_.is_zero(apparent_left) ||
            algebra_.is_zero(apparent_right)) {
          continue;
        }
        for (const Move& dl : left) {
          if (dl.action != shared) continue;
          for (const Move& dr : right) {
            if (dr.action != shared) continue;
            const Value rate =
                algebra_.cooperation(dl.rate, apparent_left, dr.rate,
                                     apparent_right, algebra_.context(shared));
            out.push_back({shared, rate,
                           arena_.cooperation_normalised(
                               dl.target, node.action_set, dr.target)});
          }
        }
      }
      List* list = new_list(out.size());
      std::uninitialized_copy(out.begin(), out.end(), list->items);
      return list;
    }
    case Op::kConstant: {
      const detail::ExpandingGuard guard(arena_, node.constant);
      return list_of(arena_.body(node.constant));  // shares the body's list
    }
  }
  CHOREO_ASSERT(false);
  return &kNone;
}

}  // namespace choreo::pepa
