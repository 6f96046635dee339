#include "pepa/semantics.hpp"

#include <algorithm>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace choreo::pepa {

namespace {

// The memo store never runs destructors.
static_assert(std::is_trivially_destructible_v<Derivative>);
static_assert(std::is_trivially_destructible_v<Rate>);

/// The stack of constants currently being expanded, for unguarded-recursion
/// detection.  One stack per thread: exploration workers recurse through the
/// shared Semantics concurrently, and the stack is empty between top-level
/// calls, so a thread_local is exactly the per-call-tree state needed.
thread_local std::vector<ConstantId> t_expanding;

/// Exception-safe push/pop on the per-thread expansion stack.
struct ExpandingGuard {
  explicit ExpandingGuard(ConstantId id) { t_expanding.push_back(id); }
  ~ExpandingGuard() { t_expanding.pop_back(); }
};

bool currently_expanding(ConstantId id) {
  return std::find(t_expanding.begin(), t_expanding.end(), id) !=
         t_expanding.end();
}

/// Per-thread staging buffer for a cooperation's derivative list, whose
/// length is known only once it is built.  Filling it calls only
/// apparent_rate() and the arena, never derivatives(), so one buffer per
/// thread is never in use twice.
thread_local std::vector<Derivative> t_staging;

}  // namespace

Rate Semantics::apparent_rate(ProcessId process, ActionId action) {
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
  const Rate rate = compute_apparent(process, action);
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

Rate Semantics::compute_apparent(ProcessId process, ActionId action) {
  const ProcessNode& node = arena_.node(process);
  switch (node.op) {
    case Op::kStop:
      return Rate();
    case Op::kPrefix:
      return node.action == action ? node.rate : Rate();
    case Op::kChoice:
      return apparent_rate(node.left, action)
          .plus(apparent_rate(node.right, action), arena_.action_name(action));
    case Op::kHiding:
      // Activities of a hidden type appear as tau; their original type has
      // apparent rate zero.  tau itself aggregates the hidden activities.
      if (action == kTau) {
        Rate sum = apparent_rate(node.left, kTau);
        for (ActionId hidden : node.action_set) {
          sum = sum.plus(apparent_rate(node.left, hidden), "tau");
        }
        return sum;
      }
      if (set_contains(node.action_set, action)) return Rate();
      return apparent_rate(node.left, action);
    case Op::kCooperation: {
      const Rate left = apparent_rate(node.left, action);
      const Rate right = apparent_rate(node.right, action);
      if (action != kTau && set_contains(node.action_set, action)) {
        return Rate::min(left, right);
      }
      return left.plus(right, arena_.action_name(action));
    }
    case Op::kConstant: {
      if (currently_expanding(node.constant)) {
        throw util::ModelError(
            util::msg("unguarded recursion through constant '",
                      arena_.constant_name(node.constant), "'"));
      }
      ExpandingGuard guard(node.constant);
      return apparent_rate(arena_.body(node.constant), action);
    }
  }
  CHOREO_ASSERT(false);
  return Rate();
}

std::span<const Derivative> Semantics::derivatives(ProcessId process) {
  const List* list = list_of(process);
  return {list->items, list->size};
}

const Semantics::List* Semantics::list_of(ProcessId process) {
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

Semantics::List* Semantics::new_list(std::size_t size) {
  // One block: the header, then the items (sizeof(List) keeps them
  // aligned).
  static_assert(sizeof(List) % alignof(Derivative) == 0);
  void* block = store_.allocate(sizeof(List) + size * sizeof(Derivative),
                                alignof(List));
  auto* items = reinterpret_cast<Derivative*>(static_cast<std::byte*>(block) +
                                              sizeof(List));
  return new (block) List{items, size};
}

const Semantics::List* Semantics::compute_derivatives(ProcessId process) {
  static constexpr List kNone{nullptr, 0};
  const ProcessNode& node = arena_.node(process);
  switch (node.op) {
    case Op::kStop:
      return &kNone;
    case Op::kPrefix: {
      List* out = new_list(1);
      new (out->items) Derivative{node.action, node.rate, node.left};
      return out;
    }
    case Op::kChoice: {
      const std::span<const Derivative> left = derivatives(node.left);
      const std::span<const Derivative> right = derivatives(node.right);
      List* out = new_list(left.size() + right.size());
      std::uninitialized_copy(right.begin(), right.end(),
                              std::uninitialized_copy(left.begin(), left.end(),
                                                      out->items));
      return out;
    }
    case Op::kHiding: {
      const std::span<const Derivative> inner = derivatives(node.left);
      List* out = new_list(inner.size());
      for (std::size_t i = 0; i < inner.size(); ++i) {
        const Derivative& d = inner[i];
        const ActionId action =
            set_contains(node.action_set, d.action) ? kTau : d.action;
        new (out->items + i) Derivative{
            action, d.rate, arena_.hiding_normalised(d.target, node.action_set)};
      }
      return out;
    }
    case Op::kCooperation: {
      const std::span<const Derivative> left = derivatives(node.left);
      const std::span<const Derivative> right = derivatives(node.right);
      std::vector<Derivative>& out = t_staging;
      out.clear();
      // Independent moves (action outside the cooperation set; tau is never
      // in the set).
      for (const Derivative& d : left) {
        if (set_contains(node.action_set, d.action)) continue;
        out.push_back({d.action, d.rate,
                       arena_.cooperation_normalised(d.target, node.action_set,
                                                     node.right)});
      }
      for (const Derivative& d : right) {
        if (set_contains(node.action_set, d.action)) continue;
        out.push_back({d.action, d.rate,
                       arena_.cooperation_normalised(node.left, node.action_set,
                                                     d.target)});
      }
      // Shared moves: each pair of co-operating activities, scaled by the
      // apparent-rate law.
      for (ActionId shared : node.action_set) {
        const Rate apparent_left = apparent_rate(node.left, shared);
        const Rate apparent_right = apparent_rate(node.right, shared);
        if (apparent_left.is_zero() || apparent_right.is_zero()) continue;
        for (const Derivative& dl : left) {
          if (dl.action != shared) continue;
          for (const Derivative& dr : right) {
            if (dr.action != shared) continue;
            const Rate rate =
                cooperation_rate(dl.rate, apparent_left, dr.rate, apparent_right,
                                 arena_.action_name(shared));
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
      if (currently_expanding(node.constant)) {
        throw util::ModelError(
            util::msg("unguarded recursion through constant '",
                      arena_.constant_name(node.constant), "'"));
      }
      ExpandingGuard guard(node.constant);
      return list_of(arena_.body(node.constant));  // shares the body's list
    }
  }
  CHOREO_ASSERT(false);
  return &kNone;
}

}  // namespace choreo::pepa
