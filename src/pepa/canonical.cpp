#include "pepa/canonical.hpp"

#include <algorithm>
#include <vector>

namespace choreo::pepa {

namespace {

int compare_sets(const std::vector<ActionId>& a,
                 const std::vector<ActionId>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int compare_rates(const Rate& a, const Rate& b) {
  if (a.is_passive() != b.is_passive()) return a.is_passive() ? 1 : -1;
  if (a.value() != b.value()) return a.value() < b.value() ? -1 : 1;
  return 0;
}

}  // namespace

int structural_compare(const ProcessArena& arena, ProcessId a, ProcessId b) {
  // Hash-consing: identical ids are identical terms — and large equal
  // subtrees always share an id within one arena, so this short-circuit is
  // what keeps sibling sorting cheap on replicated populations.
  if (a == b) return 0;
  const ProcessNode& na = arena.node(a);
  const ProcessNode& nb = arena.node(b);
  if (na.op != nb.op) {
    return static_cast<int>(na.op) < static_cast<int>(nb.op) ? -1 : 1;
  }
  switch (na.op) {
    case Op::kStop:
      return 0;
    case Op::kConstant:
      if (na.constant != nb.constant) {
        return na.constant < nb.constant ? -1 : 1;
      }
      return 0;
    case Op::kPrefix: {
      if (na.action != nb.action) return na.action < nb.action ? -1 : 1;
      if (const int rates = compare_rates(na.rate, nb.rate); rates != 0) {
        return rates;
      }
      return structural_compare(arena, na.left, nb.left);
    }
    case Op::kChoice: {
      if (const int left = structural_compare(arena, na.left, nb.left);
          left != 0) {
        return left;
      }
      return structural_compare(arena, na.right, nb.right);
    }
    case Op::kCooperation: {
      if (const int sets = compare_sets(na.action_set, nb.action_set);
          sets != 0) {
        return sets;
      }
      if (const int left = structural_compare(arena, na.left, nb.left);
          left != 0) {
        return left;
      }
      return structural_compare(arena, na.right, nb.right);
    }
    case Op::kHiding: {
      if (const int sets = compare_sets(na.action_set, nb.action_set);
          sets != 0) {
        return sets;
      }
      return structural_compare(arena, na.left, nb.left);
    }
  }
  return 0;
}

namespace {

/// Rebuilds a sorted sibling run as the balanced fold `families.cpp` uses
/// (ceil on the left), so canonical terms keep logarithmic depth and the
/// canonical form of an already-canonical population is itself.
ProcessId rebuild_balanced(ProcessArena& arena,
                           const std::vector<ProcessId>& siblings,
                           std::size_t begin, std::size_t count,
                           const std::vector<ActionId>& set) {
  if (count == 1) return siblings[begin];
  const std::size_t half = count / 2;
  return arena.cooperation_normalised(
      rebuild_balanced(arena, siblings, begin, count - half, set), set,
      rebuild_balanced(arena, siblings, begin + count - half, half, set));
}

}  // namespace

ProcessId Canonicalizer::canonical(ProcessId term) {
  if (term == kInvalidProcess) return term;
  std::atomic<ProcessId>& slot = memo_[term];
  if (const ProcessId hit = slot.load(std::memory_order_acquire); hit != 0) {
    return hit - 1;
  }
  const ProcessNode& node = arena_.node(term);
  ProcessId result = term;
  switch (node.op) {
    case Op::kCooperation: {
      // Flatten the maximal spine of cooperations sharing this exact action
      // set (commutative and associative up to strong equivalence only
      // within one set), canonicalize and sort the siblings, and rebuild
      // balanced.  The flatten is iterative: a textual population can be a
      // left-deep fold far deeper than the stack allows.
      std::vector<ProcessId> siblings;
      std::vector<ProcessId> pending{term};
      while (!pending.empty()) {
        const ProcessId current = pending.back();
        pending.pop_back();
        const ProcessNode& n = arena_.node(current);
        if (n.op == Op::kCooperation && n.action_set == node.action_set) {
          pending.push_back(n.right);
          pending.push_back(n.left);
        } else {
          siblings.push_back(canonical(current));
        }
      }
      std::sort(siblings.begin(), siblings.end(),
                [this](ProcessId x, ProcessId y) {
                  return structural_less(arena_, x, y);
                });
      result = rebuild_balanced(arena_, siblings, 0, siblings.size(),
                                node.action_set);
      break;
    }
    case Op::kHiding: {
      const ProcessId sub = canonical(node.left);
      if (sub != node.left) {
        result = arena_.hiding_normalised(sub, node.action_set);
      }
      break;
    }
    default:
      // Sequential terms (prefix/choice/constant/stop) have no reorderable
      // composition below them in well-formed PEPA: identity.
      break;
  }
  ProcessId unset = 0;
  slot.compare_exchange_strong(unset, result + 1, std::memory_order_acq_rel,
                               std::memory_order_acquire);
  return result;
}

}  // namespace choreo::pepa
