// The successor function of packed leaf-vector states (pepa/leaf_layout.hpp),
// generic over the rate algebra it composes in.
//
// LeafMoves composes each leaf's local moves over the static tree exactly as
// the SOS walk (pepa/semantics.hpp) composes a term's: the same emission
// order, the same apparent-rate recursion and the same order of rate
// computations.  Where the term walk computes a rate, LeafMoves asks its
// algebra the term walk's operations but prefix() (zero(), is_zero(),
// plus(), min(), cooperation() and context()), and for the leaves:
//
//   - leaf_rates(table, local): the rates of a local term's moves, by move;
//   - leaf_apparent(table, local, action): a local term's apparent rate.
//
// A zero operand of a sum is skipped before plus() is asked, and an apparent
// rate no pair uses is asked only when computing it could raise
// (LeafLayout::may_raise), as the derive does.  The two algebras are those
// of the term walk with the leaves added: LeafRates below, RateAlgebra's
// arithmetic over the rates the layout's tables hold, which is what
// StateSpace::derive runs; and the sweep's LeafTape (src/sweep/runner.cpp),
// the TapeRecorder's folds over the nodes a tape walk of the leaves' local
// terms gives, so that each derived transition gets the node of its rate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <vector>

#include "pepa/leaf_layout.hpp"
#include "pepa/rate.hpp"
#include "util/error.hpp"

namespace choreo::pepa {

/// The derive's rate algebra: RateAlgebra's arithmetic, the leaves' rates
/// read from the layout's tables.  Stateless, so lanes share one.
class LeafRates : public RateAlgebra {
 public:
  /// A local term's move rates, indexed by move.
  struct LocalRates {
    const LeafLayout::LocalMove* moves;
    const Rate& operator[](std::size_t m) const { return moves[m].rate; }
  };

  LeafRates(const LeafLayout& layout, const ProcessArena& arena)
      : RateAlgebra(arena), layout_(layout) {}

  LocalRates leaf_rates(std::uint32_t table, std::uint32_t local) const {
    const LeafLayout::Table& t = layout_.table(table);
    return {t.moves.data() + t.move_begin[local]};
  }
  Rate leaf_apparent(std::uint32_t table, std::uint32_t local,
                     ActionId action) const {
    return layout_.table(table).apparent_rate(local, action);
  }

 private:
  const LeafLayout& layout_;
};

/// The moves of packed states of type Key (WordKey or HeapKey), each rate a
/// value of Algebra.  Thread-safe when the algebra's calls are.
template <typename Key, typename Algebra>
class LeafMoves {
 public:
  using Value = typename Algebra::Value;

  struct Move {
    ActionId action;
    Value rate;
    Key target;
  };

  LeafMoves(const LeafLayout& layout, Algebra& algebra)
      : layout_(layout), algebra_(algebra) {}

  /// The moves of `source`, in a per-thread buffer that the next call on
  /// the same thread reuses.
  std::span<const Move> operator()(const Key& source) const {
    thread_local std::vector<Move> moves;
    // Operand moves of the cooperations, one buffer per nesting depth.
    thread_local std::vector<std::vector<Move>> operands;
    if (operands.size() <= layout_.depth()) operands.resize(layout_.depth() + 1);
    moves.clear();
    compose(layout_.root(), 0, source, operands, moves);
    return moves;
  }

 private:
  using Buffers = std::vector<std::vector<Move>>;
  using Context = typename Algebra::Context;

  /// Appends node n's moves from `source` to `out`; a cooperation below
  /// composes its operands in operands[depth].
  void compose(std::uint32_t n, std::size_t depth, const Key& source,
               Buffers& operands, std::vector<Move>& out) const {
    const LeafLayout::Node& node = layout_.node(n);
    switch (node.kind) {
      case LeafLayout::Kind::kLeaf: {
        const std::uint32_t t = layout_.leaf(node.leaf).table;
        const LeafLayout::Table& table = layout_.table(t);
        const std::uint32_t local = layout_.local(source.data(), node.leaf);
        if (table.errors[local]) std::rethrow_exception(table.errors[local]);
        const std::span<const LeafLayout::LocalMove> moves =
            table.moves_of(local);
        const auto rates = algebra_.leaf_rates(t, local);
        for (std::size_t m = 0; m < moves.size(); ++m) {
          out.push_back({moves[m].action, rates[m], source});
          layout_.set_local(out.back().target.data(), node.leaf,
                            moves[m].target);
        }
        return;
      }
      case LeafLayout::Kind::kHiding: {
        const std::size_t begin = out.size();
        compose(node.left, depth, source, operands, out);
        for (std::size_t i = begin; i < out.size(); ++i) {
          if (set_contains(*node.set, out[i].action)) out[i].action = kTau;
        }
        return;
      }
      case LeafLayout::Kind::kCooperation:
        if (node.set->empty()) {
          // Over the empty set every operand move is independent, in order.
          compose(node.left, depth, source, operands, out);
          compose(node.right, depth, source, operands, out);
        } else {
          compose_cooperation(node, depth, source, operands, out);
        }
        return;
    }
  }

  void compose_cooperation(const LeafLayout::Node& node, std::size_t depth,
                           const Key& source, Buffers& operands,
                           std::vector<Move>& out) const {
    std::vector<Move>& both = operands[depth];
    both.clear();
    compose(node.left, depth + 1, source, operands, both);
    const std::size_t middle = both.size();
    compose(node.right, depth + 1, source, operands, both);
    const std::vector<ActionId>& set = *node.set;
    // The independent moves of each side, then the shared pairs.
    for (const Move& move : both) {
      if (!set_contains(set, move.action)) out.push_back(move);
    }
    const std::uint64_t* right_mask = layout_.mask(node.right);
    auto offers = [&both](std::size_t from, std::size_t to, ActionId action) {
      for (std::size_t i = from; i < to; ++i) {
        if (both[i].action == action) return true;
      }
      return false;
    };
    for (std::size_t s = 0; s < set.size(); ++s) {
      const ActionId shared = set[s];
      // An operand with no move of the action has apparent rate zero and
      // cannot raise computing it, so only an offering operand is asked.
      // When only one operand offers, no pair forms, and its apparent rate
      // is asked only if computing it could raise — the one effect the
      // term derive's unconditional recursion has there.
      const bool left_offers = offers(0, middle, shared);
      const bool right_offers = offers(middle, both.size(), shared);
      if (!left_offers && !right_offers) continue;
      if (left_offers != right_offers &&
          !layout_.may_raise(node, s, right_offers)) {
        continue;
      }
      Context context = algebra_.context(shared);
      const Value left_rate = left_offers
                                  ? apparent(node.left, source, shared, context)
                                  : Algebra::zero();
      const Value right_rate =
          right_offers ? apparent(node.right, source, shared, context)
                       : Algebra::zero();
      if (Algebra::is_zero(left_rate) || Algebra::is_zero(right_rate)) {
        continue;
      }
      for (std::size_t i = 0; i < middle; ++i) {
        if (both[i].action != shared) continue;
        for (std::size_t j = middle; j < both.size(); ++j) {
          if (both[j].action != shared) continue;
          Move& pair = out.emplace_back(
              Move{shared,
                   algebra_.cooperation(both[i].rate, left_rate, both[j].rate,
                                        right_rate, context),
                   both[i].target});
          // The right operand's leaves move as in the right move.
          std::uint64_t* target = pair.target.data();
          const std::uint64_t* right = both[j].target.data();
          for (std::size_t w = 0; w < pair.target.size(); ++w) {
            target[w] = (target[w] & ~right_mask[w]) | (right[w] & right_mask[w]);
          }
        }
      }
    }
  }

  /// The term walk's compute_apparent over the static tree, the leaves'
  /// terms' rates asked of the algebra.  Asked only for a cooperation set's
  /// actions, never tau.  A zero operand of a sum is skipped: Rate::plus
  /// returns the other operand as it is.
  Value apparent(std::uint32_t n, const Key& source, ActionId action,
                 Context context) const {
    const LeafLayout::Node& node = layout_.node(n);
    switch (node.kind) {
      case LeafLayout::Kind::kLeaf:
        return algebra_.leaf_apparent(
            layout_.leaf(node.leaf).table,
            layout_.local(source.data(), node.leaf), action);
      case LeafLayout::Kind::kHiding:
        if (set_contains(*node.set, action)) return Algebra::zero();
        return apparent(node.left, source, action, context);
      case LeafLayout::Kind::kCooperation: {
        const Value left = apparent(node.left, source, action, context);
        const Value right = apparent(node.right, source, action, context);
        if (set_contains(*node.set, action)) return algebra_.min(left, right);
        if (Algebra::is_zero(left)) return right;
        if (Algebra::is_zero(right)) return left;
        return algebra_.plus(left, right, context);
      }
    }
    CHOREO_ASSERT(false);
    return Algebra::zero();
  }

  const LeafLayout& layout_;
  Algebra& algebra_;
};

}  // namespace choreo::pepa
