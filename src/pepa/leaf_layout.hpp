// The packed leaf-vector state of a PEPA derive: built by pepa::StateSpace,
// and read by the compositions over it (pepa/leaf_moves.hpp), the derive's
// and a sweep's rate-tape recording.
//
// After expand_static the system equation is a fixed tree of cooperation
// and hiding nodes over leaves, and every derivative keeps that tree: a
// successor only changes the local states of some leaves.  So a state is
// the vector of its leaves' local states — the numerical representation of
// Ding & Hillston, and the tuple of automaton states that state-machine
// extractions generate.  A LeafLayout fixes, once per derive:
//
//   - the static tree: the cooperation and hiding nodes of the initial
//     term; every other subterm is a leaf slot, numbered left to right, so
//     each subtree owns a contiguous run of leaves.  A leaf's local state
//     may be any term, including one that reaches a cooperation under a
//     prefix (dynamic structure): Semantics::derivatives and apparent_rate
//     handle such terms unchanged, so there is no special case;
//   - one local table per group of leaves that must share a numbering: the
//     breadth-first closure of their initial terms under
//     Semantics::derivatives, ordered by structural_compare, with every
//     local term's moves (action, rate, target local index) in derivative
//     order, and the apparent rates of the actions it has moves of (the
//     only ones that can be non-zero).  A local term whose derivatives or
//     apparent rates throw records the exception, so the closure raises
//     nothing itself: the first global state that holds such a term does,
//     as the term derive would.  Terms other than cooperations and hidings
//     are subterms of the initial terms and of constant bodies, so a
//     sequential leaf's closure is finite and is built whole: a move that
//     synchronisation blocks costs nothing, and the engine's global count
//     alone raises the state-space explosion.  Only composites (a dynamic
//     leaf's local states) can grow a closure without end, so at most
//     max_states of them are expanded.  A move past that bound targets the
//     index terms.size(); a state holding that index raises the explosion
//     when it is committed, unless the engine's own count trips first.  A
//     top-level dynamic system is explored in its closure's own
//     breadth-first order, so it fails exactly where the term derive does;
//     a dynamic leaf under a cooperation that blocks part of its closure
//     can fail a space that fits the bound.  The closure checks and charges
//     the derive's budget as it grows;
//   - the key: each leaf's local index in bit_width(table size - 1) bits,
//     packed into 64-bit words; no field straddles a word;
//   - per cooperation, set action and operand, whether computing the
//     operand's apparent rate of the action could raise (may_raise()), so
//     a derive asks an apparent rate no pair uses only when it could.
//
// For quotient-direct derivation the tree is the Canonicalizer's canonical
// initial term, and the layout adds the sort: within each maximal same-set
// cooperation spine the siblings of one static shape form a sort group,
// whose slot-wise leaves share one union table (closed under Canonicalizer
// representatives as well as derivatives).  canonicalize() maps every leaf
// to its local term's representative, then, bottom-up, sorts each group's
// members lexicographically by their leaves' structural ranks — the order
// structural_compare gives the member terms.  Stored states hold only
// representatives, so a quotient closure expands only those: another term
// records its representative and no moves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <unordered_map>
#include <vector>

#include "pepa/ast.hpp"
#include "pepa/semantics.hpp"
#include "util/budget.hpp"

namespace choreo::pepa {

class Canonicalizer;

/// Hash of a packed key's words.
inline std::uint64_t hash_key_words(const std::uint64_t* words,
                                    std::size_t count) noexcept {
  std::uint64_t hash = count;
  for (std::size_t w = 0; w < count; ++w) {
    hash = (hash ^ words[w]) * 0x9e3779b97f4a7c15ULL;
    hash ^= hash >> 29;
  }
  return hash;
}

/// A packed key of one word, held inline: moving or copying one never
/// allocates.
struct WordKey {
  std::uint64_t word = 0;

  explicit WordKey(std::size_t /*word_count*/) {}
  std::size_t size() const noexcept { return 1; }
  std::uint64_t* data() noexcept { return &word; }
  const std::uint64_t* data() const noexcept { return &word; }
  bool operator==(const WordKey&) const = default;
};

/// A packed key of more than one word, on the heap.
struct HeapKey {
  std::vector<std::uint64_t> words;

  explicit HeapKey(std::size_t word_count) : words(word_count, 0) {}
  std::size_t size() const noexcept { return words.size(); }
  std::uint64_t* data() noexcept { return words.data(); }
  const std::uint64_t* data() const noexcept { return words.data(); }
  bool operator==(const HeapKey&) const = default;
};

/// The engine's hash for a packed key type.
struct KeyHash {
  template <typename Key>
  std::uint64_t operator()(const Key& key) const noexcept {
    return hash_key_words(key.data(), key.size());
  }
};

class LeafLayout {
 public:
  enum class Kind : std::uint8_t { kLeaf, kCooperation, kHiding };

  struct Node {
    Kind kind = Kind::kLeaf;
    /// Cooperation: left operand; hiding: the hidden process.
    std::uint32_t left = 0;
    /// Cooperation: right operand.
    std::uint32_t right = 0;
    /// Leaf slot (leaves only).
    std::uint32_t leaf = 0;
    /// The leaves [first_leaf, end_leaf) of this subtree.
    std::uint32_t first_leaf = 0;
    std::uint32_t end_leaf = 0;
    /// Cooperation or hiding set: the arena node's own, sorted.
    const std::vector<ActionId>* set = nullptr;
    /// Cooperation: where its set's entries start in the apparent-rate
    /// raise bits (see may_raise()).
    std::uint32_t raises = 0;
  };

  struct LocalMove {
    ActionId action;
    Rate rate;
    std::uint32_t target;
  };

  /// A local term's apparent rate of one action it has moves of, with what
  /// Semantics::apparent_rate raised computing it (rethrown when asked).
  struct Apparent {
    ActionId action;
    Rate rate;
    std::exception_ptr error;
  };

  struct Table {
    /// Local index -> local term, in structural order.
    std::vector<ProcessId> terms;
    /// moves[move_begin[i], move_begin[i + 1]) are term i's, in
    /// Semantics::derivatives order; a target terms.size() is outside the
    /// closure (truncated tables only).
    std::vector<std::uint32_t> move_begin;
    std::vector<LocalMove> moves;
    /// What expanding term i raises, or null.
    std::vector<std::exception_ptr> errors;
    /// Quotient only: the local index of term i's Canonicalizer
    /// representative (terms.size() when it is outside the closure).
    std::vector<std::uint32_t> representative;
    /// Local term -> local index.
    std::unordered_map<ProcessId, std::uint32_t> index;
    /// apparent[apparent_begin[i], apparent_begin[i + 1]) are term i's,
    /// one per action its moves carry.
    std::vector<std::uint32_t> apparent_begin;
    std::vector<Apparent> apparent;
    /// Key bits per leaf of this table (room for terms.size() itself when
    /// truncated).
    unsigned bits = 0;
    /// The closure stopped at the bound on expanded composites.
    bool truncated = false;

    std::span<const LocalMove> moves_of(std::uint32_t local) const {
      return std::span<const LocalMove>(moves).subspan(
          move_begin[local], move_begin[local + 1] - move_begin[local]);
    }

    /// Semantics::apparent_rate of term `local`.  A term with no move of
    /// `action` has apparent rate zero, and computing it cannot raise.
    Rate apparent_rate(std::uint32_t local, ActionId action) const {
      for (std::uint32_t a = apparent_begin[local];
           a < apparent_begin[local + 1]; ++a) {
        if (apparent[a].action != action) continue;
        if (apparent[a].error) std::rethrow_exception(apparent[a].error);
        return apparent[a].rate;
      }
      return Rate();
    }
  };

  struct Leaf {
    std::uint32_t table = 0;
    std::uint32_t word = 0;
    std::uint32_t shift = 0;
    /// (1 << bits) - 1.
    std::uint64_t field = 0;
  };

  /// Lays out the derive of `system`, which must be expand_static'ed (and,
  /// for quotient-direct derivation, canonical under `canonicalizer`).
  /// `canonicalizer` is null for the full space.  The closures are checked
  /// against and charged to `budget` (when not null) as they grow.
  LeafLayout(Semantics& semantics, ProcessId system,
             Canonicalizer* canonicalizer, std::size_t max_states,
             util::Budget* budget);

  /// Words per key (at least 1) and the bits they use.
  std::size_t words() const noexcept { return words_; }
  std::size_t bits() const noexcept { return bits_; }
  /// The most cooperation nodes on one root-to-leaf path.
  std::size_t depth() const noexcept { return depth_; }
  /// Some closure stopped at the bound (see outside()).
  bool truncated() const noexcept { return truncated_; }

  std::uint32_t root() const noexcept { return 0; }
  const Node& node(std::uint32_t n) const { return nodes_[n]; }
  std::size_t leaf_count() const noexcept { return leaves_.size(); }
  const Leaf& leaf(std::uint32_t l) const { return leaves_[l]; }
  std::size_t table_count() const noexcept { return tables_.size(); }
  const Table& table(std::uint32_t t) const { return tables_[t]; }
  /// Whether computing the apparent rate of the s-th action of cooperation
  /// `node`'s set in its left (or right) operand could raise.  It can when
  /// some leaf table under the operand records an apparent-rate error for
  /// the action, or when those tables hold both active and passive rates
  /// for it (a sum of the two raises); otherwise every sum is of one kind.
  bool may_raise(const Node& node, std::size_t s, bool right) const {
    return raises_[node.raises + 2 * s + (right ? 1 : 0)] != 0;
  }

  /// The key bits of node n's leaves, `words()` words.
  const std::uint64_t* mask(std::uint32_t n) const {
    return masks_.data() + static_cast<std::size_t>(n) * words_;
  }

  std::uint32_t local(const std::uint64_t* key, std::uint32_t l) const {
    const Leaf& leaf = leaves_[l];
    return static_cast<std::uint32_t>((key[leaf.word] >> leaf.shift) &
                                      leaf.field);
  }
  void set_local(std::uint64_t* key, std::uint32_t l,
                 std::uint32_t value) const {
    const Leaf& leaf = leaves_[l];
    key[leaf.word] = (key[leaf.word] & ~(leaf.field << leaf.shift)) |
                     (std::uint64_t{value} << leaf.shift);
  }
  ProcessId local_term(const std::uint64_t* key, std::uint32_t l) const {
    return tables_[leaves_[l].table].terms[local(key, l)];
  }

  /// Writes the initial state's key (words() zeroed words).
  void encode_initial(std::uint64_t* key) const;

  /// Whether some leaf of `key` is outside its truncated closure.
  bool outside(const std::uint64_t* key) const;

  /// Rewrites `key` to its sort-canonical representative; returns whether
  /// it changed.  Quotient layouts only; thread-safe.
  bool canonicalize(std::uint64_t* key) const;

  /// The state's term, interned in `arena` (the arena of the derive).
  ProcessId render(ProcessArena& arena, const std::uint64_t* key) const;

  /// Writes the key of `term` (words() zeroed words) when it has this
  /// layout's tree shape and every leaf term is in its table.
  bool decompose(const ProcessArena& arena, ProcessId term,
                 std::uint64_t* key) const;

 private:
  struct Group {
    /// Member subtree roots, in sibling order.
    std::vector<std::uint32_t> members;
    /// Leaves per member.
    std::uint32_t width = 0;
  };

  std::uint32_t add_node(const ProcessArena& arena, ProcessId term,
                         std::size_t depth);
  void collect_groups(std::uint32_t n, const std::vector<std::uint32_t>& shape);
  void flatten_spine(std::uint32_t n, const std::vector<ActionId>& set,
                     std::vector<std::uint32_t>& siblings) const;
  void mark_raises();
  void build_table(Semantics& semantics, Table& table,
                   const std::vector<ProcessId>& initial,
                   Canonicalizer* canonicalizer, std::size_t max_states,
                   util::Budget* budget);
  ProcessId render_node(ProcessArena& arena, std::uint32_t n,
                        const std::uint64_t* key) const;
  bool decompose_node(const ProcessArena& arena, std::uint32_t n,
                      ProcessId term, std::uint64_t* key) const;

  std::vector<Node> nodes_;
  std::vector<Leaf> leaves_;
  std::vector<ProcessId> initial_terms_;
  std::vector<Table> tables_;
  std::vector<std::uint64_t> masks_;
  /// Per cooperation set entry, left then right operand: may_raise().
  std::vector<std::uint8_t> raises_;
  /// Sort groups, inner before outer (quotient only).
  std::vector<Group> groups_;
  /// Some representative differs from its term (quotient only).
  bool remaps_ = false;
  bool truncated_ = false;
  std::size_t words_ = 1;
  std::size_t bits_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace choreo::pepa
