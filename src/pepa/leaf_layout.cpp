#include "pepa/leaf_layout.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>

#include "pepa/canonical.hpp"
#include "util/error.hpp"

namespace choreo::pepa {

namespace {

/// Closure terms between two budget checks, and the approximate bytes a
/// closure term holds in its table besides its moves (the term, its
/// offsets, error slot and representative, and its index entry).
constexpr std::size_t kCheckEvery = 1024;
constexpr std::size_t kBytesPerLocalTerm = 64;

bool is_composite(const ProcessArena& arena, ProcessId term) {
  const Op op = arena.node(term).op;
  return op == Op::kCooperation || op == Op::kHiding;
}

}  // namespace

LeafLayout::LeafLayout(Semantics& semantics, ProcessId system,
                       Canonicalizer* canonicalizer, std::size_t max_states,
                       util::Budget* budget) {
  const ProcessArena& arena = semantics.arena();
  add_node(arena, system, 0);

  // Leaves that must share a numbering are united: leaves with one initial
  // term (their closures are equal), and in a quotient the slot-wise leaves
  // of every sort group's members.
  std::vector<std::uint32_t> parent(leaves_.size());
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };
  std::unordered_map<ProcessId, std::uint32_t> first_with_term;
  for (std::uint32_t l = 0; l < leaves_.size(); ++l) {
    const auto [it, fresh] = first_with_term.emplace(initial_terms_[l], l);
    if (!fresh) unite(it->second, l);
  }
  if (canonicalizer != nullptr) {
    // Static shapes, children before parents (pre-order numbering puts a
    // node's children after it).
    std::vector<std::uint32_t> shape(nodes_.size(), 0);
    std::map<std::tuple<Kind, std::vector<ActionId>, std::uint32_t,
                        std::uint32_t>,
             std::uint32_t>
        shapes;
    for (std::size_t n = nodes_.size(); n-- > 0;) {
      const Node& node = nodes_[n];
      if (node.kind == Kind::kLeaf) continue;
      const std::uint32_t right =
          node.kind == Kind::kCooperation ? shape[node.right] : 0;
      const auto key =
          std::make_tuple(node.kind, *node.set, shape[node.left], right);
      shape[n] = shapes.emplace(key, static_cast<std::uint32_t>(shapes.size() + 1))
                     .first->second;
    }
    collect_groups(root(), shape);
    for (const Group& group : groups_) {
      const std::uint32_t first = nodes_[group.members[0]].first_leaf;
      for (std::size_t m = 1; m < group.members.size(); ++m) {
        for (std::uint32_t j = 0; j < group.width; ++j) {
          unite(first + j, nodes_[group.members[m]].first_leaf + j);
        }
      }
    }
  }

  std::vector<std::uint32_t> table_of(leaves_.size(), 0xFFFFFFFFu);
  std::vector<std::vector<ProcessId>> initial;
  for (std::uint32_t l = 0; l < leaves_.size(); ++l) {
    std::uint32_t& table = table_of[find(l)];
    if (table == 0xFFFFFFFFu) {
      table = static_cast<std::uint32_t>(initial.size());
      initial.emplace_back();
    }
    leaves_[l].table = table;
    initial[table].push_back(initial_terms_[l]);
  }
  tables_.resize(initial.size());
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    build_table(semantics, tables_[t], initial[t], canonicalizer, max_states,
                budget);
    for (std::uint32_t i = 0; i < tables_[t].representative.size(); ++i) {
      if (tables_[t].representative[i] != i) remaps_ = true;
    }
    truncated_ = truncated_ || tables_[t].truncated;
  }
  mark_raises();

  // Key geometry: fields left to right, a new word whenever a field would
  // straddle.
  std::size_t word = 0;
  std::size_t bit = 0;
  for (Leaf& leaf : leaves_) {
    const unsigned bits = tables_[leaf.table].bits;
    if (bit + bits > 64) {
      ++word;
      bit = 0;
    }
    leaf.word = static_cast<std::uint32_t>(word);
    leaf.shift = static_cast<std::uint32_t>(bit);
    leaf.field = bits == 0 ? 0 : (~std::uint64_t{0} >> (64 - bits));
    bit += bits;
    bits_ += bits;
  }
  words_ = word + 1;
  masks_.assign(nodes_.size() * words_, 0);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (std::uint32_t l = nodes_[n].first_leaf; l < nodes_[n].end_leaf; ++l) {
      masks_[n * words_ + leaves_[l].word] |= leaves_[l].field
                                              << leaves_[l].shift;
    }
  }
}

std::uint32_t LeafLayout::add_node(const ProcessArena& arena, ProcessId term,
                                   std::size_t depth) {
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  const auto first = static_cast<std::uint32_t>(leaves_.size());
  const ProcessNode& node = arena.node(term);
  if (node.op == Op::kCooperation || node.op == Op::kHiding) {
    if (node.op == Op::kCooperation) depth_ = std::max(depth_, ++depth);
    const std::uint32_t left = add_node(arena, node.left, depth);
    const std::uint32_t right =
        node.op == Op::kCooperation ? add_node(arena, node.right, depth) : 0;
    Node& built = nodes_[n];
    built.kind = node.op == Op::kCooperation ? Kind::kCooperation
                                             : Kind::kHiding;
    built.left = left;
    built.right = right;
    built.set = &node.action_set;
  } else {
    nodes_[n].leaf = static_cast<std::uint32_t>(leaves_.size());
    leaves_.emplace_back();
    initial_terms_.push_back(term);
  }
  nodes_[n].first_leaf = first;
  nodes_[n].end_leaf = static_cast<std::uint32_t>(leaves_.size());
  return n;
}

void LeafLayout::flatten_spine(std::uint32_t n,
                               const std::vector<ActionId>& set,
                               std::vector<std::uint32_t>& siblings) const {
  for (const std::uint32_t child : {nodes_[n].left, nodes_[n].right}) {
    const Node& node = nodes_[child];
    if (node.kind == Kind::kCooperation && *node.set == set) {
      flatten_spine(child, set, siblings);
    } else {
      siblings.push_back(child);
    }
  }
}

void LeafLayout::collect_groups(std::uint32_t n,
                                const std::vector<std::uint32_t>& shape) {
  const Node& node = nodes_[n];
  if (node.kind == Kind::kLeaf) return;
  if (node.kind == Kind::kHiding) {
    collect_groups(node.left, shape);
    return;
  }
  // `n` roots a maximal spine of cooperations over one set; its siblings
  // are sorted inner groups first.
  std::vector<std::uint32_t> siblings;
  flatten_spine(n, *node.set, siblings);
  for (const std::uint32_t sibling : siblings) collect_groups(sibling, shape);
  std::unordered_map<std::uint32_t, std::size_t> group_of_shape;
  std::vector<Group> found;
  for (const std::uint32_t sibling : siblings) {
    const auto [it, fresh] =
        group_of_shape.emplace(shape[sibling], found.size());
    if (fresh) {
      found.emplace_back();
      found.back().width =
          nodes_[sibling].end_leaf - nodes_[sibling].first_leaf;
    }
    found[it->second].members.push_back(sibling);
  }
  for (Group& group : found) {
    if (group.members.size() > 1) groups_.push_back(std::move(group));
  }
}

void LeafLayout::mark_raises() {
  // Per table, what its local terms' apparent rates of each action hold.
  enum : std::uint8_t { kActive = 1, kPassive = 2, kError = 4 };
  std::vector<std::unordered_map<ActionId, std::uint8_t>> held(tables_.size());
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    for (const Apparent& entry : tables_[t].apparent) {
      held[t][entry.action] |=
          entry.error ? kError : entry.rate.is_passive() ? kPassive : kActive;
    }
  }
  for (Node& node : nodes_) {
    if (node.kind != Kind::kCooperation) continue;
    node.raises = static_cast<std::uint32_t>(raises_.size());
    for (const ActionId action : *node.set) {
      for (const std::uint32_t operand : {node.left, node.right}) {
        std::uint8_t bits = 0;
        for (std::uint32_t l = nodes_[operand].first_leaf;
             l < nodes_[operand].end_leaf; ++l) {
          const auto& table = held[leaves_[l].table];
          const auto it = table.find(action);
          if (it != table.end()) bits |= it->second;
        }
        raises_.push_back(
            (bits & kError) != 0 || (bits & (kActive | kPassive)) ==
                                        (kActive | kPassive));
      }
    }
  }
}

void LeafLayout::build_table(Semantics& semantics, Table& table,
                             const std::vector<ProcessId>& initial,
                             Canonicalizer* canonicalizer,
                             std::size_t max_states, util::Budget* budget) {
  const ProcessArena& arena = semantics.arena();
  struct RawMove {
    ActionId action;
    Rate rate;
    ProcessId target;
  };
  // Breadth-first closure in discovery order; ranked afterwards.  A term
  // is expanded when it is its own representative (always, for the full
  // space); only expanded composites count against the bound.
  std::vector<ProcessId> found;
  std::vector<ProcessId> representatives;
  std::unordered_map<ProcessId, std::uint32_t> discovered;
  std::vector<std::uint32_t> raw_begin;
  std::vector<RawMove> raw;
  std::vector<std::exception_ptr> errors;
  const std::size_t bound =
      std::min<std::size_t>(max_states, std::size_t{0x7FFFFFFFu});
  std::size_t composites = 0;
  // Reaches `term`, then its representative right after it: the order in
  // which the engine, canonicalizing each target, meets them.
  auto reach = [&](ProcessId term) {
    while (!discovered.contains(term)) {
      const ProcessId representative =
          canonicalizer != nullptr ? canonicalizer->canonical(term) : term;
      if (representative == term && is_composite(arena, term)) {
        if (composites == bound) {
          table.truncated = true;
          return;
        }
        ++composites;
      }
      discovered.emplace(term, static_cast<std::uint32_t>(found.size()));
      found.push_back(term);
      representatives.push_back(representative);
      term = representative;
    }
  };
  std::size_t charged_terms = 0;
  std::size_t charged_moves = 0;
  auto charge = [&](std::size_t terms) {
    if (budget == nullptr) return;
    budget->charge_states(0, (terms - charged_terms) * kBytesPerLocalTerm +
                                 (raw.size() - charged_moves) *
                                     sizeof(LocalMove));
    charged_terms = terms;
    charged_moves = raw.size();
  };
  for (const ProcessId term : initial) reach(term);
  for (std::size_t i = 0; i < found.size(); ++i) {
    if (budget != nullptr && i % kCheckEvery == kCheckEvery - 1) {
      charge(i);
      budget->check("derive");
    }
    raw_begin.push_back(static_cast<std::uint32_t>(raw.size()));
    errors.emplace_back();
    if (representatives[i] != found[i]) continue;
    try {
      for (const Derivative& move : semantics.derivatives(found[i])) {
        raw.push_back({move.action, move.rate, move.target});
      }
    } catch (...) {
      errors[i] = std::current_exception();
      raw.resize(raw_begin[i]);
    }
    for (std::size_t m = raw_begin[i]; m < raw.size(); ++m) {
      reach(raw[m].target);
    }
  }
  raw_begin.push_back(static_cast<std::uint32_t>(raw.size()));
  charge(found.size());

  // Local indices follow structural order, so comparing two leaves of one
  // table compares their terms the way structural_compare does.
  std::vector<std::uint32_t> order(found.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return structural_compare(arena, found[a], found[b]) < 0;
            });
  std::vector<std::uint32_t> rank(found.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;

  for (auto& [term, index] : discovered) index = rank[index];
  table.index = std::move(discovered);
  const auto outside = static_cast<std::uint32_t>(found.size());
  auto local_of = [&table, outside](ProcessId term) {
    const auto it = table.index.find(term);
    return it == table.index.end() ? outside : it->second;
  };
  table.terms.reserve(found.size());
  table.move_begin.reserve(found.size() + 1);
  table.moves.reserve(raw.size());
  table.errors.reserve(found.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) {
    const std::uint32_t i = order[r];
    table.terms.push_back(found[i]);
    table.move_begin.push_back(static_cast<std::uint32_t>(table.moves.size()));
    for (std::uint32_t m = raw_begin[i]; m < raw_begin[i + 1]; ++m) {
      table.moves.push_back(
          {raw[m].action, raw[m].rate, local_of(raw[m].target)});
    }
    table.errors.push_back(errors[i]);
    if (canonicalizer != nullptr) {
      table.representative.push_back(local_of(representatives[i]));
    }
  }
  table.move_begin.push_back(static_cast<std::uint32_t>(table.moves.size()));

  // Apparent rates of the actions each term has moves of, in first-move
  // order; what computing one raises is kept for the state that asks.
  for (std::uint32_t r = 0; r < table.terms.size(); ++r) {
    const std::uint32_t begin =
        static_cast<std::uint32_t>(table.apparent.size());
    table.apparent_begin.push_back(begin);
    for (const LocalMove& move : table.moves_of(r)) {
      bool seen = false;
      for (std::size_t a = begin; a < table.apparent.size(); ++a) {
        seen = seen || table.apparent[a].action == move.action;
      }
      if (seen) continue;
      Apparent entry{move.action, Rate(), nullptr};
      try {
        entry.rate = semantics.apparent_rate(table.terms[r], move.action);
      } catch (...) {
        entry.error = std::current_exception();
      }
      table.apparent.push_back(std::move(entry));
    }
  }
  table.apparent_begin.push_back(static_cast<std::uint32_t>(table.apparent.size()));
  table.bits = static_cast<unsigned>(
      std::bit_width(table.truncated ? found.size() : found.size() - 1));
}

void LeafLayout::encode_initial(std::uint64_t* key) const {
  for (std::uint32_t l = 0; l < leaves_.size(); ++l) {
    set_local(key, l, tables_[leaves_[l].table].index.at(initial_terms_[l]));
  }
}

bool LeafLayout::outside(const std::uint64_t* key) const {
  for (std::uint32_t l = 0; l < leaves_.size(); ++l) {
    const Table& table = tables_[leaves_[l].table];
    if (table.truncated && local(key, l) == table.terms.size()) return true;
  }
  return false;
}

bool LeafLayout::canonicalize(std::uint64_t* key) const {
  bool changed = false;
  if (remaps_) {
    for (std::uint32_t l = 0; l < leaves_.size(); ++l) {
      const Table& table = tables_[leaves_[l].table];
      const std::uint32_t from = local(key, l);
      if (from == table.terms.size()) continue;  // outside the closure
      const std::uint32_t to = table.representative[from];
      if (to != from) {
        set_local(key, l, to);
        changed = true;
      }
    }
  }
  thread_local std::vector<std::uint32_t> fields;
  thread_local std::vector<std::uint32_t> order;
  auto store = [&](std::size_t m, std::size_t j, std::uint32_t value,
                   const Group& group) {
    const auto l = nodes_[group.members[m]].first_leaf +
                   static_cast<std::uint32_t>(j);
    if (value == local(key, l)) return;
    set_local(key, l, value);
    changed = true;
  };
  for (const Group& group : groups_) {
    const std::size_t members = group.members.size();
    const std::size_t width = group.width;
    fields.resize(members * width);
    for (std::size_t m = 0; m < members; ++m) {
      const std::uint32_t first = nodes_[group.members[m]].first_leaf;
      for (std::size_t j = 0; j < width; ++j) {
        fields[m * width + j] = local(key, first + static_cast<std::uint32_t>(j));
      }
    }
    if (width == 1) {
      // Single-leaf members (replica populations) sort by rank directly.
      if (std::is_sorted(fields.begin(), fields.end())) continue;
      std::sort(fields.begin(), fields.end());
      for (std::size_t m = 0; m < members; ++m) store(m, 0, fields[m], group);
      continue;
    }
    auto row_less = [width](std::size_t a, std::size_t b) {
      return std::lexicographical_compare(
          fields.begin() + static_cast<std::ptrdiff_t>(a * width),
          fields.begin() + static_cast<std::ptrdiff_t>((a + 1) * width),
          fields.begin() + static_cast<std::ptrdiff_t>(b * width),
          fields.begin() + static_cast<std::ptrdiff_t>((b + 1) * width));
    };
    order.resize(members);
    std::iota(order.begin(), order.end(), 0u);
    if (std::is_sorted(order.begin(), order.end(), row_less)) continue;
    std::sort(order.begin(), order.end(), row_less);
    for (std::size_t m = 0; m < members; ++m) {
      for (std::size_t j = 0; j < width; ++j) {
        store(m, j, fields[order[m] * width + j], group);
      }
    }
  }
  return changed;
}

ProcessId LeafLayout::render(ProcessArena& arena,
                             const std::uint64_t* key) const {
  return render_node(arena, root(), key);
}

ProcessId LeafLayout::render_node(ProcessArena& arena, std::uint32_t n,
                                  const std::uint64_t* key) const {
  const Node& node = nodes_[n];
  switch (node.kind) {
    case Kind::kLeaf:
      return local_term(key, node.leaf);
    case Kind::kCooperation: {
      const ProcessId left = render_node(arena, node.left, key);
      const ProcessId right = render_node(arena, node.right, key);
      return arena.cooperation_normalised(left, *node.set, right);
    }
    case Kind::kHiding:
      return arena.hiding_normalised(render_node(arena, node.left, key),
                                     *node.set);
  }
  CHOREO_ASSERT(false);
  return kInvalidProcess;
}

bool LeafLayout::decompose(const ProcessArena& arena, ProcessId term,
                           std::uint64_t* key) const {
  return decompose_node(arena, root(), term, key);
}

bool LeafLayout::decompose_node(const ProcessArena& arena, std::uint32_t n,
                                ProcessId term, std::uint64_t* key) const {
  const Node& node = nodes_[n];
  if (node.kind == Kind::kLeaf) {
    const Table& table = tables_[leaves_[node.leaf].table];
    const auto it = table.index.find(term);
    if (it == table.index.end()) return false;
    set_local(key, node.leaf, it->second);
    return true;
  }
  const ProcessNode& found = arena.node(term);
  const Op op =
      node.kind == Kind::kCooperation ? Op::kCooperation : Op::kHiding;
  if (found.op != op || found.action_set != *node.set) return false;
  if (!decompose_node(arena, node.left, found.left, key)) return false;
  return node.kind == Kind::kHiding ||
         decompose_node(arena, node.right, found.right, key);
}

}  // namespace choreo::pepa
