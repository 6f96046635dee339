#include "pepa/ast.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "util/error.hpp"

namespace choreo::pepa {

namespace {

void hash_combine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

template <typename Node>
std::size_t hash_node(const Node& node) {
  std::size_t seed = static_cast<std::size_t>(node.op);
  hash_combine(seed, node.action);
  hash_combine(seed, std::hash<double>{}(node.rate.value()));
  hash_combine(seed, node.rate.is_passive() ? 1u : 0u);
  hash_combine(seed, node.left);
  hash_combine(seed, node.right);
  hash_combine(seed, node.constant);
  for (ActionId a : node.action_set) hash_combine(seed, a);
  return seed;
}

template <typename Node>
bool nodes_equal(const ProcessNode& a, const Node& b) {
  return a.op == b.op && a.action == b.action && a.rate == b.rate &&
         a.left == b.left && a.right == b.right && a.constant == b.constant &&
         std::equal(a.action_set.begin(), a.action_set.end(),
                    b.action_set.begin(), b.action_set.end());
}

bool is_normalised(std::span<const ActionId> set) {
  return std::adjacent_find(set.begin(), set.end(),
                            std::greater_equal<ActionId>()) == set.end() &&
         (set.empty() || set.front() != kTau);
}

std::vector<ActionId> normalise_set(std::vector<ActionId> set) {
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  if (set_contains(set, kTau)) {
    throw util::ModelError("tau may not appear in a cooperation or hiding set");
  }
  return set;
}

}  // namespace

ProcessArena::ProcessArena() : state_(std::make_unique<State>()) {
  state_->action_names.push_back(std::string("tau"));
  state_->action_ids.emplace("tau", kTau);
}

ActionId ProcessArena::action(std::string_view name) {
  std::lock_guard lock(state_->names_mutex);
  auto it = state_->action_ids.find(std::string(name));
  if (it != state_->action_ids.end()) return it->second;
  const ActionId id =
      static_cast<ActionId>(state_->action_names.push_back(std::string(name)));
  state_->action_ids.emplace(std::string(name), id);
  return id;
}

std::optional<ActionId> ProcessArena::find_action(std::string_view name) const {
  std::lock_guard lock(state_->names_mutex);
  auto it = state_->action_ids.find(std::string(name));
  if (it == state_->action_ids.end()) return std::nullopt;
  return it->second;
}

const std::string& ProcessArena::action_name(ActionId id) const {
  CHOREO_ASSERT(id < state_->action_names.size());
  return state_->action_names[id];
}

ConstantId ProcessArena::declare(std::string_view name) {
  std::lock_guard lock(state_->names_mutex);
  auto it = state_->constant_ids.find(std::string(name));
  if (it != state_->constant_ids.end()) return it->second;
  const ConstantId id = static_cast<ConstantId>(
      state_->constant_names.push_back(std::string(name)));
  const std::size_t body_slot = state_->constant_bodies.push_back(kInvalidProcess);
  CHOREO_ASSERT(body_slot == id);
  state_->constant_ids.emplace(std::string(name), id);
  return id;
}

std::optional<ConstantId> ProcessArena::find_constant(std::string_view name) const {
  std::lock_guard lock(state_->names_mutex);
  auto it = state_->constant_ids.find(std::string(name));
  if (it == state_->constant_ids.end()) return std::nullopt;
  return it->second;
}

const std::string& ProcessArena::constant_name(ConstantId id) const {
  CHOREO_ASSERT(id < state_->constant_names.size());
  return state_->constant_names[id];
}

bool ProcessArena::is_defined(ConstantId id) const {
  CHOREO_ASSERT(id < state_->constant_bodies.size());
  return state_->constant_bodies[id].load(std::memory_order_acquire) !=
         kInvalidProcess;
}

void ProcessArena::define(ConstantId id, ProcessId body) {
  CHOREO_ASSERT(id < state_->constant_bodies.size());
  CHOREO_ASSERT(body < state_->nodes.size());
  std::lock_guard lock(state_->names_mutex);
  if (state_->constant_bodies[id].load(std::memory_order_relaxed) !=
      kInvalidProcess) {
    throw util::ModelError(util::msg("constant '", constant_name(id),
                                     "' is defined twice"));
  }
  state_->constant_bodies[id].store(body, std::memory_order_release);
}

ProcessId ProcessArena::body(ConstantId id) const {
  CHOREO_ASSERT(id < state_->constant_bodies.size());
  const ProcessId body =
      state_->constant_bodies[id].load(std::memory_order_acquire);
  if (body == kInvalidProcess) {
    throw util::ModelError(util::msg("constant '", constant_name(id),
                                     "' is used but never defined"));
  }
  return body;
}

ProcessId ProcessArena::stop() {
  NodeKey key;
  key.op = Op::kStop;
  return intern(key);
}

ProcessId ProcessArena::prefix(ActionId action, Rate rate, ProcessId continuation) {
  CHOREO_ASSERT(continuation < state_->nodes.size());
  if (rate.is_zero()) {
    throw util::ModelError("prefix activities require a positive rate");
  }
  NodeKey key;
  key.op = Op::kPrefix;
  key.action = action;
  key.rate = rate;
  key.left = continuation;
  return intern(key);
}

ProcessId ProcessArena::choice(ProcessId left, ProcessId right) {
  CHOREO_ASSERT(left < state_->nodes.size() && right < state_->nodes.size());
  NodeKey key;
  key.op = Op::kChoice;
  key.left = left;
  key.right = right;
  return intern(key);
}

ProcessId ProcessArena::cooperation(ProcessId left, std::vector<ActionId> set,
                                    ProcessId right) {
  return cooperation_normalised(left, normalise_set(std::move(set)), right);
}

ProcessId ProcessArena::hiding(ProcessId process, std::vector<ActionId> set) {
  return hiding_normalised(process, normalise_set(std::move(set)));
}

ProcessId ProcessArena::cooperation_normalised(ProcessId left,
                                               std::span<const ActionId> set,
                                               ProcessId right) {
  CHOREO_ASSERT(left < state_->nodes.size() && right < state_->nodes.size());
  CHOREO_ASSERT(is_normalised(set));
  NodeKey key;
  key.op = Op::kCooperation;
  key.left = left;
  key.right = right;
  key.action_set = set;
  return intern(key);
}

ProcessId ProcessArena::hiding_normalised(ProcessId process,
                                          std::span<const ActionId> set) {
  CHOREO_ASSERT(process < state_->nodes.size());
  CHOREO_ASSERT(is_normalised(set));
  NodeKey key;
  key.op = Op::kHiding;
  key.left = process;
  key.action_set = set;
  return intern(key);
}

ProcessId ProcessArena::constant(ConstantId id) {
  CHOREO_ASSERT(id < state_->constant_names.size());
  NodeKey key;
  key.op = Op::kConstant;
  key.constant = id;
  return intern(key);
}

ProcessId ProcessArena::constant(std::string_view name) {
  return constant(declare(name));
}

const ProcessNode& ProcessArena::node(ProcessId id) const {
  CHOREO_ASSERT(id < state_->nodes.size());
  return state_->nodes[id];
}

ProcessId ProcessArena::intern(const NodeKey& key) {
  // Mix before striping so integer-heavy hashes spread across stripes.  The
  // low bits pick the stripe; the next 32 are the slot tag, whose low bits
  // in turn pick the home slot, so a table regrows from its tags alone.
  std::size_t mixed = hash_node(key);
  mixed ^= mixed >> 33;
  mixed *= 0xff51afd7ed558ccdULL;
  mixed ^= mixed >> 33;
  Stripe& stripe = state_->stripes[mixed % kStripes];
  const auto tag = static_cast<std::uint32_t>(mixed / kStripes);

  std::lock_guard lock(stripe.mutex);
  if (stripe.slots.empty()) stripe.slots.resize(8);
  std::size_t mask = stripe.slots.size() - 1;
  std::size_t at = tag & mask;
  for (; stripe.slots[at].id != kInvalidProcess; at = (at + 1) & mask) {
    const Slot& slot = stripe.slots[at];
    if (slot.tag == tag && nodes_equal(state_->nodes[slot.id], key)) {
      return slot.id;
    }
  }
  if (2 * (stripe.count + 1) > stripe.slots.size()) {
    // Grow to keep the table at most half full, re-homing every slot by its
    // tag (no node is rehashed).
    std::vector<Slot> grown(2 * stripe.slots.size());
    mask = grown.size() - 1;
    for (const Slot& slot : stripe.slots) {
      if (slot.id == kInvalidProcess) continue;
      std::size_t home = slot.tag & mask;
      while (grown[home].id != kInvalidProcess) home = (home + 1) & mask;
      grown[home] = slot;
    }
    stripe.slots = std::move(grown);
    for (at = tag & mask; stripe.slots[at].id != kInvalidProcess;
         at = (at + 1) & mask) {
    }
  }
  // Publication: push_back stores under the stripe mutex; every reader that
  // learns this id does so via a stripe mutex (or a fork/join handoff), so
  // the node contents are visible before the id is.
  ProcessNode node;
  node.op = key.op;
  node.action = key.action;
  node.rate = key.rate;
  node.left = key.left;
  node.right = key.right;
  node.action_set.assign(key.action_set.begin(), key.action_set.end());
  node.constant = key.constant;
  const ProcessId id =
      static_cast<ProcessId>(state_->nodes.push_back(std::move(node)));
  stripe.slots[at] = {tag, id};
  ++stripe.count;
  return id;
}

std::vector<ActionId> set_union(const std::vector<ActionId>& a,
                                const std::vector<ActionId>& b) {
  std::vector<ActionId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::vector<ActionId> set_intersection(const std::vector<ActionId>& a,
                                       const std::vector<ActionId>& b) {
  std::vector<ActionId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

namespace {
void collect_alphabet(const ProcessArena& arena, ProcessId process,
                      std::vector<bool>& visited_constants,
                      std::vector<ActionId>& out) {
  const ProcessNode& node = arena.node(process);
  switch (node.op) {
    case Op::kStop:
      return;
    case Op::kPrefix:
      if (node.action != kTau) out.push_back(node.action);
      collect_alphabet(arena, node.left, visited_constants, out);
      return;
    case Op::kChoice:
    case Op::kCooperation:
      collect_alphabet(arena, node.left, visited_constants, out);
      collect_alphabet(arena, node.right, visited_constants, out);
      return;
    case Op::kHiding: {
      std::vector<ActionId> inner;
      collect_alphabet(arena, node.left, visited_constants, inner);
      for (ActionId a : inner) {
        if (!set_contains(node.action_set, a)) out.push_back(a);
      }
      return;
    }
    case Op::kConstant:
      if (visited_constants[node.constant]) return;
      visited_constants[node.constant] = true;
      if (arena.is_defined(node.constant)) {
        collect_alphabet(arena, arena.body(node.constant), visited_constants, out);
      }
      return;
  }
}
}  // namespace

namespace {
/// The rewrite is context-free (the `expanding` stack only detects cycles),
/// so results memoise per node.  Hash-consing shares replicated subtrees;
/// without the memo a 10^6-replica population would be walked once per
/// occurrence instead of once per distinct node.
ProcessId expand_static_impl(ProcessArena& arena, ProcessId process,
                             std::vector<ConstantId>& expanding,
                             std::unordered_map<ProcessId, ProcessId>& memo) {
  if (const auto it = memo.find(process); it != memo.end()) return it->second;
  const ProcessNode& node = arena.node(process);
  ProcessId result = process;
  switch (node.op) {
    case Op::kCooperation: {
      const ProcessId left =
          expand_static_impl(arena, node.left, expanding, memo);
      const ProcessId right =
          expand_static_impl(arena, node.right, expanding, memo);
      result = arena.cooperation_normalised(left, node.action_set, right);
      break;
    }
    case Op::kHiding: {
      const ProcessId inner =
          expand_static_impl(arena, node.left, expanding, memo);
      result = arena.hiding_normalised(inner, node.action_set);
      break;
    }
    case Op::kConstant: {
      const ProcessId body = arena.body(node.constant);
      const Op body_op = arena.node(body).op;
      if (body_op != Op::kCooperation && body_op != Op::kHiding &&
          body_op != Op::kConstant) {
        break;  // sequential definition: keep the name
      }
      if (std::find(expanding.begin(), expanding.end(), node.constant) !=
          expanding.end()) {
        throw util::ModelError(
            util::msg("unguarded recursion through constant '",
                      arena.constant_name(node.constant), "'"));
      }
      expanding.push_back(node.constant);
      result = expand_static_impl(arena, body, expanding, memo);
      expanding.pop_back();
      break;
    }
    default:
      break;
  }
  memo.emplace(process, result);
  return result;
}
}  // namespace

ProcessId expand_static(ProcessArena& arena, ProcessId process) {
  std::vector<ConstantId> expanding;
  std::unordered_map<ProcessId, ProcessId> memo;
  return expand_static_impl(arena, process, expanding, memo);
}

std::vector<ActionId> alphabet(const ProcessArena& arena, ProcessId process) {
  std::vector<bool> visited(arena.constant_count(), false);
  std::vector<ActionId> out;
  collect_alphabet(arena, process, visited, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace choreo::pepa
