#include "fluid/vector_form.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "pepa/measures.hpp"
#include "util/error.hpp"

namespace choreo::fluid {

namespace {

using pepa::ActionId;
using pepa::Op;
using pepa::ProcessArena;
using pepa::ProcessId;

/// True when `id` contains a cooperation anywhere below (through constant
/// definitions).  Sequential leaves must be composition-free: a hiding or
/// choice over a composition cannot be represented as one counted group.
bool contains_composition(const ProcessArena& arena, ProcessId id,
                          std::unordered_set<ProcessId>& seen) {
  if (!seen.insert(id).second) return false;
  const pepa::ProcessNode& node = arena.node(id);
  switch (node.op) {
    case Op::kStop:
      return false;
    case Op::kCooperation:
      return true;
    case Op::kPrefix:
    case Op::kHiding:
      return contains_composition(arena, node.left, seen);
    case Op::kChoice:
      return contains_composition(arena, node.left, seen) ||
             contains_composition(arena, node.right, seen);
    case Op::kConstant:
      return contains_composition(arena, arena.body(node.constant), seen);
  }
  return false;
}

struct Builder {
  pepa::Semantics& semantics;
  const BuildOptions& options;
  std::vector<TreeNode> tree;
  std::vector<Group> groups;
  /// Per group, local-coordinate transitions (merged multiplicities).
  struct RawTransition {
    std::uint32_t source;
    std::uint32_t target;
    ActionId action;
    double rate;
    bool passive;
  };
  std::vector<std::vector<RawTransition>> raw;
  /// Per group, per local derivative in closure order: its index in raw.
  std::vector<std::vector<std::uint32_t>> merged;

  /// Flattens a chain of cooperations over the same action set into its
  /// maximal list of operands (min and + are both associative).  Iterative:
  /// replicated populations produce very deep or very wide chains.
  void gather(ProcessId term, const std::vector<ActionId>& set,
              std::vector<ProcessId>& out) {
    std::vector<ProcessId> stack{term};
    while (!stack.empty()) {
      const ProcessId current = stack.back();
      stack.pop_back();
      const pepa::ProcessNode& node = semantics.arena().node(current);
      if (node.op == Op::kCooperation && node.action_set == set) {
        stack.push_back(node.right);
        stack.push_back(node.left);
      } else {
        out.push_back(current);
      }
    }
  }

  /// Same flattening, but per distinct operand with its occurrence count.
  /// Hash-consing shares the identical subtrees of a replicated population,
  /// so the chain is a DAG with O(log N) distinct nodes; counting
  /// multiplicities instead of walking every occurrence keeps the build
  /// cost independent of the population size.  Operands are interned before
  /// the cooperations that use them, so visiting pending nodes in
  /// descending-id order sees every chain parent before its children.
  void gather_counted(ProcessId term, const std::vector<ActionId>& set,
                      std::vector<std::pair<ProcessId, double>>& out) {
    std::map<ProcessId, double, std::greater<ProcessId>> pending;
    pending.emplace(term, 1.0);
    while (!pending.empty()) {
      const auto [current, mult] = *pending.begin();
      pending.erase(pending.begin());
      const pepa::ProcessNode& node = semantics.arena().node(current);
      if (node.op == Op::kCooperation && node.action_set == set) {
        pending[node.left] += mult;
        pending[node.right] += mult;
      } else {
        out.emplace_back(current, mult);
      }
    }
  }

  std::uint32_t build_node(ProcessId term) {
    const ProcessArena& arena = semantics.arena();
    if (arena.node(term).op != Op::kCooperation) return leaf(term, 1.0);

    const std::vector<ActionId> set = arena.node(term).action_set;

    TreeNode internal;
    internal.coop_set = set;
    if (set.empty()) {
      // Identical sequential replicas interleaved over the empty set are
      // exchangeable: merge them into one counted group.  Composite
      // operands keep their own subtree per replica.
      std::vector<std::pair<ProcessId, double>> counted;
      gather_counted(term, set, counted);
      for (const auto& [part, count] : counted) {
        if (arena.node(part).op == Op::kCooperation) {
          for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i) {
            internal.children.push_back(build_node(part));
          }
        } else {
          internal.children.push_back(leaf(part, count));
        }
      }
    } else {
      // Non-empty sets synchronise their operands, so every occurrence is
      // its own cooperand; these chains are written by hand and stay short.
      std::vector<ProcessId> parts;
      gather(term, set, parts);
      for (ProcessId part : parts) {
        internal.children.push_back(
            arena.node(part).op == Op::kCooperation ? build_node(part)
                                                    : leaf(part, 1.0));
      }
    }
    if (internal.children.size() == 1) return internal.children.front();
    tree.push_back(std::move(internal));
    return static_cast<std::uint32_t>(tree.size() - 1);
  }

  /// Breadth-first closure of one sequential component's derivative set.
  std::uint32_t leaf(ProcessId term, double count) {
    const ProcessArena& arena = semantics.arena();
    {
      std::unordered_set<ProcessId> seen;
      if (contains_composition(arena, term, seen)) {
        throw util::ModelError(
            "fluid: hiding or choice over a composition cannot be "
            "represented as a sequential component");
      }
    }

    Group group;
    group.initial = term;
    group.count = count;
    std::unordered_map<ProcessId, std::uint32_t> index;
    index.emplace(term, 0);
    group.states.push_back(term);

    std::vector<RawTransition> local;
    std::vector<std::uint32_t> into;
    for (std::size_t si = 0; si < group.states.size(); ++si) {
      const ProcessId state = group.states[si];
      for (const pepa::Derivative& d : semantics.derivatives(state)) {
        auto [it, fresh] =
            index.try_emplace(d.target,
                              static_cast<std::uint32_t>(group.states.size()));
        if (fresh) {
          if (group.states.size() >= options.max_local_states) {
            throw util::BudgetError(util::msg(
                "fluid: local derivative set exceeds ",
                options.max_local_states,
                " states; the component is not a small sequential process"));
          }
          group.states.push_back(d.target);
        }
        // Merge multiplicity: parallel (s, a, s') activities sum their
        // rates (the apparent-rate convention of the semantics cache).
        std::size_t k = 0;
        while (k < local.size() &&
               !(local[k].source == si && local[k].target == it->second &&
                 local[k].action == d.action)) {
          ++k;
        }
        if (k == local.size()) {
          local.push_back({static_cast<std::uint32_t>(si), it->second,
                           d.action, d.rate.value(), d.rate.is_passive()});
        } else if (local[k].passive != d.rate.is_passive()) {
          throw util::ModelError(util::msg(
              "fluid: action '", arena.action_name(d.action),
              "' offered both actively and passively by one component"));
        } else {
          local[k].rate += d.rate.value();
        }
        into.push_back(static_cast<std::uint32_t>(k));
      }
    }

    raw.push_back(std::move(local));
    merged.push_back(std::move(into));
    groups.push_back(std::move(group));
    TreeNode node;
    node.group = static_cast<std::int32_t>(groups.size() - 1);
    tree.push_back(std::move(node));
    return static_cast<std::uint32_t>(tree.size() - 1);
  }
};

}  // namespace

VectorForm VectorForm::build(pepa::Semantics& semantics, pepa::ProcessId system,
                             const BuildOptions& options) {
  pepa::ProcessArena& arena = semantics.arena();
  const ProcessId expanded = pepa::expand_static(arena, system);

  Builder builder{semantics, options, {}, {}, {}, {}};
  const std::uint32_t root = builder.build_node(expanded);

  VectorForm form;
  form.arena_ = &arena;
  form.tree_ = std::move(builder.tree);
  form.groups_ = std::move(builder.groups);
  form.root_ = root;

  // Assign vector offsets and globalise the per-group transitions.
  std::size_t dimension = 0;
  for (std::size_t g = 0; g < form.groups_.size(); ++g) {
    Group& group = form.groups_[g];
    group.first = static_cast<std::uint32_t>(dimension);
    dimension += group.states.size();
    group.first_transition = static_cast<std::uint32_t>(form.transitions_.size());
    for (const Builder::RawTransition& t : builder.raw[g]) {
      form.transitions_.push_back({group.first + t.source,
                                   group.first + t.target, t.action, 0,
                                   t.rate, t.passive});
    }
    group.transition_count =
        static_cast<std::uint32_t>(builder.raw[g].size());
    for (const std::uint32_t k : builder.merged[g]) {
      form.merged_into_.push_back(group.first_transition + k);
    }
  }
  form.dimension_ = dimension;

  // Action table and per-transition slots.
  for (const LocalTransition& t : form.transitions_) {
    form.actions_.push_back(t.action);
  }
  std::sort(form.actions_.begin(), form.actions_.end());
  form.actions_.erase(
      std::unique(form.actions_.begin(), form.actions_.end()),
      form.actions_.end());
  for (LocalTransition& t : form.transitions_) {
    t.action_slot = static_cast<std::uint32_t>(
        std::lower_bound(form.actions_.begin(), form.actions_.end(),
                         t.action) -
        form.actions_.begin());
  }

  // Static offering kinds, bottom up.  The tree is built children-first, so
  // a forward scan visits every child before its parent.
  const std::size_t slots = form.actions_.size();
  form.kinds_.assign(form.tree_.size() * slots, Kind::kDisabled);
  for (std::size_t n = 0; n < form.tree_.size(); ++n) {
    const TreeNode& node = form.tree_[n];
    if (node.group >= 0) {
      const Group& group = form.groups_[node.group];
      for (std::uint32_t t = 0; t < group.transition_count; ++t) {
        const LocalTransition& lt =
            form.transitions_[group.first_transition + t];
        Kind& kind = form.kinds_[n * slots + lt.action_slot];
        const Kind offered = lt.passive ? Kind::kPassive : Kind::kActive;
        if (kind == Kind::kDisabled) {
          kind = offered;
        } else if (kind != offered) {
          throw util::ModelError(util::msg(
              "fluid: action '", arena.action_name(lt.action),
              "' offered both actively and passively by one component"));
        }
      }
      continue;
    }
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const bool shared = pepa::set_contains(node.coop_set,
                                             form.actions_[slot]);
      Kind combined = Kind::kDisabled;
      bool all_enabled = true;
      for (std::uint32_t child : node.children) {
        const Kind ck = form.kinds_[child * slots + slot];
        if (ck == Kind::kDisabled) {
          all_enabled = false;
          continue;
        }
        if (combined == Kind::kDisabled) {
          combined = ck;
        } else if (combined != ck) {
          if (shared) {
            // min(active, passive) = active in the T-extended ordering.
            combined = Kind::kActive;
          } else {
            throw util::ModelError(util::msg(
                "fluid: action '", arena.action_name(form.actions_[slot]),
                "' offered both actively and passively across independent "
                "components"));
          }
        }
      }
      if (shared && !all_enabled) combined = Kind::kDisabled;
      form.kinds_[n * slots + slot] = combined;
    }
  }

  // Distinct offering states per (group, action): the mass behind the
  // availability factor of passive cooperands.
  form.enabled_sources_.resize(form.groups_.size());
  for (std::size_t g = 0; g < form.groups_.size(); ++g) {
    const Group& group = form.groups_[g];
    form.enabled_sources_[g].resize(slots);
    for (std::uint32_t t = 0; t < group.transition_count; ++t) {
      const LocalTransition& lt = form.transitions_[group.first_transition + t];
      std::vector<std::uint32_t>& sources =
          form.enabled_sources_[g][lt.action_slot];
      if (std::find(sources.begin(), sources.end(), lt.source) ==
          sources.end()) {
        sources.push_back(lt.source);
      }
    }
  }

  for (std::size_t slot = 0; slot < slots; ++slot) {
    if (form.kind(root, slot) == Kind::kPassive) {
      throw util::ModelError(util::msg(
          "action '", arena.action_name(form.actions_[slot]),
          "' is passive at the top level of the system equation"));
    }
  }
  return form;
}

VectorForm VectorForm::with_rates(std::span<const double> rates) const {
  CHOREO_ASSERT(rates.size() == merged_into_.size());
  VectorForm form = *this;
  // build() starts a transition at its first derivative's rate; rates are
  // positive, so 0.0 + rate is that rate exactly and the sums match.
  for (LocalTransition& t : form.transitions_) t.rate = 0.0;
  for (std::size_t d = 0; d < rates.size(); ++d) {
    form.transitions_[merged_into_[d]].rate += rates[d];
  }
  return form;
}

std::vector<double> VectorForm::initial_state() const {
  std::vector<double> x(dimension_, 0.0);
  for (const Group& group : groups_) {
    x[group.first] = group.count;
  }
  return x;
}

void VectorForm::evaluate(std::span<const double> x,
                          std::vector<double>& apparent,
                          std::vector<double>& value,
                          std::vector<double>& avail,
                          std::vector<double>& throughput) const {
  const std::size_t slots = actions_.size();
  apparent.assign(groups_.size() * slots, 0.0);
  value.assign(tree_.size() * slots, 0.0);
  avail.assign(tree_.size() * slots, 0.0);
  throughput.assign(tree_.size() * slots, 0.0);

  // Group apparent rates A_a(g) = sum_s x[s] r_a(s).
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = groups_[g];
    for (std::uint32_t t = 0; t < group.transition_count; ++t) {
      const LocalTransition& lt = transitions_[group.first_transition + t];
      apparent[g * slots + lt.action_slot] += x[lt.source] * lt.rate;
    }
  }

  // Bottom-up apparent values: min over cooperands on shared actions
  // (active offerings dominate passive ones), sums on independent ones.
  // `avail` carries the offering mass alongside: the continuous capacity
  // of a passive cooperand is min(1, avail) — see the header comment.
  for (std::size_t n = 0; n < tree_.size(); ++n) {
    const TreeNode& node = tree_[n];
    if (node.group >= 0) {
      const std::size_t g = static_cast<std::size_t>(node.group);
      for (std::size_t slot = 0; slot < slots; ++slot) {
        value[n * slots + slot] = apparent[g * slots + slot];
        double mass = 0.0;
        for (std::uint32_t source : enabled_sources_[g][slot]) {
          mass += x[source];
        }
        avail[n * slots + slot] = mass;
      }
      continue;
    }
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const Kind node_kind = kind(static_cast<std::uint32_t>(n),
                                  static_cast<std::uint32_t>(slot));
      if (node_kind == Kind::kDisabled) continue;
      const bool shared =
          pepa::set_contains(node.coop_set, actions_[slot]);
      double v = shared ? std::numeric_limits<double>::infinity() : 0.0;
      double m = shared ? std::numeric_limits<double>::infinity() : 0.0;
      double passive_factor = 1.0;
      for (std::uint32_t child : node.children) {
        const Kind ck = kind(child, static_cast<std::uint32_t>(slot));
        if (ck == Kind::kDisabled) continue;
        const double cv = value[child * slots + slot];
        const double cm = avail[child * slots + slot];
        if (!shared) {
          v += cv;
          m += cm;
          continue;
        }
        m = std::min(m, cm);
        if (ck == node_kind) {
          // Active nodes take the min over active cooperands; all-passive
          // nodes min the weights.
          v = std::min(v, cv);
        } else {
          // Passive cooperand of an active synchronisation: throttle by
          // its available offering mass.
          passive_factor *= std::min(1.0, cm);
        }
      }
      if (!std::isfinite(v)) v = 0.0;
      value[n * slots + slot] = v * passive_factor;
      avail[n * slots + slot] = m;
    }
  }

  // Top-down throughput apportionment: the root completes enabled active
  // actions at their apparent value; synchronised children receive the full
  // throughput, independent children their proportional share.
  const std::size_t slots_total = slots;
  for (std::size_t slot = 0; slot < slots_total; ++slot) {
    if (kind(root_, static_cast<std::uint32_t>(slot)) == Kind::kActive) {
      throughput[root_ * slots_total + slot] = value[root_ * slots_total + slot];
    }
  }
  for (std::size_t i = tree_.size(); i-- > 0;) {
    const TreeNode& node = tree_[i];
    if (node.group >= 0) continue;
    for (std::size_t slot = 0; slot < slots_total; ++slot) {
      const double parent = throughput[i * slots_total + slot];
      if (parent <= 0.0) continue;
      const bool shared = pepa::set_contains(node.coop_set, actions_[slot]);
      const double total = value[i * slots_total + slot];
      for (std::uint32_t child : node.children) {
        if (kind(child, static_cast<std::uint32_t>(slot)) == Kind::kDisabled) {
          continue;
        }
        throughput[child * slots_total + slot] =
            shared ? parent
                   : (total > 0.0
                          ? parent * value[child * slots_total + slot] / total
                          : 0.0);
      }
    }
  }
}

void VectorForm::derivative(std::span<const double> x,
                            std::span<double> dx) const {
  CHOREO_ASSERT(x.size() == dimension_ && dx.size() == dimension_);
  std::vector<double> apparent, value, avail, throughput;
  evaluate(x, apparent, value, avail, throughput);

  std::fill(dx.begin(), dx.end(), 0.0);
  const std::size_t slots = actions_.size();
  // Leaf node index per group: the tree is built leaves-before-parents, so
  // recover it by scanning once.
  for (std::size_t n = 0; n < tree_.size(); ++n) {
    const TreeNode& node = tree_[n];
    if (node.group < 0) continue;
    const Group& group = groups_[node.group];
    for (std::uint32_t t = 0; t < group.transition_count; ++t) {
      const LocalTransition& lt = transitions_[group.first_transition + t];
      const double total =
          apparent[static_cast<std::size_t>(node.group) * slots +
                   lt.action_slot];
      if (total <= 0.0) continue;
      const double allotted = throughput[n * slots + lt.action_slot];
      if (allotted <= 0.0) continue;
      const double flow = allotted * x[lt.source] * lt.rate / total;
      dx[lt.source] -= flow;
      dx[lt.target] += flow;
    }
  }
}

std::vector<std::pair<pepa::ActionId, double>> VectorForm::throughputs(
    std::span<const double> x) const {
  CHOREO_ASSERT(x.size() == dimension_);
  std::vector<double> apparent, value, avail, throughput;
  evaluate(x, apparent, value, avail, throughput);
  const std::size_t slots = actions_.size();
  std::vector<std::pair<pepa::ActionId, double>> result;
  result.reserve(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    result.emplace_back(actions_[slot], throughput[root_ * slots + slot]);
  }
  return result;
}

double VectorForm::population(std::span<const double> x,
                              pepa::ConstantId constant) const {
  CHOREO_ASSERT(x.size() == dimension_);
  double total = 0.0;
  for (const Group& group : groups_) {
    for (std::size_t s = 0; s < group.states.size(); ++s) {
      if (pepa::occupies(*arena_, group.states[s], constant)) {
        total += x[group.first + s];
      }
    }
  }
  return total;
}

}  // namespace choreo::fluid
