// The numerical vector form of a PEPA model (Ding & Hillston): instead of
// interleaving cooperating components into one global state space, the
// system equation is read as a static cooperation tree whose leaves are
// sequential components.  Identical replicas composed over the empty
// cooperation set are merged into one *group* with a count, and the model
// state becomes a vector of occupancy counts over the groups' local
// derivative sets.  The mean-field (fluid) approximation then treats the
// counts as continuous and moves mass along local transitions at rates
// governed by PEPA's min-based apparent-rate cooperation law.
//
// Everything here is derived directly from pepa::Semantics — local
// derivative sets come from a per-component breadth-first closure, never
// from the exponential global interleaving — so construction cost is
// independent of the population size.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pepa/semantics.hpp"

namespace choreo::fluid {

struct BuildOptions {
  /// Safety bound on one component's local derivative set; the fluid
  /// representation targets few local states replicated many times.
  std::size_t max_local_states = 65'536;
};

/// One local transition of a group, in global vector coordinates.
struct LocalTransition {
  std::uint32_t source;        ///< index into the population vector
  std::uint32_t target;        ///< index into the population vector
  pepa::ActionId action;
  std::uint32_t action_slot;   ///< index into VectorForm::actions()
  double rate;                 ///< active rate value or passive weight
  bool passive;
};

/// A maximal set of identical sequential components composed over the empty
/// cooperation set, represented once with a replica count.
struct Group {
  pepa::ProcessId initial = pepa::kInvalidProcess;  ///< shared initial derivative
  double count = 0.0;     ///< number of replicas (integral by construction)
  std::uint32_t first = 0;  ///< offset of this group's states in the vector
  std::vector<pepa::ProcessId> states;  ///< local derivative set, BFS order
  std::uint32_t first_transition = 0;   ///< slice into VectorForm::transitions()
  std::uint32_t transition_count = 0;
};

/// Static cooperation structure over the groups: leaves reference groups,
/// internal nodes carry the cooperation set.  Chains of cooperations over
/// the same action set are flattened (min and + are associative), so a
/// left-deep fold of N replicas becomes one node with one counted leaf.
struct TreeNode {
  std::int32_t group = -1;               ///< >= 0: leaf, index into groups()
  std::vector<std::uint32_t> children;   ///< internal node only
  std::vector<pepa::ActionId> coop_set;  ///< internal node only (sorted)
};

class VectorForm {
 public:
  /// Derives the vector form of `system`.  Throws util::ModelError when the
  /// term cannot be represented (hiding or choice over a composition, an
  /// action offered both actively and passively by one component, a
  /// passively-offered top-level action) and util::BudgetError when a local
  /// derivative set exceeds the bound.
  static VectorForm build(pepa::Semantics& semantics, pepa::ProcessId system,
                          const BuildOptions& options = {});

  /// The number of local derivatives build() read: for each group in
  /// order, for each of its states in BFS order, every entry of
  /// Semantics::derivatives(state).
  std::size_t derivative_count() const noexcept {
    return merged_into_.size();
  }

  /// This form with its local rates refilled from `rates`, one per
  /// derivative in derivative_count() order.  Each transition re-adds the
  /// rates of the derivatives merged into it in the order build() added
  /// them, so the result is bit-identical to building the form of the same
  /// model written with these rates.  Whether a rate is active or passive
  /// is kept from this form.
  VectorForm with_rates(std::span<const double> rates) const;

  /// Length of the population vector (total local states over all groups).
  std::size_t dimension() const noexcept { return dimension_; }

  /// The initial population: each group's count on its initial state.
  std::vector<double> initial_state() const;

  const std::vector<Group>& groups() const noexcept { return groups_; }
  const std::vector<LocalTransition>& transitions() const noexcept {
    return transitions_;
  }
  /// Actions with at least one local transition, sorted by id.
  const std::vector<pepa::ActionId>& actions() const noexcept {
    return actions_;
  }
  const std::vector<TreeNode>& tree() const noexcept { return tree_; }
  std::uint32_t root() const noexcept { return root_; }
  const pepa::ProcessArena& arena() const noexcept { return *arena_; }

  /// The mean-field drift dx = f(x): for every group g and local transition
  /// s -a-> s', mass flows at rate T_a(g) * x[s] r / A_a(g) where A_a(g) is
  /// the group's apparent rate at x and T_a(g) the throughput apportioned
  /// to the group down the cooperation tree (full T for synchronised
  /// actions, proportional for independent ones).
  ///
  /// Passive cooperands need a continuous closure: the exact capacity of a
  /// passive side is infinite while any replica offers the action and zero
  /// otherwise, which makes the raw field discontinuous and the saturated
  /// steady state a chattering sliding mode.  The field instead scales a
  /// shared action's throughput by min(1, m) per passive cooperand, where
  /// m is the mass currently in offering states — exact in the light-load
  /// limit (m ~ 1: the active demand proceeds unthrottled) and in the
  /// saturated limit (the factor recovers the sliding-mode throughput).
  /// `dx` must have dimension() entries.
  void derivative(std::span<const double> x, std::span<double> dx) const;

  /// Root throughput of every action at population x: expected completions
  /// per time unit, the fluid analogue of pepa::action_throughput.
  std::vector<std::pair<pepa::ActionId, double>> throughputs(
      std::span<const double> x) const;

  /// Expected number of components occupying `constant` at population x
  /// (fluid analogue of pepa::mean_population).
  double population(std::span<const double> x,
                    pepa::ConstantId constant) const;

  /// An empty form (dimension 0); placeholder until build() assigns one.
  VectorForm() = default;

 private:
  /// Static offering kind of (node, action): actions a subtree can never
  /// perform are disabled; enabled ones are consistently active or passive.
  enum class Kind : std::uint8_t { kDisabled, kActive, kPassive };

  Kind kind(std::uint32_t node, std::uint32_t slot) const {
    return kinds_[node * actions_.size() + slot];
  }

  /// Fills `apparent` (groups x slots) and `value`/`avail`/`throughput`
  /// (tree nodes x slots); shared by derivative() and throughputs().
  void evaluate(std::span<const double> x, std::vector<double>& apparent,
                std::vector<double>& value, std::vector<double>& avail,
                std::vector<double>& throughput) const;

  const pepa::ProcessArena* arena_ = nullptr;
  std::vector<Group> groups_;
  std::vector<LocalTransition> transitions_;
  std::vector<pepa::ActionId> actions_;
  std::vector<TreeNode> tree_;
  std::uint32_t root_ = 0;
  std::size_t dimension_ = 0;
  /// kinds_[node * actions_.size() + slot]
  std::vector<Kind> kinds_;
  /// enabled_sources_[group][slot]: distinct vector indices of the group's
  /// states offering the action — the mass summed into the availability
  /// factor of passive cooperands.
  std::vector<std::vector<std::vector<std::uint32_t>>> enabled_sources_;
  /// merged_into_[d]: the transition local derivative d was added to.
  std::vector<std::uint32_t> merged_into_;
};

}  // namespace choreo::fluid
