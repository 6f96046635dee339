// Derivation of the marking graph of a PEPA net and its CTMC (the paper
// treats "each marking as a distinct state").
//
// Exploration delegates to explore::run, the level-synchronous BFS shared
// with pepa::StateSpace::derive: the markings of one breadth-first level are
// expanded concurrently, then the discovered markings are renumbered
// serially in canonical order (source index, then move order), which
// reproduces the sequential FIFO numbering byte-for-byte at every lane count
// — including the error raised first.  Transitions are held in a
// CSR-indexed explore::TransitionSystem shared with the PEPA side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ctmc/generator.hpp"
#include "explore/state_index.hpp"
#include "explore/transition_system.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/netsemantics.hpp"
#include "util/budget.hpp"
#include "util/counting_sort.hpp"
#include "util/thread_pool.hpp"

namespace choreo::pepanet {

/// Counters describing one marking-graph derivation (same shape as the PEPA
/// state-space counters, so the service reports both uniformly).
using DeriveStats = pepa::DeriveStats;

struct NetDeriveOptions {
  std::size_t max_markings = 2'000'000;
  /// Exploration lanes per breadth-first level: 1 forces the sequential
  /// path, 0 sizes to the pool (worker count + the calling thread).  The
  /// derived graph is identical for every setting.
  std::size_t threads = 0;
  /// Pool expansion chunks run on; nullptr means util::ThreadPool::shared().
  /// The graph keeps it, with the lane count, for generator(), so a
  /// caller's own pool must outlive it.
  util::ThreadPool* pool = nullptr;
  /// Resource governor: cancellation, deadline and marking/byte accounting,
  /// checked once per breadth-first level (see pepa::DeriveOptions::budget).
  util::Budget* budget = nullptr;
  /// Derive the marking-graph quotient directly: markings are rewritten to
  /// canonical representatives (interchangeable slots of same-cooperation
  /// spines sorted, slot terms sort-canonicalized — see
  /// pepanet/netcanonical.hpp) before interning, so symmetric markings
  /// collapse at discovery time and max_markings, the budget accounting and
  /// peak memory cover the quotient only.  Throughputs and the place/token
  /// measures are permutation-invariant and stay exact; the quotient is
  /// byte-identical at every lane count.
  bool aggregate = false;
};

/// One transition of the marking graph.  Marking ids are 32-bit, as
/// explore::StateIndex numbers them.
struct MarkingTransition {
  std::uint32_t source;
  std::uint32_t target;
  pepa::ActionId action;
  double rate;
  bool is_firing;
  /// Valid when is_firing.
  NetTransitionId net_transition;
  /// Valid when !is_firing: the place whose context moved.
  PlaceId place;
};
static_assert(sizeof(MarkingTransition) == 40);

class NetStateSpace {
 public:
  static NetStateSpace derive(NetSemantics& semantics,
                              const NetDeriveOptions& options = {});
  static NetStateSpace derive_from(NetSemantics& semantics, Marking initial,
                                   const NetDeriveOptions& options = {});

  std::size_t marking_count() const noexcept { return markings_.size(); }
  const Marking& marking(std::size_t index) const { return markings_[index]; }
  std::optional<std::size_t> index_of(const Marking& marking) const;

  /// The CSR-indexed marking-graph transition system.
  const explore::TransitionSystem<MarkingTransition>& lts() const noexcept {
    return lts_;
  }

  /// The flat transition payload, in canonical emission order.
  std::span<const MarkingTransition> transitions() const noexcept {
    return lts_.transitions();
  }

  /// Counters from the derivation that produced this graph.
  const DeriveStats& stats() const noexcept { return stats_; }

  /// True when derived quotient-direct (NetDeriveOptions::aggregate).
  bool aggregated() const noexcept { return aggregated_; }

  /// The CTMC generator, built from the payload and its row index on the
  /// derive's pool and lane count.
  ctmc::Generator generator() const;

  /// Transitions carrying `action` (both kinds), for throughput rewards;
  /// the first query builds the action index.
  std::vector<ctmc::RatedTransition> transitions_of(pepa::ActionId action) const;

  /// Markings with no enabled move.
  std::vector<std::size_t> deadlock_markings() const;

 private:
  std::vector<Marking> markings_;
  /// Marking -> index: expansion lanes read it without locks while a level
  /// expands; only the serial renumbering pass writes it.
  explore::StateIndex index_;
  explore::TransitionSystem<MarkingTransition> lts_;
  DeriveStats stats_;
  bool aggregated_ = false;
  util::Lanes lanes_;  ///< the derive's, for generator()
};

/// Steady-state throughput of an action over the marking graph, read off
/// the action index (built by the first query).
double action_throughput(const NetStateSpace& space,
                         std::span<const double> distribution,
                         pepa::ActionId action);

/// Steady-state probability that at least one token occupies a cell of
/// `place` in the net.
double occupancy_probability(const PepaNet& net, const NetStateSpace& space,
                             std::span<const double> distribution, PlaceId place);

/// Expected number of tokens resident in cells of `place`.
double mean_tokens_at(const PepaNet& net, const NetStateSpace& space,
                      std::span<const double> distribution, PlaceId place);

/// Steady-state probability that some cell of some place holds a token whose
/// current derivative is exactly `term`.
double derivative_probability(const PepaNet& net, const NetStateSpace& space,
                              std::span<const double> distribution,
                              pepa::ProcessId term);

/// Same, identifying the derivative by its defining constant (ProcessId and
/// ConstantId share a representation, so this cannot be an overload).
double derivative_probability_by_constant(const PepaNet& net,
                                          const NetStateSpace& space,
                                          std::span<const double> distribution,
                                          pepa::ConstantId constant);

}  // namespace choreo::pepanet
