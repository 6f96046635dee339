#include "pepanet/netstatespace.hpp"

#include <utility>

#include "explore/engine.hpp"
#include "pepanet/netcanonical.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace choreo::pepanet {

NetStateSpace NetStateSpace::derive(NetSemantics& semantics,
                                    const NetDeriveOptions& options) {
  return derive_from(semantics, semantics.net().initial_marking(), options);
}

NetStateSpace NetStateSpace::derive_from(NetSemantics& semantics, Marking initial,
                                         const NetDeriveOptions& options) {
  semantics.net().validate();
  util::Stopwatch timer;
  NetStateSpace space;

  explore::EngineOptions engine;
  engine.max_states = options.max_markings;
  engine.threads = options.threads;
  engine.pool = options.pool;
  engine.budget = options.budget;
  // Approximate per-marking footprint: every marking of one net holds the
  // same number of slots, plus its share of the index.
  engine.bytes_per_state = initial.size() * sizeof(pepa::ProcessId) +
                           explore::StateIndex::kBytesPerState;
  engine.space_noun = "marking graph";
  engine.state_noun = "markings";
  engine.passive_suffix =
      "' occurs passively at the net level: no active partner sets its rate";
  space.lanes_ = util::Lanes::of(options.pool, options.threads);

  auto run_with = [&](Marking start, auto&& canonicalize) {
    return explore::run<MarkingHash>(
        space.markings_, space.index_, std::move(start),
        // NetSemantics is stateless over the thread-safe arena/semantics
        // caches, so expansion workers may call moves() concurrently.
        [&semantics](const Marking& marking) {
          return semantics.moves(marking);
        },
        std::forward<decltype(canonicalize)>(canonicalize),
        [&semantics](const NetMove& move) {
          return semantics.net().arena().action_name(move.action);
        },
        explore::AllRepresentable{},
        [](std::size_t source, const NetMove& move, std::size_t target) {
          MarkingTransition t;
          t.source = static_cast<std::uint32_t>(source);
          t.target = static_cast<std::uint32_t>(target);
          t.action = move.action;
          t.rate = move.rate.value();
          t.is_firing = move.kind == NetMove::Kind::kFiring;
          t.net_transition = move.transition;
          t.place = move.place;
          return t;
        },
        space.lts_, engine);
  };
  if (options.aggregate) {
    // Quotient-direct derivation over canonical markings; parallel moves
    // into one block are summed by the generator build (the lumped rate).
    space.aggregated_ = true;
    MarkingCanonicalizer canonicalizer(semantics.net());
    space.stats_ = run_with(std::move(initial),
                            [&canonicalizer](Marking& marking) {
                              return canonicalizer(marking);
                            });
  } else {
    space.stats_ = run_with(std::move(initial), explore::NoCanonicalize{});
  }
  const double seconds = timer.seconds();
  space.stats_.serial_seconds += seconds - space.stats_.seconds;
  space.stats_.seconds = seconds;
  return space;
}

std::optional<std::size_t> NetStateSpace::index_of(const Marking& marking) const {
  const std::size_t found =
      index_.find(MarkingHash{}(marking), [&](std::size_t id) {
        return markings_[id] == marking;
      });
  if (found == explore::StateIndex::kAbsent) return std::nullopt;
  return found;
}

ctmc::Generator NetStateSpace::generator() const {
  return ctmc::Generator::build_from<MarkingTransition>(
      marking_count(), lts_.transitions(), lts_.row_offsets(), lanes_);
}

std::vector<ctmc::RatedTransition> NetStateSpace::transitions_of(
    pepa::ActionId action) const {
  std::vector<ctmc::RatedTransition> out;
  const auto slice = lts_.action_transitions(action);
  out.reserve(slice.size());
  for (const std::size_t i : slice) {
    const MarkingTransition& t = lts_.transitions()[i];
    out.push_back({t.source, t.target, t.rate});
  }
  return out;
}

std::vector<std::size_t> NetStateSpace::deadlock_markings() const {
  return lts_.deadlock_states();
}

double action_throughput(const NetStateSpace& space,
                         std::span<const double> distribution,
                         pepa::ActionId action) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  return space.lts().action_throughput(distribution, action);
}

namespace {
std::size_t tokens_at(const PepaNet& net, const Marking& marking, PlaceId place) {
  const Place& p = net.place(place);
  std::size_t count = 0;
  for (std::size_t slot = 0; slot < p.slots.size(); ++slot) {
    if (p.slots[slot].kind != Slot::Kind::kCell) continue;
    if (marking[net.slot_offset(place, slot)] != kVacant) ++count;
  }
  return count;
}
}  // namespace

double occupancy_probability(const PepaNet& net, const NetStateSpace& space,
                             std::span<const double> distribution, PlaceId place) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  double sum = 0.0;
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    if (tokens_at(net, space.marking(m), place) > 0) sum += distribution[m];
  }
  return sum;
}

double mean_tokens_at(const PepaNet& net, const NetStateSpace& space,
                      std::span<const double> distribution, PlaceId place) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  double sum = 0.0;
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    sum += distribution[m] *
           static_cast<double>(tokens_at(net, space.marking(m), place));
  }
  return sum;
}

double derivative_probability_by_constant(const PepaNet& net,
                                          const NetStateSpace& space,
                                          std::span<const double> distribution,
                                          pepa::ConstantId constant) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  double sum = 0.0;
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    const Marking& marking = space.marking(m);
    bool found = false;
    for (PlaceId place = 0; place < net.place_count() && !found; ++place) {
      const Place& p = net.place(place);
      for (std::size_t slot = 0; slot < p.slots.size() && !found; ++slot) {
        if (p.slots[slot].kind != Slot::Kind::kCell) continue;
        const pepa::ProcessId content = marking[net.slot_offset(place, slot)];
        if (content == kVacant) continue;
        const pepa::ProcessNode& node = net.arena().node(content);
        found = node.op == pepa::Op::kConstant && node.constant == constant;
      }
    }
    if (found) sum += distribution[m];
  }
  return sum;
}

double derivative_probability(const PepaNet& net, const NetStateSpace& space,
                              std::span<const double> distribution,
                              pepa::ProcessId term) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  double sum = 0.0;
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    const Marking& marking = space.marking(m);
    bool found = false;
    for (PlaceId place = 0; place < net.place_count() && !found; ++place) {
      const Place& p = net.place(place);
      for (std::size_t slot = 0; slot < p.slots.size() && !found; ++slot) {
        if (p.slots[slot].kind != Slot::Kind::kCell) continue;
        found = marking[net.slot_offset(place, slot)] == term;
      }
    }
    if (found) sum += distribution[m];
  }
  return sum;
}

}  // namespace choreo::pepanet
