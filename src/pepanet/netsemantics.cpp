#include "pepanet/netsemantics.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace choreo::pepanet {

std::size_t MarkingHash::operator()(const Marking& marking) const noexcept {
  std::size_t hash = 0xcbf29ce484222325ULL;
  for (pepa::ProcessId id : marking) {
    hash ^= id;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

pepa::ProcessId NetSemantics::place_context(const Marking& marking, PlaceId place) {
  const Place& p = net_.place(place);
  CHOREO_ASSERT(!p.slots.empty());
  auto slot_term = [&](std::size_t slot) {
    const pepa::ProcessId content = marking[net_.slot_offset(place, slot)];
    return content == kVacant ? net_.arena().stop() : content;
  };
  pepa::ProcessId term = slot_term(p.slots.size() - 1);
  for (std::size_t i = p.slots.size() - 1; i-- > 0;) {
    const std::vector<pepa::ActionId>& set =
        p.coop_sets.empty() ? std::vector<pepa::ActionId>{} : p.coop_sets[i];
    term = net_.arena().cooperation(slot_term(i), set, term);
  }
  return term;
}

void NetSemantics::collect_local_moves(const Marking& marking, PlaceId place,
                                       std::vector<NetMove>& out) {
  const Place& p = net_.place(place);
  const pepa::ProcessId context = place_context(marking, place);
  for (const pepa::Derivative& d : pepa_.derivatives(context)) {
    // Firing types never occur as local transitions; they are only
    // performed as part of a net-level firing.
    if (net_.is_firing_type(d.action)) continue;

    NetMove move;
    move.kind = NetMove::Kind::kLocal;
    move.action = d.action;
    move.rate = d.rate;
    move.place = place;
    move.target = marking;

    // Decompose the derivative along the (structure-preserving) fold.
    pepa::ProcessId cursor = d.target;
    for (std::size_t i = 0; i + 1 < p.slots.size(); ++i) {
      const pepa::ProcessNode& node = net_.arena().node(cursor);
      CHOREO_ASSERT(node.op == pepa::Op::kCooperation);
      const std::size_t offset = net_.slot_offset(place, i);
      if (marking[offset] != kVacant) move.target[offset] = node.left;
      cursor = node.right;
    }
    const std::size_t last = net_.slot_offset(place, p.slots.size() - 1);
    if (marking[last] != kVacant) move.target[last] = cursor;

    out.push_back(std::move(move));
  }
}

namespace {

/// A token eligible to fire from one input place.
struct TokenChoice {
  std::size_t slot;
  TokenTypeId type;
  pepa::ProcessId term;
  pepa::Rate apparent;
  std::vector<pepa::Derivative> alpha_moves;
};

/// A vacant cell in one output place.
struct CellChoice {
  std::size_t slot;
  TokenTypeId type;
};

/// Iterates over the cartesian product of index ranges.
class ProductIterator {
 public:
  explicit ProductIterator(std::vector<std::size_t> sizes)
      : sizes_(std::move(sizes)), indices_(sizes_.size(), 0) {
    done_ = std::any_of(sizes_.begin(), sizes_.end(),
                        [](std::size_t s) { return s == 0; });
  }
  bool done() const noexcept { return done_; }
  const std::vector<std::size_t>& indices() const noexcept { return indices_; }
  void advance() {
    for (std::size_t i = 0; i < indices_.size(); ++i) {
      if (++indices_[i] < sizes_[i]) return;
      indices_[i] = 0;
    }
    done_ = true;
  }

 private:
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> indices_;
  bool done_ = false;
};

}  // namespace

void NetSemantics::collect_firings(const Marking& marking, NetTransitionId t,
                                   std::vector<NetMove>& out) {
  const NetTransition& transition = net_.transition(t);
  const pepa::ActionId alpha = transition.action;
  const std::size_t arity = transition.inputs.size();

  // Candidate tokens per input place, and the place-level apparent rate of
  // alpha (the same-kind sum over eligible tokens: they race for the
  // transition under the bounded-capacity discipline).
  std::vector<std::vector<TokenChoice>> candidates(arity);
  std::vector<pepa::Rate> place_apparent(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    const PlaceId place = transition.inputs[i];
    const Place& p = net_.place(place);
    for (std::size_t slot = 0; slot < p.slots.size(); ++slot) {
      if (p.slots[slot].kind != Slot::Kind::kCell) continue;
      const pepa::ProcessId term = marking[net_.slot_offset(place, slot)];
      if (term == kVacant) continue;
      TokenChoice choice;
      choice.slot = slot;
      choice.type = p.slots[slot].cell_type;
      choice.term = term;
      for (const pepa::Derivative& d : pepa_.derivatives(term)) {
        if (d.action == alpha) choice.alpha_moves.push_back(d);
      }
      if (choice.alpha_moves.empty()) continue;
      choice.apparent = pepa_.apparent_rate(term, alpha);
      place_apparent[i] =
          place_apparent[i].plus(choice.apparent, net_.arena().action_name(alpha));
      candidates[i].push_back(std::move(choice));
    }
    if (candidates[i].empty()) return;  // no enabling (Definition 2)
  }

  // Vacant cells per output place (Definition 3).
  std::vector<std::vector<CellChoice>> vacancies(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    const PlaceId place = transition.outputs[i];
    const Place& p = net_.place(place);
    for (std::size_t slot = 0; slot < p.slots.size(); ++slot) {
      if (p.slots[slot].kind != Slot::Kind::kCell) continue;
      if (marking[net_.slot_offset(place, slot)] != kVacant) continue;
      vacancies[i].push_back({slot, p.slots[slot].cell_type});
    }
    if (vacancies[i].empty()) return;  // no output (Definition 3)
  }

  // Combined apparent rate of the firing: the transition label cooperates
  // with the token races of every input place.
  pepa::Rate combined = transition.rate;
  for (std::size_t i = 0; i < arity; ++i) {
    combined = pepa::Rate::min(combined, place_apparent[i]);
  }
  CHOREO_ASSERT(!combined.is_zero());

  // Enumerate enablings: one candidate token per input place.
  std::vector<std::size_t> candidate_sizes(arity);
  for (std::size_t i = 0; i < arity; ++i) candidate_sizes[i] = candidates[i].size();
  for (ProductIterator enabling(candidate_sizes); !enabling.done();
       enabling.advance()) {
    std::vector<const TokenChoice*> tokens(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      tokens[i] = &candidates[i][enabling.indices()[i]];
    }

    // Enumerate outputs (one vacant cell per output place) and the
    // type-preserving bijections phi from tokens to chosen cells
    // (Definition 4: concession).
    struct Variant {
      std::vector<std::size_t> cell_choice;  // per output place: vacancy index
      std::vector<std::size_t> assignment;   // token i -> output place index
    };
    std::vector<Variant> variants;
    std::vector<std::size_t> vacancy_sizes(arity);
    for (std::size_t i = 0; i < arity; ++i) vacancy_sizes[i] = vacancies[i].size();
    std::vector<std::size_t> permutation(arity);
    std::iota(permutation.begin(), permutation.end(), 0);
    for (ProductIterator output(vacancy_sizes); !output.done(); output.advance()) {
      std::sort(permutation.begin(), permutation.end());
      do {
        bool types_match = true;
        for (std::size_t i = 0; i < arity && types_match; ++i) {
          const CellChoice& cell =
              vacancies[permutation[i]][output.indices()[permutation[i]]];
          types_match = tokens[i]->type == cell.type;
        }
        if (types_match) {
          variants.push_back(
              {std::vector<std::size_t>(output.indices()), permutation});
        }
      } while (std::next_permutation(permutation.begin(), permutation.end()));
    }
    if (variants.empty()) continue;  // this enabling admits no bijection

    // Each combination of per-token alpha-derivative choices contributes its
    // proportional share; each variant splits that share equally.
    std::vector<std::size_t> move_sizes(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      move_sizes[i] = tokens[i]->alpha_moves.size();
    }
    for (ProductIterator deriv(move_sizes); !deriv.done(); deriv.advance()) {
      double share = 1.0;
      for (std::size_t i = 0; i < arity; ++i) {
        const pepa::Derivative& d = tokens[i]->alpha_moves[deriv.indices()[i]];
        share *= d.rate.value() / place_apparent[i].value();
      }
      const double variant_rate =
          combined.value() * share / static_cast<double>(variants.size());
      for (const Variant& variant : variants) {
        NetMove move;
        move.kind = NetMove::Kind::kFiring;
        move.action = alpha;
        move.rate = combined.is_passive() ? pepa::Rate::passive(variant_rate)
                                          : pepa::Rate::active(variant_rate);
        move.transition = t;
        move.target = marking;
        // Remove every fired token, then deposit the evolved derivatives
        // (vacancy was evaluated against the pre-firing marking, per
        // Definition 6).
        for (std::size_t i = 0; i < arity; ++i) {
          move.target[net_.slot_offset(transition.inputs[i], tokens[i]->slot)] =
              kVacant;
        }
        for (std::size_t i = 0; i < arity; ++i) {
          const std::size_t out_place_index = variant.assignment[i];
          const CellChoice& cell =
              vacancies[out_place_index]
                       [variant.cell_choice[out_place_index]];
          const pepa::Derivative& d = tokens[i]->alpha_moves[deriv.indices()[i]];
          move.target[net_.slot_offset(transition.outputs[out_place_index],
                                       cell.slot)] = d.target;
        }
        out.push_back(std::move(move));
      }
    }
  }
}

bool NetSemantics::has_concession(const Marking& marking, NetTransitionId t) {
  std::vector<NetMove> moves;
  collect_firings(marking, t, moves);
  return !moves.empty();
}

std::vector<NetMove> NetSemantics::moves(const Marking& marking) {
  std::vector<NetMove> out;
  for (PlaceId place = 0; place < net_.place_count(); ++place) {
    collect_local_moves(marking, place, out);
  }

  // Firings, gated by priority (Definition 5): a net transition is enabled
  // only if no transition of strictly higher priority has concession.
  std::vector<std::vector<NetMove>> firings(net_.transition_count());
  unsigned max_priority_with_concession = 0;
  bool any_concession = false;
  for (NetTransitionId t = 0; t < net_.transition_count(); ++t) {
    collect_firings(marking, t, firings[t]);
    if (!firings[t].empty()) {
      any_concession = true;
      max_priority_with_concession =
          std::max(max_priority_with_concession, net_.transition(t).priority);
    }
  }
  if (any_concession) {
    for (NetTransitionId t = 0; t < net_.transition_count(); ++t) {
      if (net_.transition(t).priority != max_priority_with_concession) continue;
      for (NetMove& move : firings[t]) out.push_back(std::move(move));
    }
  }
  return out;
}

}  // namespace choreo::pepanet
