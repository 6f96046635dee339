// Property-based tests for PEPA nets: structural invariants that every
// reachable marking of every net must satisfy --
//   (1) token conservation: firings are balanced (Definition 1), so the
//       number of tokens of each type is constant across the marking graph;
//   (2) type safety: a cell of type T only ever holds derivatives reachable
//       from T's initial derivative (the bijections of Definition 4 are
//       type-preserving);
//   (3) statics never vanish: static slots are always occupied.
// Checked on the paper nets and on randomly generated ring nets.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "choreographer/extract_activity.hpp"
#include "choreographer/paper_models.hpp"
#include "pepanet/net_parser.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace cp = choreo::pepa;
namespace cn = choreo::pepanet;
namespace cu = choreo::util;
namespace chor = choreo::chor;

namespace {

/// All derivatives reachable from `initial` (through every action type,
/// firings included: tokens keep their type across moves).
std::set<cp::ProcessId> derivative_closure(cp::ProcessArena& arena,
                                           cp::ProcessId initial) {
  cp::Semantics semantics(arena);
  std::set<cp::ProcessId> closure{initial};
  std::deque<cp::ProcessId> frontier{initial};
  while (!frontier.empty()) {
    const cp::ProcessId term = frontier.front();
    frontier.pop_front();
    const std::span<const cp::Derivative> view = semantics.derivatives(term);
    const std::vector<cp::Derivative> moves(view.begin(), view.end());
    for (const cp::Derivative& d : moves) {
      if (closure.insert(d.target).second) frontier.push_back(d.target);
    }
  }
  return closure;
}

void check_invariants(cn::PepaNet& net) {
  cn::NetSemantics semantics(net);
  const auto space = cn::NetStateSpace::derive(semantics);
  ASSERT_GT(space.marking_count(), 0u);

  // Pre-compute the reachable-derivative closure per token type.
  std::vector<std::set<cp::ProcessId>> closures;
  for (cn::TokenTypeId type = 0; type < net.token_type_count(); ++type) {
    closures.push_back(
        derivative_closure(net.arena(), net.token_type(type).initial));
  }

  // Expected token census from M0.
  std::map<cn::TokenTypeId, std::size_t> initial_census;
  const cn::Marking m0 = net.initial_marking();
  for (cn::PlaceId p = 0; p < net.place_count(); ++p) {
    const cn::Place& place = net.place(p);
    for (std::size_t s = 0; s < place.slots.size(); ++s) {
      if (place.slots[s].kind == cn::Slot::Kind::kCell &&
          m0[net.slot_offset(p, s)] != cn::kVacant) {
        ++initial_census[place.slots[s].cell_type];
      }
    }
  }

  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    const cn::Marking& marking = space.marking(m);
    std::map<cn::TokenTypeId, std::size_t> census;
    for (cn::PlaceId p = 0; p < net.place_count(); ++p) {
      const cn::Place& place = net.place(p);
      for (std::size_t s = 0; s < place.slots.size(); ++s) {
        const cp::ProcessId content = marking[net.slot_offset(p, s)];
        if (place.slots[s].kind == cn::Slot::Kind::kStatic) {
          EXPECT_NE(content, cn::kVacant) << "static vanished in marking " << m;
          continue;
        }
        if (content == cn::kVacant) continue;
        const cn::TokenTypeId type = place.slots[s].cell_type;
        ++census[type];
        EXPECT_TRUE(closures[type].count(content))
            << "marking " << m << ": cell of type "
            << net.token_type(type).name
            << " holds a derivative outside its type's closure";
      }
    }
    EXPECT_EQ(census, initial_census) << "token census changed in marking " << m;
  }
}

/// A random net: a ring of places, 1-2 token types with random cyclic
/// behaviours interleaving local work and hops, and hop transitions around
/// the ring.
std::string random_net(std::uint64_t seed) {
  cu::Xoshiro256 rng(seed);
  const std::size_t places = 2 + rng.below(3);
  const std::size_t types = 1 + rng.below(2);
  std::string source;
  for (std::size_t t = 0; t < types; ++t) {
    // T_t cycles: work* then hop (a firing), possibly with a choice.
    const std::string base = "Tok" + std::to_string(t);
    const std::size_t work_stages = 1 + rng.below(2);
    std::string current = base;
    for (std::size_t w = 0; w < work_stages; ++w) {
      const std::string next =
          w + 1 == work_stages ? base + "_ready" : base + "_w" + std::to_string(w);
      const double rate = 0.5 + 0.5 * static_cast<double>(rng.below(6));
      source += current + " = (work" + std::to_string(rng.below(2)) + ", " +
                cu::format_double(rate) + ")." + next + ";\n";
      current = next;
    }
    source += current + " = (hop, " +
              cu::format_double(0.5 + 0.5 * static_cast<double>(rng.below(4))) +
              ")." + base + ";\n";
  }
  for (std::size_t t = 0; t < types; ++t) {
    source += "@token Tok" + std::to_string(t) + ";\n";
  }
  for (std::size_t p = 0; p < places; ++p) {
    source += "@place ring" + std::to_string(p) + " {";
    for (std::size_t t = 0; t < types; ++t) {
      source += " cell Tok" + std::to_string(t);
      if (p == rng.below(places)) source += " = Tok" + std::to_string(t);
      source += ";";
    }
    source += " }\n";
  }
  for (std::size_t p = 0; p < places; ++p) {
    source += "@transition hop (rate infty) from ring" + std::to_string(p) +
              " to ring" + std::to_string((p + 1) % places) + ";\n";
  }
  return source;
}

}  // namespace

TEST(NetInvariants, PaperNets) {
  {
    auto extraction = chor::extract_activity_graph(
        chor::instant_message_model().activity_graphs()[0]);
    check_invariants(extraction.net);
  }
  {
    auto extraction = chor::extract_activity_graph(
        chor::pda_handover_model().activity_graphs()[0]);
    check_invariants(extraction.net);
  }
  {
    auto extraction = chor::extract_activity_graph(
        chor::file_activity_model().activity_graphs()[0]);
    check_invariants(extraction.net);
  }
}

class RandomNets : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNets, InvariantsHoldOnEveryReachableMarking) {
  auto parsed = cn::parse_net(random_net(GetParam()));
  check_invariants(parsed.net);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNets,
                         ::testing::Range<std::uint64_t>(100, 120));
