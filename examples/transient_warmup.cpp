// Transient analysis: how quickly does the Tomcat system settle?
//
// Steady-state numbers (the paper's measure) say nothing about the warm-up
// transient a user experiences right after deployment.  Uniformisation
// gives the time-dependent state distribution, from which we plot the
// probability that the client is waiting at time t, for both server
// variants, until each converges to its steady-state value.
//
// Build & run:  ./examples/transient_warmup
#include <cstdint>
#include <iostream>

#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace choreo;

struct Prepared {
  pepa::Model model;
  pepa::StateSpace space;
  std::vector<bool> waiting;  // per state: is the client waiting?
};

Prepared prepare(bool cached) {
  chor::StatechartExtraction extraction =
      chor::extract_state_machines(chor::tomcat_model(cached));
  pepa::Semantics semantics(extraction.model.arena());
  auto space = pepa::StateSpace::derive(semantics, extraction.model.system());
  const auto& arena = extraction.model.arena();
  std::vector<bool> waiting(space.state_count());
  for (const std::uint32_t s : space.local_states(arena).occupying(
           *arena.find_constant("WaitForResponse"))) {
    waiting[s] = true;
  }
  return {std::move(extraction.model), std::move(space), std::move(waiting)};
}

double waiting_probability(const Prepared& prepared,
                           const std::vector<double>& distribution) {
  double sum = 0.0;
  for (std::size_t s = 0; s < distribution.size(); ++s) {
    if (prepared.waiting[s]) sum += distribution[s];
  }
  return sum;
}

}  // namespace

int main() {
  const Prepared uncached = prepare(false);
  const Prepared cached = prepare(true);

  const auto g_uncached = uncached.space.generator();
  const auto g_cached = cached.space.generator();
  const double steady_uncached = waiting_probability(
      uncached, ctmc::steady_state(g_uncached).distribution);
  const double steady_cached =
      waiting_probability(cached, ctmc::steady_state(g_cached).distribution);

  util::TextTable table(
      {"t (s)", "P[waiting] uncached", "P[waiting] cached"});
  for (double t : {0.0, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    const auto at_t_uncached = ctmc::transient_from_state(g_uncached, 0, t);
    const auto at_t_cached = ctmc::transient_from_state(g_cached, 0, t);
    table.add_row_values(
        util::format_double(t),
        {waiting_probability(uncached, at_t_uncached.distribution),
         waiting_probability(cached, at_t_cached.distribution)});
  }
  table.add_row({"steady state", util::format_double(steady_uncached),
                 util::format_double(steady_cached)});
  std::cout << table
            << "\nshape: the uncached server's waiting probability climbs to"
               " its high plateau;\nthe cached one settles quickly at a much"
               " lower level\n";
  return 0;
}
