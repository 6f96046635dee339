// Tests of the fluid (mean-field ODE) backend: vector-form construction,
// the Dormand-Prince stepper, and the validation ladder of the issue —
// fluid vs the full interleaved CTMC at small N, fluid vs the exact
// population (count-vector) CTMC at N up to 1000, and fluid vs simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "ctmc/steady_state.hpp"
#include "fluid/analysis.hpp"
#include "fluid/ode.hpp"
#include "fluid/population.hpp"
#include "fluid/vector_form.hpp"
#include "pepa/families.hpp"
#include "pepa/measures.hpp"
#include "pepa/statespace.hpp"
#include "sim/engine.hpp"
#include "sim/system.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cf = choreo::fluid;
namespace cp = choreo::pepa;
namespace cc = choreo::ctmc;
namespace cs = choreo::sim;
namespace cu = choreo::util;

namespace {

double throughput_of(const std::vector<std::pair<cp::ActionId, double>>& list,
                     cp::ActionId action) {
  for (const auto& [a, value] : list) {
    if (a == action) return value;
  }
  return 0.0;
}

/// Relative difference with an absolute floor for near-zero references.
double relative_error(double fluid, double exact) {
  return std::abs(fluid - exact) / std::max(std::abs(exact), 1e-12);
}

}  // namespace

TEST(VectorForm, ClientServerGroupsAndDimension) {
  auto model = cp::client_server(100);
  cp::Semantics semantics(model.arena());
  const auto form = cf::VectorForm::build(semantics, model.system());

  // 100 identical clients merge into one counted group; the lone server is
  // its own group.  Two local states each.
  ASSERT_EQ(form.groups().size(), 2u);
  EXPECT_EQ(form.dimension(), 4u);
  EXPECT_DOUBLE_EQ(form.groups()[0].count + form.groups()[1].count, 101.0);

  const auto x0 = form.initial_state();
  double total = 0.0;
  for (double v : x0) total += v;
  EXPECT_DOUBLE_EQ(total, 101.0);

  // Both actions of the model appear in the action table.
  ASSERT_EQ(form.actions().size(), 2u);
}

TEST(VectorForm, FlatCostInPopulation) {
  // The representation is independent of N: a million clients yield the
  // same dimension and transition count as ten.
  auto small = cp::client_server(10);
  auto large = cp::client_server(1'000'000);
  cp::Semantics small_sem(small.arena());
  cp::Semantics large_sem(large.arena());
  const auto small_form = cf::VectorForm::build(small_sem, small.system());
  const auto large_form = cf::VectorForm::build(large_sem, large.system());
  EXPECT_EQ(small_form.dimension(), large_form.dimension());
  EXPECT_EQ(small_form.transitions().size(), large_form.transitions().size());
}

TEST(VectorForm, ConservesMassAndPopulations) {
  auto model = cp::client_server(50, {.servers = 5});
  cp::Semantics semantics(model.arena());
  const auto form = cf::VectorForm::build(semantics, model.system());
  auto x = form.initial_state();
  std::vector<double> dx(form.dimension());
  form.derivative(x, dx);
  // Flows stay within each group: the total derivative vanishes groupwise.
  for (const auto& group : form.groups()) {
    double sum = 0.0;
    for (std::size_t s = 0; s < group.states.size(); ++s) {
      sum += dx[group.first + s];
    }
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
  const auto client = model.arena().find_constant("Client");
  ASSERT_TRUE(client.has_value());
  EXPECT_DOUBLE_EQ(form.population(x, *client), 50.0);
}

TEST(VectorForm, RejectsTopLevelPassive) {
  // A lone client is passive on "response" at the top level.
  cp::Model model;
  auto& arena = model.arena();
  const auto response = arena.action("response");
  const auto client = arena.declare("Client");
  arena.define(client, arena.prefix(response, cp::Rate::passive(),
                                    arena.constant(client)));
  model.add_definition(client);
  cp::Semantics semantics(arena);
  EXPECT_THROW(cf::VectorForm::build(semantics, model.system()),
               cu::ModelError);
}

TEST(Ode, MatchesExponentialDecay) {
  // x' = -x, x(0) = 1: the integrator must track e^-t through dense output
  // and land on the steady state x = 0.
  cf::OdeOptions options;
  options.record_trajectory = true;
  options.steady_tolerance = 1e-10;
  options.rel_tol = 1e-8;
  options.abs_tol = 1e-10;
  const auto solution = cf::integrate(
      [](double, std::span<const double> x, std::span<double> dx) {
        dx[0] = -x[0];
      },
      {1.0}, options);
  EXPECT_TRUE(solution.steady_state_reached());
  EXPECT_GT(solution.stats().steps, 0u);
  for (double t : {0.5, 1.0, 3.0}) {
    if (t >= solution.end_time()) continue;
    EXPECT_NEAR(solution.at(t)[0], std::exp(-t), 1e-5) << "t=" << t;
  }
  EXPECT_NEAR(solution.state()[0], 0.0, 1e-7);
}

TEST(Ode, StepControlRejectsAndRecovers) {
  // A stiff-ish oscillation forces rejections; the solution must still be
  // accurate at the horizon.
  cf::OdeOptions options;
  options.t_end = 10.0;
  options.steady_tolerance = 0.0;  // integrate the full horizon
  options.initial_step = 5.0;      // deliberately too large
  const auto solution = cf::integrate(
      [](double, std::span<const double> x, std::span<double> dx) {
        dx[0] = x[1];
        dx[1] = -25.0 * x[0];
      },
      {1.0, 0.0}, options);
  EXPECT_FALSE(solution.steady_state_reached());
  EXPECT_GT(solution.stats().rejected_steps, 0u);
  EXPECT_NEAR(solution.state()[0], std::cos(5.0 * 10.0), 1e-3);
}

TEST(Ode, BudgetCancellationInterrupts) {
  cu::Budget budget;
  budget.request_cancel();
  cf::OdeOptions options;
  options.budget = &budget;
  options.steady_tolerance = 0.0;
  options.t_end = 1e6;
  EXPECT_THROW(cf::integrate(
                   [](double, std::span<const double> x, std::span<double> dx) {
                     dx[0] = -1e-3 * x[0];
                   },
                   {1.0}, options),
               cu::InterruptedError);
}

TEST(Population, MatchesFullInterleavedChain) {
  // The count-vector chain is an exact lumping: its steady-state
  // throughputs must match the full 2^N interleaving to solver precision.
  auto model = cp::client_server(8, {.servers = 2});
  const auto request = *model.arena().find_action("request");

  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  const auto full = cc::steady_state(space.generator());
  const double full_throughput =
      cp::action_throughput(space, full.distribution, request);

  const auto form = cf::VectorForm::build(semantics, model.system());
  const auto population = cf::derive_population(form);
  EXPECT_LT(population.state_count(), space.state_count());
  const auto lumped = cc::steady_state(population.generator());
  const double lumped_throughput =
      population.action_throughput(lumped.distribution, request);

  EXPECT_NEAR(lumped_throughput, full_throughput, 1e-8);

  const auto client = model.arena().find_constant("Client");
  ASSERT_TRUE(client.has_value());
  EXPECT_NEAR(population.mean_population(lumped.distribution, form, *client),
              cp::mean_population(space, full.distribution, model.arena(),
                                  *client),
              1e-8);
}

TEST(Population, BudgetBoundsExploration) {
  // pda_handover shares only "handover", so searching PDAs queue and the
  // count-vector space is (N+1)(transmitters+1) states — big enough to
  // trip a tiny bound (client_server's lockstep chain never would).
  auto model = cp::pda_handover(100);
  cp::Semantics semantics(model.arena());
  const auto form = cf::VectorForm::build(semantics, model.system());
  cf::PopulationOptions options;
  options.max_states = 16;
  EXPECT_THROW(cf::derive_population(form, options), cu::BudgetError);
}

// The acceptance ladder: fluid vs the exact population chain on the
// client/server (Tomcat-core) and PDA-handover families at N in
// {10, 100, 1000}.  The mean-field approximation error shrinks as N grows;
// the bounds below are the documented tolerances (docs/architecture.md).
class FluidVsExact : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FluidVsExact, ClientServerThroughputAndPopulation) {
  const std::size_t n = GetParam();
  // Tolerance: mean-field error is worst at small N near the saturation
  // point; empirically < 8% at N=10 and shrinking roughly as 1/N.
  const double tolerance = n <= 10 ? 0.08 : (n <= 100 ? 0.02 : 0.005);

  // Scale servers with the clients: the mean-field limit is exact only
  // when every population grows with N.
  auto model = cp::client_server(n, {.servers = n / 5});
  const auto request = *model.arena().find_action("request");
  const auto waiting = *model.arena().find_constant("ClientWaiting");

  cp::Semantics semantics(model.arena());
  const auto form = cf::VectorForm::build(semantics, model.system());
  const auto population = cf::derive_population(form);
  const auto exact = cc::steady_state(population.generator());
  const double exact_throughput =
      population.action_throughput(exact.distribution, request);
  const double exact_waiting =
      population.mean_population(exact.distribution, form, waiting);

  cf::FluidOptions options;
  const auto fluid = cf::solve_steady(semantics, model.system(), options);
  const double fluid_throughput = throughput_of(fluid.throughputs, request);

  EXPECT_LT(relative_error(fluid_throughput, exact_throughput), tolerance)
      << "fluid=" << fluid_throughput << " exact=" << exact_throughput;
  EXPECT_LT(relative_error(fluid.population(waiting), exact_waiting),
            tolerance)
      << "fluid=" << fluid.population(waiting) << " exact=" << exact_waiting;
}

TEST_P(FluidVsExact, PdaHandoverThroughput) {
  const std::size_t n = GetParam();
  const double tolerance = n <= 10 ? 0.08 : (n <= 100 ? 0.02 : 0.005);

  auto model = cp::pda_handover(n, {.transmitters = n / 5});
  const auto handover = *model.arena().find_action("handover");

  cp::Semantics semantics(model.arena());
  const auto form = cf::VectorForm::build(semantics, model.system());
  const auto population = cf::derive_population(form);
  const auto exact = cc::steady_state(population.generator());
  const double exact_throughput =
      population.action_throughput(exact.distribution, handover);

  const auto fluid = cf::solve_steady(semantics, model.system());
  EXPECT_LT(relative_error(throughput_of(fluid.throughputs, handover),
                           exact_throughput),
            tolerance)
      << "fluid=" << throughput_of(fluid.throughputs, handover)
      << " exact=" << exact_throughput;
}

INSTANTIATE_TEST_SUITE_P(Populations, FluidVsExact,
                         ::testing::Values(10u, 100u, 1000u));

TEST(Fluid, AgreesWithSimulation) {
  auto model = cp::client_server(50, {.servers = 5});
  const auto request = *model.arena().find_action("request");

  cp::Semantics semantics(model.arena());
  const auto fluid = cf::solve_steady(semantics, model.system());
  const double fluid_throughput = throughput_of(fluid.throughputs, request);

  cs::PepaSystem system(cp::client_server(50, {.servers = 5}));
  choreo::util::Xoshiro256 rng(42);
  cs::RunOptions run;
  run.warmup_time = 50.0;
  run.horizon = 2000.0;
  const auto result = cs::run_trajectory(system, rng, run);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_LT(relative_error(fluid_throughput, result.throughput(request)),
            0.05)
      << "fluid=" << fluid_throughput
      << " sim=" << result.throughput(request);
}

TEST(Fluid, MillionClientsSolveIsSaturatedAndCheap) {
  // 10^6 clients against one server: the server saturates, so throughput
  // equals its response rate; the solve stays a small ODE.
  cp::ClientServerParams params;
  auto model = cp::client_server(1'000'000, params);
  const auto response = *model.arena().find_action("response");

  cp::Semantics semantics(model.arena());
  const auto fluid = cf::solve_steady(semantics, model.system());
  EXPECT_EQ(fluid.form.dimension(), 4u);
  EXPECT_NEAR(throughput_of(fluid.throughputs, response),
              params.response_rate, params.response_rate * 0.01);
  EXPECT_LT(fluid.stats.steps, 100'000u);
}

TEST(Families, RingStateSpaceIsExponential) {
  auto model = cp::ring(10);
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  // Every on/off combination of the 10 stations is reachable.
  EXPECT_EQ(space.state_count(), 1024u);
}

TEST(Families, RejectEmptyPopulations) {
  EXPECT_THROW(cp::client_server(0), cu::ModelError);
  EXPECT_THROW(cp::pda_handover(0), cu::ModelError);
  EXPECT_THROW(cp::ring(0), cu::ModelError);
}
