// Tests for the later extensions: replication arrays in the PEPA syntax
// and simulation-based transient estimation (cross-validated against
// uniformisation).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "pepa/parser.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "sim/system.hpp"
#include "sim/transient.hpp"
#include "util/error.hpp"

namespace cp = choreo::pepa;
namespace cc = choreo::ctmc;
namespace cs = choreo::sim;
namespace cu = choreo::util;

TEST(ReplicationArrays, ExpandToParallelCopies) {
  auto arrayed = cp::parse_model(
      "C = (req, 1.0).(wait, 2.0).(think, 3.0).C; S = C[3]; @system S;");
  auto manual = cp::parse_model(
      "C = (req, 1.0).(wait, 2.0).(think, 3.0).C; S = C || C || C; @system S;");
  cp::Semantics semantics_a(arrayed.arena());
  cp::Semantics semantics_m(manual.arena());
  const auto space_a = cp::StateSpace::derive(semantics_a, arrayed.system());
  const auto space_m = cp::StateSpace::derive(semantics_m, manual.system());
  EXPECT_EQ(space_a.state_count(), space_m.state_count());
  EXPECT_EQ(space_a.transitions().size(), space_m.transitions().size());
}

TEST(ReplicationArrays, SingleCopyIsIdentity) {
  auto model = cp::parse_model("P = (a, 1.0).P; S = P[1]; @system S;");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  EXPECT_EQ(space.state_count(), 1u);
}

TEST(ReplicationArrays, ComposesWithCooperation) {
  auto model = cp::parse_model(R"(
    C = (req, 1.0).(rsp, infty).C;
    Srv = (req, infty).(rsp, 4.0).Srv;
    S = C[2] <req, rsp> Srv;
    @system S;
  )");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  EXPECT_TRUE(space.deadlock_states().empty());
  EXPECT_GT(space.state_count(), 2u);
}

TEST(ReplicationArrays, RejectsBadCounts) {
  EXPECT_THROW(cp::parse_model("P = (a, 1.0).P; S = P[0];"), cu::ParseError);
  EXPECT_THROW(cp::parse_model("P = (a, 1.0).P; S = P[2.5];"), cu::ParseError);
  EXPECT_THROW(cp::parse_model("P = (a, 1.0).P; S = P[x];"), cu::ParseError);
}

TEST(SimTransient, MatchesUniformisation) {
  // P[toggle is On at t] starting from On: closed form
  // pi_On(t) = mu/(l+mu) + l/(l+mu) exp(-(l+mu) t), l=2 (off), mu=3 (on).
  const char* source = "On = (off, 2.0).Off; Off = (on, 3.0).On; @system On;";
  const std::vector<double> times{0.1, 0.3, 0.8, 2.0};
  cs::TransientEstimateOptions options;
  options.replications = 4000;
  options.seed = 99;
  const auto estimates = cs::estimate_transient(
      [&] { return std::make_unique<cs::PepaSystem>(cp::parse_model(source)); },
      [](cs::System& system) {
        return static_cast<cs::PepaSystem&>(system).occupies("On") ? 1.0 : 0.0;
      },
      times, options);
  ASSERT_EQ(estimates.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double exact = 3.0 / 5.0 + 2.0 / 5.0 * std::exp(-5.0 * times[i]);
    EXPECT_NEAR(estimates[i].mean, exact, 0.03) << times[i];
    EXPECT_TRUE(estimates[i].contains(exact) ||
                std::abs(estimates[i].mean - exact) < 0.03)
        << times[i];
  }
}

TEST(SimTransient, DeadlockFreezesTheState) {
  const char* source = "P = (a, 100.0).Stop; @system P;";
  const auto estimates = cs::estimate_transient(
      [&] { return std::make_unique<cs::PepaSystem>(cp::parse_model(source)); },
      [](cs::System& system) {
        return static_cast<cs::PepaSystem&>(system).occupies("P") ? 1.0 : 0.0;
      },
      {5.0, 50.0});
  // By t=5 virtually every replication has deadlocked in Stop.
  EXPECT_LT(estimates[0].mean, 0.05);
  EXPECT_LT(estimates[1].mean, 0.05);
}
