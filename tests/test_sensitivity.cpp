// Tests for rate-sensitivity analysis: closed-form elasticities on a
// two-phase cycle, the degree-1 homogeneity property (elasticities sum to
// one), and the PDA case study's bottleneck ranking.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>

#include "choreographer/paper_models.hpp"
#include "choreographer/sensitivity.hpp"
#include "util/error.hpp"

namespace chor = choreo::chor;
namespace cm = choreo::uml;
namespace cu = choreo::util;

namespace {

/// A two-stage cyclic activity diagram with rates r1, r2.
cm::Model two_stage(double r1, double r2) {
  cm::Model model("cycle");
  cm::ActivityGraph graph("cycle");
  const auto initial = graph.add_initial();
  const auto first = graph.add_action("first", r1);
  const auto second = graph.add_action("second", r2);
  graph.add_control_flow(initial, first);
  graph.add_control_flow(first, second);
  graph.add_control_flow(second, first);
  const auto obj = graph.add_object("o", "T", "");
  graph.add_object_flow(first, obj, true);
  graph.add_object_flow(second, obj, true);
  model.add_activity_graph(std::move(graph));
  return model;
}

double sum_of_elasticities(const chor::SensitivityReport& report) {
  return std::accumulate(report.entries.begin(), report.entries.end(), 0.0,
                         [](double sum, const chor::SensitivityEntry& entry) {
                           return sum + entry.elasticity;
                         });
}

}  // namespace

TEST(Sensitivity, TwoStageCycleClosedForm) {
  // Cycle throughput T = 1 / (1/r1 + 1/r2); elasticity w.r.t. r1 is
  // (1/r1) / (1/r1 + 1/r2).
  const double r1 = 2.0, r2 = 6.0;
  const auto report = chor::throughput_sensitivity(two_stage(r1, r2), "first");
  EXPECT_NEAR(report.base_value, 1.0 / (1.0 / r1 + 1.0 / r2), 1e-10);
  ASSERT_EQ(report.entries.size(), 2u);
  const double expected_first = (1.0 / r1) / (1.0 / r1 + 1.0 / r2);
  for (const auto& entry : report.entries) {
    const double expected =
        entry.activity == "first" ? expected_first : 1.0 - expected_first;
    EXPECT_NEAR(entry.elasticity, expected, 1e-3) << entry.activity;
  }
  // The slow stage dominates and sorts first.
  EXPECT_EQ(report.entries[0].activity, "first");
}

TEST(Sensitivity, ElasticitiesSumToOne) {
  // Throughput is homogeneous of degree 1 in the full rate vector, so the
  // elasticities over all activities sum to 1 -- on any model.
  const auto cycle = chor::throughput_sensitivity(two_stage(1.0, 3.0), "second");
  EXPECT_NEAR(sum_of_elasticities(cycle), 1.0, 1e-3);

  const auto pda = chor::throughput_sensitivity(chor::pda_handover_model(),
                                                "download_file_1");
  EXPECT_NEAR(sum_of_elasticities(pda), 1.0, 1e-3);

  // With several clients, request and response are shared actions with a
  // passive side; a perturbation that made them active would change the
  // model's synchronisation.
  for (const std::size_t clients : {std::size_t{3}, std::size_t{6}}) {
    const auto tomcat = chor::throughput_sensitivity(
        chor::tomcat_model(false, {.clients = clients}), "response");
    EXPECT_NEAR(sum_of_elasticities(tomcat), 1.0, 1e-3)
        << clients << " clients";
  }
}

TEST(Sensitivity, RatesOverrideMatchesAModelWrittenWithThatRate) {
  // A .rates override of translate is the model with translate rated so:
  // the same base, the same base rates and the same elasticities.
  chor::SensitivityOptions overridden;
  overridden.analysis.rates = {{"translate", 1.5}};
  const auto via_override = chor::throughput_sensitivity(
      chor::tomcat_model(false, {.clients = 3}), "response", overridden);
  const auto written = chor::throughput_sensitivity(
      chor::tomcat_model(false, {.clients = 3, .translate_rate = 1.5}),
      "response");
  EXPECT_EQ(via_override.base_value, written.base_value);
  ASSERT_EQ(via_override.entries.size(), written.entries.size());
  for (std::size_t i = 0; i < written.entries.size(); ++i) {
    EXPECT_EQ(via_override.entries[i].activity, written.entries[i].activity);
    EXPECT_EQ(via_override.entries[i].base_rate, written.entries[i].base_rate)
        << written.entries[i].activity;
    EXPECT_EQ(via_override.entries[i].elasticity,
              written.entries[i].elasticity)
        << written.entries[i].activity;
  }
}

TEST(Sensitivity, PdaBottleneckIsTheHandover) {
  // With the default rates the handover (0.5/s) is by far the slowest
  // stage; speeding it up buys the most download throughput.
  const auto report = chor::throughput_sensitivity(chor::pda_handover_model(),
                                                   "download_file_1");
  ASSERT_GE(report.entries.size(), 2u);
  EXPECT_TRUE(report.entries[0].activity == "handover_1" ||
              report.entries[0].activity == "handover_2")
      << report.entries[0].activity;
  EXPECT_GT(report.entries[0].elasticity, 0.2);
}

TEST(Sensitivity, StateMachineTargets) {
  // Tomcat: the uncached server's response throughput is most sensitive to
  // the slowest stage, translate (0.5/s).
  const auto report =
      chor::throughput_sensitivity(chor::tomcat_model(false), "response");
  EXPECT_GT(report.base_value, 0.0);
  EXPECT_EQ(report.entries[0].activity, "translate");
  EXPECT_NEAR(sum_of_elasticities(report), 1.0, 1e-3);
}

TEST(Sensitivity, UnknownTargetRejected) {
  EXPECT_THROW(
      chor::throughput_sensitivity(chor::pda_handover_model(), "no_such"),
      cu::ModelError);
}
