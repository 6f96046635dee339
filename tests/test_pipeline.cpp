// End-to-end tests of the Figure-4 pipeline: project XMI in, annotated
// project XMI out, layout preserved.
#include <gtest/gtest.h>

#include "choreographer/paper_models.hpp"
#include "choreographer/pipeline.hpp"
#include "uml/xmi.hpp"
#include "xml/parse.hpp"
#include "xml/query.hpp"
#include "xml/write.hpp"

namespace chor = choreo::chor;
namespace cm = choreo::uml;
namespace cx = choreo::xml;

namespace {

/// A project file: the PDA model plus Poseidon-style layout data.
cx::Document pda_project() {
  cx::Document document = cm::to_xmi(chor::pda_handover_model());
  cx::Node& layout = document.root().add_element("Poseidon.layout");
  layout.add_element("node").set_attr("ref", "n1").set_attr("x", "100").set_attr(
      "y", "40");
  layout.add_element("node").set_attr("ref", "n2").set_attr("x", "260").set_attr(
      "y", "40");
  return document;
}

}  // namespace

TEST(Pipeline, AnalyseAnnotatesActivityDiagram) {
  cm::Model model = chor::pda_handover_model();
  const auto report = chor::analyse(model);
  ASSERT_EQ(report.activity_graphs.size(), 1u);
  const auto& result = report.activity_graphs[0];
  EXPECT_EQ(result.graph_name, "pda_handover");
  EXPECT_EQ(result.marking_count, 10u);
  EXPECT_FALSE(result.throughputs.empty());

  // Every action state now carries a throughput tag.
  for (const auto& node : model.activity_graphs()[0].nodes()) {
    if (node.kind == cm::ActivityNode::Kind::kAction) {
      EXPECT_TRUE(node.tags.has("throughput")) << node.name;
    }
  }
}

TEST(Pipeline, AnalyseAnnotatesStateMachines) {
  cm::Model model = chor::tomcat_model(false);
  const auto report = chor::analyse(model);
  ASSERT_EQ(report.state_machines.size(), 1u);
  const auto& result = report.state_machines[0];
  ASSERT_EQ(result.probabilities.size(), 2u);  // client + server

  double client_total = 0.0;
  for (double p : result.probabilities[0]) client_total += p;
  EXPECT_NEAR(client_total, 1.0, 1e-9);

  for (const auto& state : model.state_machines()[0].states()) {
    EXPECT_TRUE(state.tags.has("probability")) << state.name;
  }
}

// The ledger clocks assembly apart from the solve, splits the derive's
// serial part out of its clock, records the solver that ran, with its
// iterations and residual, and clocks the release of what the analysis
// built.
TEST(Pipeline, StageLedgerRecordsAssemblyAndTheSolve) {
  cm::Model model = chor::tomcat_model(false);
  const auto report = chor::analyse(model);
  ASSERT_EQ(report.state_machines.size(), 1u);
  const chor::StageTimings& timings = report.state_machines[0].timings;
  EXPECT_GT(timings.assemble_seconds, 0.0);
  EXPECT_GT(timings.solve_seconds, 0.0);
  // The measures have their own clock; reflection is clocked apart.
  EXPECT_GT(timings.measures_seconds, 0.0);
  EXPECT_GT(timings.reflect_seconds, 0.0);
  EXPECT_GT(timings.teardown_seconds, 0.0);
  EXPECT_EQ(timings.method_used, choreo::ctmc::Method::kDenseLU);
  EXPECT_EQ(timings.iterations, 1u);
  EXPECT_LE(timings.residual, 1e-12);
  EXPECT_GT(timings.derive_stats.serial_seconds, 0.0);
  EXPECT_LE(timings.derive_stats.serial_seconds, timings.derive_seconds());
  // The activity-graph leg clocks its teardown too.
  cm::Model pda = chor::pda_handover_model();
  const auto pda_report = chor::analyse(pda);
  ASSERT_EQ(pda_report.activity_graphs.size(), 1u);
  EXPECT_GT(pda_report.activity_graphs[0].timings.teardown_seconds, 0.0);
}

// Folding adds clocks and iterations, keeps the worst residual and the
// first solve's method.
TEST(Pipeline, StageLedgerFoldsClocksIterationsAndResiduals) {
  chor::StageTimings total;
  chor::StageTimings first;
  first.assemble_seconds = 0.25;
  first.solve_seconds = 1.0;
  first.method_used = choreo::ctmc::Method::kGaussSeidel;
  first.iterations = 24;
  first.residual = 1e-13;
  first.derive_stats.serial_seconds = 0.125;
  first.measures_seconds = 0.0625;
  first.teardown_seconds = 0.03125;
  chor::StageTimings second;
  second.assemble_seconds = 0.5;
  second.solve_seconds = 2.0;
  second.method_used = choreo::ctmc::Method::kDenseLU;
  second.iterations = 1;
  second.residual = 1e-15;
  second.derive_stats.serial_seconds = 0.25;
  second.measures_seconds = 0.125;
  second.teardown_seconds = 0.0625;
  total += first;
  total += second;
  EXPECT_EQ(total.assemble_seconds, 0.75);
  EXPECT_EQ(total.solve_seconds, 3.0);
  EXPECT_EQ(total.method_used, choreo::ctmc::Method::kGaussSeidel);
  EXPECT_EQ(total.iterations, 25u);
  EXPECT_EQ(total.residual, 1e-13);
  EXPECT_EQ(total.derive_stats.serial_seconds, 0.375);
  EXPECT_EQ(total.measures_seconds, 0.1875);
  EXPECT_EQ(total.teardown_seconds, 0.09375);
}

TEST(Pipeline, RatesInputChangesResults) {
  chor::AnalysisOptions slow;
  slow.rates = chor::parse_rates("handover_1 = 0.05\nhandover_2 = 0.05");
  cm::Model fast_model = chor::pda_handover_model();
  cm::Model slow_model = chor::pda_handover_model();
  const auto fast_report = chor::analyse(fast_model);
  const auto slow_report = chor::analyse(slow_model, slow);
  // Slower handovers depress the ring's cycle throughput.
  double fast_handover = 0.0, slow_handover = 0.0;
  for (const auto& [name, value] : fast_report.activity_graphs[0].throughputs) {
    if (name == "handover_1") fast_handover = value;
  }
  for (const auto& [name, value] : slow_report.activity_graphs[0].throughputs) {
    if (name == "handover_1") slow_handover = value;
  }
  EXPECT_LT(slow_handover, fast_handover * 0.5);
}

TEST(Pipeline, ProjectRoundTripPreservesLayout) {
  const cx::Document project = pda_project();
  chor::AnalysisReport report;
  const cx::Document annotated = chor::analyse_project(project, {}, &report);

  // Layout data survived byte-for-byte.
  const cx::Node* layout = annotated.root().find_child("Poseidon.layout");
  ASSERT_NE(layout, nullptr);
  EXPECT_TRUE(
      layout->deep_equals(*project.root().find_child("Poseidon.layout")));

  // The reflected model carries throughput tags.
  const auto tags = cx::descendants_named(annotated.root(), "UML:TaggedValue");
  bool found_throughput = false;
  for (const cx::Node* tag : tags) {
    found_throughput |= tag->attr_or("tag", "") == "throughput";
  }
  EXPECT_TRUE(found_throughput);
  EXPECT_EQ(report.activity_graphs.size(), 1u);
}

TEST(Pipeline, FileLevelPipeline) {
  const std::string input = testing::TempDir() + "/pda_project.xmi";
  const std::string output = testing::TempDir() + "/pda_project_out.xmi";
  cx::write_file(pda_project(), input);
  const auto report = chor::analyse_project_file(input, output);
  EXPECT_EQ(report.activity_graphs.size(), 1u);
  const auto reloaded = cx::parse_file(output);
  EXPECT_NE(reloaded.root().find_child("Poseidon.layout"), nullptr);
  // The annotated document still parses as a UML model with results.
  const cm::Model model = cm::from_xmi(reloaded);
  bool annotated_action = false;
  for (const auto& node : model.activity_graphs()[0].nodes()) {
    annotated_action |= node.tags.has("throughput");
  }
  EXPECT_TRUE(annotated_action);
}

TEST(Pipeline, MixedModelAnalysesBothViews) {
  // A project holding both the activity diagram and the state diagrams.
  cm::Model model = chor::instant_message_model();
  const cm::Model tomcat = chor::tomcat_model(true);
  for (const auto& machine : tomcat.state_machines()) {
    model.add_state_machine(machine);
  }
  const auto report = chor::analyse(model);
  EXPECT_EQ(report.activity_graphs.size(), 1u);
  EXPECT_EQ(report.state_machines.size(), 1u);
}

TEST(Pipeline, AggregatedAnalysisMatchesFull) {
  cm::Model full_model = chor::pda_handover_model();
  cm::Model aggregated_model = chor::pda_handover_model();
  chor::AnalysisOptions aggregate_options;
  aggregate_options.aggregation = chor::Aggregation::kExact;
  const auto full = chor::analyse(full_model);
  const auto aggregated = chor::analyse(aggregated_model, aggregate_options);
  // kExact derives the quotient directly: the reported marking count is
  // the block count, never larger than the raw marking graph.
  EXPECT_LE(aggregated.activity_graphs[0].marking_count,
            full.activity_graphs[0].marking_count);
  EXPECT_GT(aggregated.activity_graphs[0].marking_count, 0u);
  ASSERT_EQ(full.activity_graphs[0].throughputs.size(),
            aggregated.activity_graphs[0].throughputs.size());
  for (std::size_t i = 0; i < full.activity_graphs[0].throughputs.size(); ++i) {
    EXPECT_EQ(full.activity_graphs[0].throughputs[i].first,
              aggregated.activity_graphs[0].throughputs[i].first);
    EXPECT_NEAR(full.activity_graphs[0].throughputs[i].second,
                aggregated.activity_graphs[0].throughputs[i].second, 1e-10);
  }
}
