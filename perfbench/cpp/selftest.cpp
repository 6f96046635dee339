// The checkers' own test: each checker first passes a real output of the
// program, then must fire on a copy with one value corrupted.
#include "bench.hpp"
#include "checks.hpp"
#include "choreographer/pipeline.hpp"
#include "inputs.hpp"
#include "pepa/parser.hpp"
#include "sweep/runner.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace perfbench {

namespace {

namespace chor = choreo::chor;

struct Analysed {
  std::string annotated_xmi;
  chor::AnalysisReport report;
};

Analysed analyse(const std::string& project_xmi) {
  Analysed out;
  const choreo::xml::Document annotated = chor::analyse_project(
      choreo::xml::parse_document(project_xmi), {}, &out.report);
  out.annotated_xmi = choreo::xml::to_string(annotated);
  return out;
}

/// Scales the named throughput by (1 + 1e-6).
checks::Throughputs nudged(checks::Throughputs throughputs,
                           const std::string& name) {
  for (auto& [action, value] : throughputs) {
    if (action == name) value *= 1.0 + 1e-6;
  }
  return throughputs;
}

/// The annotated XMI with the first reflected probability changed.
std::string corrupt_probability(std::string xmi) {
  const std::string tag = "tag=\"probability\" value=\"";
  const std::size_t at = xmi.find(tag);
  if (at == std::string::npos) return xmi;
  char& digit = xmi[at + tag.size() + 2];  // first digit after "0."
  digit = digit == '9' ? '1' : static_cast<char>(digit + 1);
  return xmi;
}

}  // namespace

std::vector<std::string> checker_self_test() {
  std::vector<std::string> silent;
  // A checker passes on the real output and fires on the corrupted one.
  auto expect = [&](const std::string& name, const std::string& on_real,
                    const std::string& on_corrupt) {
    if (!on_real.empty()) silent.push_back(name + " (rejects a real output: " + on_real + ")");
    if (on_corrupt.empty()) silent.push_back(name);
  };

  Rng rng(7);
  const Analysed tomcat =
      analyse(inputs::tomcat_project(false, inputs::tomcat_params(rng, 3), rng));
  expect("tomcat_project (reflected probability)",
         checks::tomcat_project(tomcat.annotated_xmi, tomcat.report, false),
         checks::tomcat_project(corrupt_probability(tomcat.annotated_xmi),
                                tomcat.report, false));
  const checks::Throughputs& cycle =
      tomcat.report.state_machines.front().throughputs;
  expect("tomcat_cycle", checks::tomcat_cycle(cycle, false),
         checks::tomcat_cycle(nudged(cycle, "compile"), false));
  expect("probabilities_sum_to_one",
         checks::probabilities_sum_to_one(
             tomcat.report.state_machines.front().probabilities),
         checks::probabilities_sum_to_one({{0.25, 0.75}, {0.5, 0.5 + 1e-7}}));

  const Analysed pda = analyse(inputs::pda_project(3, rng));
  const checks::Throughputs& ring = pda.report.activity_graphs.front().throughputs;
  expect("pda_ring (handover)", checks::pda_ring(ring, 3),
         checks::pda_ring(nudged(ring, "handover_2"), 3));
  expect("pda_ring (continue/abort)", checks::pda_ring(ring, 3),
         checks::pda_ring(nudged(ring, "abort_download_3"), 3));

  const Analysed message = analyse(inputs::instant_message_project(rng));
  const checks::Throughputs& loop =
      message.report.activity_graphs.front().throughputs;
  expect("single_cycle", checks::single_cycle(loop),
         checks::single_cycle(nudged(loop, "transmit")));

  choreo::pepa::Model model =
      choreo::pepa::parse_model(inputs::tomcat_pepa(false, 3, rng));
  choreo::sweep::SweepSpec spec;
  spec.axes = {choreo::sweep::Axis::list("tran", {0.4, 0.6}),
               choreo::sweep::Axis::list("comp", {0.7, 0.9})};
  choreo::sweep::SweepOptions options;
  options.threads = 1;
  const choreo::sweep::SweepTable table = choreo::sweep::sweep(model, spec, options);
  choreo::sweep::SweepTable nudged_table = table;
  nudged_table.rows[3].measures[2] *= 1.0 + 1e-6;
  expect("tomcat_sweep (measure)", checks::tomcat_sweep(table, false),
         checks::tomcat_sweep(nudged_table, false));
  choreo::sweep::SweepTable failed_row = table;
  failed_row.rows[1].error = "solver diverged";
  expect("tomcat_sweep (row error)", checks::tomcat_sweep(table, false),
         checks::tomcat_sweep(failed_row, false));
  expect("same_table", checks::same_table(table, table),
         checks::same_table(table, nudged_table));

  std::string flipped = tomcat.annotated_xmi;
  flipped[flipped.size() / 2] ^= 1;
  expect("same_bytes",
         checks::same_bytes("xmi", tomcat.annotated_xmi, tomcat.annotated_xmi),
         checks::same_bytes("xmi", tomcat.annotated_xmi, flipped));
  return silent;
}

}  // namespace perfbench
