// E5 (paper Figure 4): the extraction/reflection pipeline itself.
//
// Report: round-trip fidelity -- the layout subtree survives byte-for-byte
// and the structural XMI round-trips losslessly -- plus pipeline latency
// per stage as the model grows.  Benchmarks: preprocess, XMI read/write,
// extraction, and the end-to-end project pipeline.
#include "bench_common.hpp"

#include "choreographer/extract_activity.hpp"
#include "choreographer/paper_models.hpp"
#include "choreographer/pipeline.hpp"
#include "uml/layout.hpp"
#include "uml/xmi.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace {
using namespace choreo;

xml::Document project_with_layout(std::size_t transmitters) {
  chor::PdaParams params;
  params.transmitters = transmitters;
  xml::Document document = uml::to_xmi(chor::pda_handover_model(params));
  xml::Node& layout = document.root().add_element("Poseidon.layout");
  for (std::size_t i = 0; i < transmitters * 7; ++i) {
    layout.add_element("node")
        .set_attr("ref", util::msg("n", i))
        .set_attr("x", std::to_string(40 * i))
        .set_attr("y", std::to_string(60 + 10 * (i % 7)));
  }
  return document;
}

void report() {
  // Fidelity checks.
  const xml::Document project = project_with_layout(2);
  const auto split = uml::preprocess(project);
  const auto merged = uml::postprocess(split.model, split.layout);
  const bool layout_identical =
      merged.root().find_child("Poseidon.layout")->deep_equals(
          *project.root().find_child("Poseidon.layout"));
  const xml::Document once = uml::to_xmi(uml::from_xmi(split.model));
  const xml::Document twice = uml::to_xmi(uml::from_xmi(once));
  const bool structure_stable = once.root().deep_equals(twice.root());
  std::cout << "layout preserved byte-for-byte: "
            << (layout_identical ? "yes" : "NO") << '\n'
            << "XMI read/write is a round-trip:  "
            << (structure_stable ? "yes" : "NO") << "\n\n";

  // Per-stage latency as the model grows.
  util::TextTable table({"transmitters", "XMI bytes", "parse ms", "extract ms",
                         "solve ms", "reflect+write ms", "total ms"});
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    const xml::Document document = project_with_layout(n);
    const std::string text = xml::to_string(document);

    util::Stopwatch total;
    util::Stopwatch stage;
    const xml::Document parsed = xml::parse_document(text);
    const auto parts = uml::preprocess(parsed);
    uml::Model model = uml::from_xmi(parts.model);
    const double parse_ms = stage.milliseconds();

    stage.restart();
    auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
    const double extract_ms = stage.milliseconds();

    stage.restart();
    const auto report = chor::analyse(model);
    const double solve_ms = stage.milliseconds();

    stage.restart();
    const xml::Document annotated =
        uml::postprocess(uml::to_xmi(model), parts.layout);
    const std::string out = xml::to_string(annotated);
    const double write_ms = stage.milliseconds();

    table.add_row_values(std::to_string(n),
                         {static_cast<double>(text.size()), parse_ms,
                          extract_ms, solve_ms, write_ms,
                          total.milliseconds()});
    benchmark::DoNotOptimize(out.size());
    benchmark::DoNotOptimize(report.activity_graphs.size());
  }
  std::cout << table << '\n';
}

void BM_Preprocess(benchmark::State& state) {
  const xml::Document project = project_with_layout(8);
  for (auto _ : state) {
    auto split = uml::preprocess(project);
    benchmark::DoNotOptimize(split.layout.size());
  }
}
BENCHMARK(BM_Preprocess);

void BM_XmiParse(benchmark::State& state) {
  const std::string text = xml::to_string(project_with_layout(8));
  for (auto _ : state) {
    const auto document = xml::parse_document(text);
    benchmark::DoNotOptimize(document.root().children().size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_XmiParse);

void BM_XmiWrite(benchmark::State& state) {
  const xml::Document document = project_with_layout(8);
  for (auto _ : state) {
    const std::string text = xml::to_string(document);
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_XmiWrite);

void BM_EndToEndProject(benchmark::State& state) {
  const xml::Document project =
      project_with_layout(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const xml::Document annotated = chor::analyse_project(project);
    benchmark::DoNotOptimize(annotated.root().children().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EndToEndProject)->Arg(2)->Arg(4)->Arg(8)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  return choreo::bench::run(
      argc, argv, "E5: extraction/reflection pipeline (Figure 4)", report);
}
