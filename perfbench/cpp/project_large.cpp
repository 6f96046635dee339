// project_large: one caller analyses the paper's Tomcat JSP project (the
// uncached server of Figures 8-9 with 12 clients: 126,976 states, 847,872
// transitions) one job after another through chor::analyse_project, from
// XMI text to annotated XMI text.  Derivation and measures dominate; XMI
// and UML handling are under 1% of a job.
#include <stdexcept>

#include "bench.hpp"
#include "checks.hpp"
#include "choreographer/pipeline.hpp"
#include "inputs.hpp"
#include "traced_pipeline.hpp"
#include "util/thread_pool.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace perfbench {

namespace {

namespace chor = choreo::chor;

/// The project and the options every job uses.
struct Inputs {
  std::string project_xmi;
  chor::AnalysisOptions options;
};

Inputs make_inputs(const Config& config) {
  Rng rng(config.seed);
  Inputs inputs;
  const chor::TomcatParams params =
      inputs::tomcat_params(rng, config.smoke ? 3 : 12);
  inputs.project_xmi = inputs::tomcat_project(false, params, rng);
  // Two exploration lanes exercise the parallel engine and leave half of a
  // four-core host to the rest of the system.
  inputs.options.derive_threads = 2;
  choreo::util::ThreadPool::shared();
  return inputs;
}

/// The job as a user runs it: XMI text in, annotated XMI text out.
ProjectOutput analyse(const Inputs& inputs) {
  ProjectOutput output;
  const choreo::xml::Document project =
      choreo::xml::parse_document(inputs.project_xmi);
  const choreo::xml::Document annotated =
      chor::analyse_project(project, inputs.options, &output.report);
  output.annotated_xmi = choreo::xml::to_string(annotated);
  return output;
}

/// Runs one job and its checks, then compares its annotated XMI with the
/// first good job's (normally the warm-up's); a thrown error is the job's
/// failure.
template <typename Job>
std::string run_checked(Job&& job, std::string& first, const char* what) {
  try {
    const ProjectOutput output = job();
    if (std::string failure = checks::tomcat_project(output.annotated_xmi,
                                                     output.report, false);
        !failure.empty()) {
      return failure;
    }
    if (first.empty()) {
      first = output.annotated_xmi;
      return "";
    }
    return checks::same_bytes(what, first, output.annotated_xmi);
  } catch (const std::exception& error) {
    return std::string("job threw: ") + error.what();
  }
}

}  // namespace

Outcome run_project_large(const Config& config) {
  Inputs inputs;
  std::string first;
  return single_caller_loop(
      config, [&] { inputs = make_inputs(config); },
      [&] {
        return run_checked([&] { return analyse(inputs); }, first,
                           "annotated XMI of a repeated job");
      },
      // The traced job must reproduce the untraced output byte for byte.
      [&](Tracer& tracer) {
        return run_checked(
            [&] {
              return traced_project(inputs.project_xmi, inputs.options, tracer);
            },
            first, "traced annotated XMI");
      });
}

}  // namespace perfbench
