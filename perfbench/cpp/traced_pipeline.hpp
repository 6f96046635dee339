// Traced twins of the library's two whole-job entry points.  Each makes the
// same public-call sequence as the library function it mirrors, with a
// span around every call:
//
//  - traced_project mirrors xml::parse_document + chor::analyse_project
//    (src/choreographer/pipeline.cpp) + xml::to_string;
//  - traced_sweep mirrors sweep::sweep for the exact backend with one point
//    lane (src/sweep/runner.cpp).
//
// The workloads compare every traced output with the untraced one byte for
// byte, so a change to either call sequence shows up as a failed job; the
// mirror must then be updated in the same change as the sequence.
#pragma once

#include <string>

#include "bench.hpp"
#include "choreographer/pipeline.hpp"
#include "pepa/model.hpp"
#include "sweep/runner.hpp"

namespace perfbench {

struct ProjectOutput {
  std::string annotated_xmi;
  choreo::chor::AnalysisReport report;
};

/// XMI text in, annotated XMI text out, through the pipeline's calls.
/// Fluid aggregation is not mirrored (no workload uses it).
ProjectOutput traced_project(const std::string& project_xmi,
                             const choreo::chor::AnalysisOptions& options,
                             Tracer& tracer);

/// One sweep over `model`, exact backend, points evaluated in order on the
/// calling thread.
choreo::sweep::SweepTable traced_sweep(choreo::pepa::Model& model,
                                       const choreo::sweep::SweepSpec& spec,
                                       const choreo::sweep::SweepOptions& options,
                                       Tracer& tracer);

/// Runs `call` inside a span named `name` and returns its result.
template <typename F>
auto timed(Tracer& tracer, const char* name, F&& call) {
  Tracer::Scope scope(tracer, name);
  return call();
}

}  // namespace perfbench
