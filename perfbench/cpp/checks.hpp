// Per-job output checks.  The invariant checks test properties that hold by
// the model's construction, never an earlier answer of the program:
//
//  - each state machine's steady-state probabilities sum to 1;
//  - in the Tomcat scenario every action of the request cycle completes
//    once per request, so its throughput equals request's;
//  - on the PDA handover ring every hop is passed once per round, so the
//    hop actions share one throughput, and the equal-rate continue/abort
//    outcome splits it in half;
//  - the instant-message diagram is one cycle, so all its actions share a
//    throughput.
//
// same_table and same_bytes compare outputs that must be identical: a cache
// hit and the first answer to its request, a traced path and the library
// call it mirrors.
//
// A check returns an empty string on success, otherwise the reason.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "choreographer/pipeline.hpp"
#include "sweep/runner.hpp"

namespace perfbench::checks {

using Throughputs = std::vector<std::pair<std::string, double>>;

/// Each machine's probabilities sum to 1 within 1e-9.
std::string probabilities_sum_to_one(
    const std::vector<std::vector<double>>& probabilities);

/// Tomcat request cycle: request, response, offlineProcessing and the
/// server's lifecycle actions (locatejsp/translate/compile/execute, or
/// locateservlet/execute with the servlet cache) share one throughput,
/// within 1e-9 relative (as every throughput check here).
/// `prefix` is prepended to action names ("throughput:" in sweep tables).
std::string tomcat_cycle(const Throughputs& throughputs, bool cached,
                         const std::string& prefix = "");

/// PDA ring of `hops` transmitters: download/detect/search/handover of
/// every hop share one throughput, and continue_download_i equals
/// abort_download_i (their rates are equal by construction).
std::string pda_ring(const Throughputs& throughputs, std::size_t hops);

/// Instant message: every action of the single cycle shares a throughput.
std::string single_cycle(const Throughputs& throughputs);

/// An analysed Tomcat project: the probabilities reflected into the
/// annotated XMI (parsed back) and the report's request cycle.
std::string tomcat_project(const std::string& annotated_xmi,
                           const choreo::chor::AnalysisReport& report,
                           bool cached);

/// Every row of a Tomcat sweep table is ok() and satisfies tomcat_cycle.
std::string tomcat_sweep(const choreo::sweep::SweepTable& table, bool cached);

/// Two sweep tables agree exactly (axes, measures, every value and error).
std::string same_table(const choreo::sweep::SweepTable& expected,
                       const choreo::sweep::SweepTable& actual);

/// `actual` is byte-identical to `expected`.
std::string same_bytes(const std::string& what, const std::string& expected,
                       const std::string& actual);

}  // namespace perfbench::checks
