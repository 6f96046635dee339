// E4 (paper Figures 8-9): the Tomcat JSP client/server study and the
// direct-servlet-lookup optimisation.
//
// Report: client/server steady-state probabilities, the with/without
// optimisation comparison ("the reduction in the delay spent waiting for
// the response from the server"), and the client-population sweep.
// Benchmarks: state-machine extraction and CTMC solution as the client
// population grows.
#include "bench_common.hpp"

#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "choreographer/pipeline.hpp"
#include "ctmc/passage.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {
using namespace choreo;

struct Variant {
  double response_throughput = 0.0;
  double waiting_probability = 0.0;
  std::size_t states = 0;
};

Variant analyse_variant(bool cached, std::size_t clients) {
  chor::TomcatParams params;
  params.clients = clients;
  uml::Model model = chor::tomcat_model(cached, params);
  const auto report = chor::analyse(model);
  Variant variant;
  variant.states = report.state_machines.at(0).state_count;
  for (const auto& [action, value] : report.state_machines[0].throughputs) {
    if (action == "response") variant.response_throughput = value;
  }
  const uml::StateMachine& client = model.state_machines()[0];
  variant.waiting_probability =
      client.states()[*client.find_state("WaitForResponse")].tags.get_double(
          "probability", 0.0);
  return variant;
}

/// Response-time distribution: the first passage from "request just sent"
/// to "response received", i.e. from the post-request state to any state
/// where the client occupies ProcessResponse.  The mean is the paper's
/// "delay spent waiting for the response"; the 90th percentile comes from
/// the passage CDF.
struct ResponseTime {
  double mean = 0.0;
  double p90 = 0.0;
};

ResponseTime response_time(bool cached) {
  auto extraction = chor::extract_state_machines(chor::tomcat_model(cached));
  pepa::Semantics semantics(extraction.model.arena());
  const auto space =
      pepa::StateSpace::derive(semantics, extraction.model.system());
  const auto& arena = extraction.model.arena();

  // Source: the (unique) target of the initial state's 'request' move.
  const auto request = *arena.find_action("request");
  std::size_t source = 0;
  for (const auto& t : space.transitions()) {
    if (t.source == 0 && t.action == request) source = t.target;
  }
  // Targets: client in ProcessResponse.
  const auto processing = space.local_states(arena).occupying(
      *arena.find_constant("ProcessResponse"));
  const std::vector<std::size_t> targets(processing.begin(), processing.end());

  const auto generator = space.generator();
  ResponseTime result;
  result.mean = ctmc::mean_passage_time(generator, source, targets);
  std::vector<double> initial(space.state_count(), 0.0);
  initial[source] = 1.0;
  // 90th percentile by bisection on the passage CDF.
  double lo = 0.0, hi = result.mean * 8.0 + 1.0;
  for (int i = 0; i < 40; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double cdf =
        ctmc::passage_cdf(generator, initial, targets, {mid})[0];
    (cdf < 0.9 ? lo : hi) = mid;
  }
  result.p90 = 0.5 * (lo + hi);
  return result;
}

void report() {
  // The paper's headline comparison at one client.
  const Variant uncached = analyse_variant(false, 1);
  const Variant cached = analyse_variant(true, 1);
  util::TextTable headline({"measure", "uncached", "cached", "factor"});
  headline.add_row_values("response throughput (1/s)",
                          {uncached.response_throughput,
                           cached.response_throughput,
                           cached.response_throughput /
                               uncached.response_throughput});
  headline.add_row_values("P[client waiting]",
                          {uncached.waiting_probability,
                           cached.waiting_probability,
                           uncached.waiting_probability /
                               cached.waiting_probability});
  const double delay_u = uncached.waiting_probability / uncached.response_throughput;
  const double delay_c = cached.waiting_probability / cached.response_throughput;
  headline.add_row_values("mean waiting delay (s)",
                          {delay_u, delay_c, delay_u / delay_c});
  std::cout << headline
            << "shape: the cache bypasses translate+compile, the two slowest"
               " stages\n\n";

  // The paper quantifies the optimisation "in terms of the reduction in
  // the delay spent waiting for the response": the response-time passage
  // distribution, request sent -> response received.
  const ResponseTime rt_uncached = response_time(false);
  const ResponseTime rt_cached = response_time(true);
  util::TextTable response({"response time", "uncached", "cached", "factor"});
  response.add_row_values("mean (s)", {rt_uncached.mean, rt_cached.mean,
                                       rt_uncached.mean / rt_cached.mean});
  response.add_row_values("90th percentile (s)",
                          {rt_uncached.p90, rt_cached.p90,
                           rt_uncached.p90 / rt_cached.p90});
  std::cout << response << '\n';

  // The population sweep: saturation widens the gap.
  util::TextTable sweep({"clients", "states (uncached)", "uncached resp/s",
                         "cached resp/s", "factor"});
  for (std::size_t clients = 1; clients <= 6; ++clients) {
    const Variant u = analyse_variant(false, clients);
    const Variant c = analyse_variant(true, clients);
    sweep.add_row_values(std::to_string(clients),
                         {static_cast<double>(u.states), u.response_throughput,
                          c.response_throughput,
                          c.response_throughput / u.response_throughput});
  }
  std::cout << sweep << '\n';
}

void BM_TomcatExtractAndSolve(benchmark::State& state) {
  chor::TomcatParams params;
  params.clients = static_cast<std::size_t>(state.range(0));
  const uml::Model model = chor::tomcat_model(false, params);
  for (auto _ : state) {
    auto extraction = chor::extract_state_machines(model);
    pepa::Semantics semantics(extraction.model.arena());
    const auto space =
        pepa::StateSpace::derive(semantics, extraction.model.system());
    const auto solved = ctmc::steady_state(space.generator());
    benchmark::DoNotOptimize(solved.distribution[0]);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TomcatExtractAndSolve)->DenseRange(1, 6)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  return choreo::bench::run(
      argc, argv, "E4: Tomcat JSP client/server (Figures 8-9)", report);
}
