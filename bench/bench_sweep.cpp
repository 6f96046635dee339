// Design-space sweep amortization: derive once, re-solve K times.
//
// Report, part 1 (sweep_amortization): the Tomcat servlet-caching model
// (paper Figures 8-9) swept over the servlet-lookup rate at K = 10, 100
// and 1000 points.  The baseline runs K independent jobs — parse, derive,
// solve, measure per point, exactly what K manifest lines cost — while
// the sweep engine derives the shared rate-stripped structure once and
// rebinds only the rate payload per point.
//
// Report, part 2 (sweep_scaling): the same comparison on a replicated
// client/server model whose state space grows with the population.  Here
// the per-point solve is real work at every point, so the amortization is
// bounded: skipping parse + derivation + dedup, with a rebind and an
// assembly cheaper than the solve, holds a ~4x per-point advantage as the
// state space grows from 10^2 to 4·10^3 states.
//
// Report, part 3 (sweep_point_layers): where a sweep point's time goes on
// the end-to-end benchmark's sweep_grid model -- the uncached Tomcat server
// (models/tomcat.pepa) with ten clients, a 6 x 6 log grid over the
// translate and compile rates.  It times the once-per-sweep set-up (derive
// plus the rate tape and generator pattern recordings, each reported apart)
// beside a plain derive of the same model, reports the tape's node count,
// and the median per-point rebind, assembly, solve and measures seconds.
#include "bench_common.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "ctmc/steady_state.hpp"
#include "pepa/measures.hpp"
#include "pepa/parser.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {
using namespace choreo;

/// models/tomcat_cached.pepa with the servlet-lookup rate substituted, so
/// the baseline can re-parse the model per point the way K independent
/// manifest jobs would.
std::string tomcat_source(double locs) {
  return util::msg(
      "req = 5.0; offp = 2.0; locs = ", util::format_double(locs),
      "; exec = 10.0; resp = 25.0;\n"
      "GenerateRequest  = (request, req).WaitForResponse;\n"
      "WaitForResponse  = (response, infty).ProcessResponse;\n"
      "ProcessResponse  = (offlineProcessing, offp).GenerateRequest;\n"
      "ServerIdle       = (request, infty).ProcessRequest;\n"
      "ProcessRequest   = (locateservlet, locs).CompiledJavaCode;\n"
      "CompiledJavaCode = (execute, exec).SendHTTPResponse;\n"
      "SendHTTPResponse = (response, resp).ServerIdle;\n"
      "System = GenerateRequest <request, response> ServerIdle;\n"
      "@system System;\n");
}

/// A replicated client/server model: the state space grows with `clients`,
/// so the single shared derivation is the dominant baseline cost.
std::string client_server_source(std::size_t clients, double rate) {
  return util::msg(
      "r = ", util::format_double(rate),
      "; s = 2.0; t = 1.5;\n"
      "Client = (request, r).Wait;\n"
      "Wait   = (response, infty).Think;\n"
      "Think  = (think, t).Client;\n"
      "Server = (request, infty).Serve;\n"
      "Serve  = (response, s).Server;\n"
      "System = Client[", clients, "] <request, response> Server[2];\n"
      "@system System;\n");
}

/// models/tomcat.pepa (the uncached JSP lifecycle: locate, translate,
/// compile) with `clients` replicated clients.
std::string tomcat_jsp_source(std::size_t clients) {
  return util::msg(
      "req = 5.0; offp = 2.0;\n"
      "locj = 20.0; tran = 0.5; comp = 0.8; exec = 10.0; resp = 25.0;\n"
      "GenerateRequest   = (request, req).WaitForResponse;\n"
      "WaitForResponse   = (response, infty).ProcessResponse;\n"
      "ProcessResponse   = (offlineProcessing, offp).GenerateRequest;\n"
      "ServerIdle        = (request, infty).ProcessRequest;\n"
      "ProcessRequest    = (locatejsp, locj).AccessJSPFile;\n"
      "AccessJSPFile     = (translate, tran).GeneratedJavaCode;\n"
      "GeneratedJavaCode = (compile, comp).CompiledJavaCode;\n"
      "CompiledJavaCode  = (execute, exec).SendHTTPResponse;\n"
      "SendHTTPResponse  = (response, resp).ServerIdle;\n"
      "System = GenerateRequest[",
      clients,
      "] <request, response> ServerIdle;\n"
      "@system System;\n");
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : 0.5 * (samples[mid - 1] + samples[mid]);
}

struct Comparison {
  std::size_t points = 0;
  std::size_t states = 0;
  double baseline_seconds = 0.0;
  double sweep_seconds = 0.0;
  std::size_t derivations = 0;
  double speedup() const {
    return sweep_seconds > 0.0 ? baseline_seconds / sweep_seconds : 0.0;
  }
};

/// One independent job at one point: parse, derive, solve, measure — the
/// cost of one manifest line.
double independent_job(const std::string& source) {
  pepa::Model model = pepa::parse_model(source, "<bench>");
  pepa::Semantics semantics(model.arena());
  const auto space = pepa::StateSpace::derive(semantics, model.system());
  const auto solved = ctmc::steady_state(space.generator());
  double total = 0.0;
  for (const auto& [action, value] :
       pepa::all_throughputs(space, solved.distribution, model.arena())) {
    total += value;
  }
  return total;
}

template <typename SourceAt>
Comparison compare(const std::string& base_source, const sweep::SweepSpec& spec,
                   SourceAt source_at) {
  Comparison comparison;
  comparison.points = spec.point_count();

  util::Stopwatch timer;
  double sink = 0.0;
  for (std::size_t p = 0; p < comparison.points; ++p) {
    sink += independent_job(source_at(spec.point(p)[0]));
  }
  benchmark::DoNotOptimize(sink);
  comparison.baseline_seconds = timer.seconds();

  // One point lane, as the baseline runs its jobs one after another, so
  // the ratio is the amortization alone on any core count.
  timer.restart();
  pepa::Model model = pepa::parse_model(base_source, "<bench>");
  sweep::SweepOptions options;
  options.threads = 1;
  const sweep::SweepTable table = sweep::sweep(model, spec, options);
  comparison.sweep_seconds = timer.seconds();
  comparison.states = table.state_count;
  comparison.derivations = table.derivations;
  return comparison;
}

void report() {
  // Part 1: the Tomcat model at K = 10, 100, 1000.
  util::TextTable amortization({"points", "states", "baseline ms", "sweep ms",
                                "baseline us/pt", "sweep us/pt", "speedup"});
  for (const std::size_t points :
       {std::size_t{10}, std::size_t{100}, std::size_t{1000}}) {
    sweep::SweepSpec spec;
    spec.axes.push_back(sweep::Axis::linear("locs", 5.0, 100.0, points));
    const Comparison run = compare(tomcat_source(40.0), spec, tomcat_source);
    amortization.add_row(
        {std::to_string(run.points), std::to_string(run.states),
         util::format_double(run.baseline_seconds * 1e3),
         util::format_double(run.sweep_seconds * 1e3),
         util::format_double(run.baseline_seconds / run.points * 1e6),
         util::format_double(run.sweep_seconds / run.points * 1e6),
         util::format_double(run.speedup())});
    bench::json_record(bench::JsonObject()
                           .field("experiment", "sweep_amortization")
                           .field("model", "tomcat_cached")
                           .field("points", run.points)
                           .field("states", run.states)
                           .field("derivations", run.derivations)
                           .field("baseline_seconds", run.baseline_seconds)
                           .field("sweep_seconds", run.sweep_seconds)
                           .field("baseline_seconds_per_point",
                                  run.baseline_seconds / run.points)
                           .field("sweep_seconds_per_point",
                                  run.sweep_seconds / run.points)
                           .field("speedup", run.speedup()));
  }
  std::cout << "Tomcat servlet-caching model: K independent jobs vs one "
               "derive-once sweep\n"
            << amortization << '\n';

  // Part 2: state spaces that grow with the population.
  util::TextTable scaling({"clients", "states", "baseline ms", "sweep ms",
                           "speedup"});
  for (const std::size_t clients :
       {std::size_t{4}, std::size_t{6}, std::size_t{8}}) {
    sweep::SweepSpec spec;
    spec.axes.push_back(sweep::Axis::linear("r", 0.5, 4.0, 20));
    const Comparison run =
        compare(client_server_source(clients, 1.0), spec,
                [&](double rate) { return client_server_source(clients, rate); });
    scaling.add_row({std::to_string(clients), std::to_string(run.states),
                     util::format_double(run.baseline_seconds * 1e3),
                     util::format_double(run.sweep_seconds * 1e3),
                     util::format_double(run.speedup())});
    bench::json_record(bench::JsonObject()
                           .field("experiment", "sweep_scaling")
                           .field("model", "client_server")
                           .field("clients", clients)
                           .field("points", run.points)
                           .field("states", run.states)
                           .field("derivations", run.derivations)
                           .field("baseline_seconds", run.baseline_seconds)
                           .field("sweep_seconds", run.sweep_seconds)
                           .field("speedup", run.speedup()));
  }
  std::cout << "replicated client/server: with the solve dominating, skipping "
               "parse+derive still holds ~4x (20 points, one lane)\n"
            << scaling << '\n';

  // Part 3: the per-point layers of the sweep_grid model, one lane
  // throughout, as the end-to-end benchmark runs it.
  const std::string source = tomcat_jsp_source(10);
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::logspace("tran", 0.1, 2.5, 6),
               sweep::Axis::logspace("comp", 0.16, 4.0, 6)};
  pepa::DeriveOptions derive;
  derive.threads = 1;

  pepa::Model plain = pepa::parse_model(source, "<bench>");
  pepa::Semantics semantics(plain.arena());
  util::Stopwatch timer;
  const pepa::StateSpace space =
      pepa::StateSpace::derive(semantics, plain.system(), derive);
  const double derive_seconds = timer.seconds();

  pepa::Model model = pepa::parse_model(source, "<bench>");
  timer.restart();
  sweep::SharedStructure shared(model, spec.parameter_names(), derive);
  const double setup_seconds = timer.seconds();

  std::vector<double> rebind;
  std::vector<double> assemble;
  std::vector<double> solve;
  std::vector<double> measures;
  for (std::size_t p = 0; p < spec.point_count(); ++p) {
    timer.restart();
    const std::vector<double> rates =
        shared.rebind_rates(shared.rebinder().at(spec.point(p)));
    rebind.push_back(timer.seconds());
    timer.restart();
    const ctmc::Generator generator = shared.generator(rates);
    assemble.push_back(timer.seconds());
    timer.restart();
    const ctmc::SolveResult solved = ctmc::steady_state(generator);
    solve.push_back(timer.seconds());
    timer.restart();
    const std::vector<double> throughputs =
        shared.throughputs(solved.distribution, rates);
    measures.push_back(timer.seconds());
    benchmark::DoNotOptimize(throughputs.data());
  }
  const sweep::SharedStructure::SetupSeconds& steps = shared.setup_seconds();
  util::TextTable layers({"states", "transitions", "derive ms", "set-up ms",
                          "tape ms", "pattern ms", "tape nodes",
                          "rebind ms/pt", "assembly ms/pt", "solve ms/pt",
                          "measures ms/pt"});
  layers.add_row({std::to_string(space.state_count()),
                  std::to_string(space.transitions().size()),
                  util::format_double(derive_seconds * 1e3),
                  util::format_double(setup_seconds * 1e3),
                  util::format_double(steps.tape * 1e3),
                  util::format_double(steps.pattern * 1e3),
                  std::to_string(shared.tape_size()),
                  util::format_double(median(rebind) * 1e3),
                  util::format_double(median(assemble) * 1e3),
                  util::format_double(median(solve) * 1e3),
                  util::format_double(median(measures) * 1e3)});
  bench::json_record(bench::JsonObject()
                         .field("experiment", "sweep_point_layers")
                         .field("model", "tomcat_uncached_10_clients")
                         .field("points", spec.point_count())
                         .field("states", space.state_count())
                         .field("transitions", space.transitions().size())
                         .field("derive_seconds", derive_seconds)
                         .field("setup_seconds", setup_seconds)
                         .field("setup_tape_seconds", steps.tape)
                         .field("setup_pattern_seconds", steps.pattern)
                         .field("tape_nodes", shared.tape_size())
                         .field("rebind_seconds_per_point", median(rebind))
                         .field("assembly_seconds_per_point", median(assemble))
                         .field("solve_seconds_per_point", median(solve))
                         .field("measures_seconds_per_point",
                                median(measures)));
  std::cout << "sweep_grid model (10 clients, 6 x 6 tran x comp grid): "
               "set-up beside a plain derive, median per-point layers\n"
            << layers << '\n';
}

void BM_IndependentJob(benchmark::State& state) {
  const std::string source = tomcat_source(40.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(independent_job(source));
  }
}
BENCHMARK(BM_IndependentJob);

void BM_SweepPoint(benchmark::State& state) {
  const auto points = static_cast<std::size_t>(state.range(0));
  pepa::Model model = pepa::parse_model(tomcat_source(40.0), "<bench>");
  sweep::SweepSpec spec;
  spec.axes.push_back(sweep::Axis::linear("locs", 5.0, 100.0, points));
  for (auto _ : state) {
    const sweep::SweepTable table = sweep::sweep(model, spec);
    benchmark::DoNotOptimize(table.rows.back().measures[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points));
}
BENCHMARK(BM_SweepPoint)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  return choreo::bench::run(argc, argv,
                            "Design-space sweeps: derive once, re-solve K "
                            "times vs K independent jobs",
                            report);
}
