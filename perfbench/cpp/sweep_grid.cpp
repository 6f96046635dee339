// sweep_grid: one caller runs whole design-space sweeps through
// sweep::sweep, exact backend, one point lane.  The model is the uncached
// Tomcat server with ten clients (26,624 states, 151,040 transitions); the
// grid is 6 x 6 over the translate and compile rates, the servlet-caching
// question of Figures 8-9.  Derivation happens once per sweep, so the
// per-point layers (rebind, assembly, solve) dominate.
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "pepa/parser.hpp"
#include "sweep/runner.hpp"
#include "traced_pipeline.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace sweep = choreo::sweep;

struct Inputs {
  std::string pepa_source;
  sweep::SweepSpec spec;
  sweep::SweepOptions options;
};

/// `count` log-spaced values over a seeded range around `base`.
sweep::Axis seeded_axis(Rng& rng, const char* parameter, double base,
                        std::size_t count) {
  const double lo = base * rng.uniform(0.2, 0.5);
  const double hi = base * rng.uniform(2.0, 5.0);
  return sweep::Axis::logspace(parameter, lo, hi, count);
}

Inputs make_inputs(const Config& config) {
  Rng rng(config.seed);
  Inputs inputs;
  inputs.pepa_source = inputs::tomcat_pepa(false, config.smoke ? 3 : 10, rng);
  const std::size_t side = config.smoke ? 2 : 6;
  inputs.spec.axes = {seeded_axis(rng, "tran", 0.5, side),
                      seeded_axis(rng, "comp", 0.8, side)};
  inputs.spec.combine = sweep::Combine::kCartesian;
  inputs.options.backend = sweep::Backend::kExact;
  // One point lane: the default of the workbench, the batch tool and
  // service sweep jobs.
  inputs.options.threads = 1;
  inputs.options.derive.threads = 1;
  choreo::util::ThreadPool::shared();
  return inputs;
}

choreo::pepa::Model parse(const Inputs& inputs) {
  return choreo::pepa::parse_model(inputs.pepa_source, "<sweep_grid>");
}

/// Runs one sweep job (PEPA text to result table) and its checks, then
/// compares the table with the first good job's (normally the warm-up's).
template <typename Run>
std::string run_checked(Run&& run, sweep::SweepTable& first) {
  try {
    const sweep::SweepTable table = run();
    if (std::string failure = checks::tomcat_sweep(table, false);
        !failure.empty()) {
      return failure;
    }
    if (first.rows.empty()) {
      first = table;
      return "";
    }
    return checks::same_table(first, table);
  } catch (const std::exception& error) {
    return std::string("job threw: ") + error.what();
  }
}

}  // namespace

Outcome run_sweep_grid(const Config& config) {
  Inputs inputs;
  sweep::SweepTable first;
  return single_caller_loop(
      config, [&] { inputs = make_inputs(config); },
      [&] {
        return run_checked(
            [&] {
              choreo::pepa::Model model = parse(inputs);
              return sweep::sweep(model, inputs.spec, inputs.options);
            },
            first);
      },
      // The traced sweep must reproduce sweep::sweep's table exactly.
      [&](Tracer& tracer) {
        return run_checked(
            [&] {
              std::optional<choreo::pepa::Model> model;
              timed(tracer, "pepa.parse", [&] { model.emplace(parse(inputs)); });
              sweep::SweepTable table =
                  traced_sweep(*model, inputs.spec, inputs.options, tracer);
              timed(tracer, "pepa.teardown", [&] { model.reset(); });
              return table;
            },
            first);
      });
}

}  // namespace perfbench
