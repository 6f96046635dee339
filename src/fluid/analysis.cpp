#include "fluid/analysis.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace choreo::fluid {

FluidResult solve_steady(VectorForm form, const FluidOptions& options) {
  FluidResult result;
  result.form = std::move(form);
  const VectorForm& solved = result.form;
  OdeSolution solution = integrate(
      [&solved](double, std::span<const double> x, std::span<double> dx) {
        solved.derivative(x, dx);
      },
      solved.initial_state(), options.ode);
  if (!solution.steady_state_reached()) {
    throw util::NumericError(util::msg(
        "fluid: no steady state detected by t=", solution.end_time(),
        " (", solution.stats().steps, " steps); the model may oscillate"));
  }

  result.steady = solution.state();
  // The mean-field flows keep populations non-negative analytically; clip
  // the O(tolerance) numerical undershoot.
  for (double& value : result.steady) value = std::max(value, 0.0);
  result.stats = solution.stats();
  result.throughputs = solved.throughputs(result.steady);
  return result;
}

FluidResult solve_steady(pepa::Semantics& semantics, pepa::ProcessId system,
                         const FluidOptions& options) {
  return solve_steady(VectorForm::build(semantics, system, options.build),
                      options);
}

}  // namespace choreo::fluid
