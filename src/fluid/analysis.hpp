// High-level fluid analysis: vector form + ODE integration to steady state
// + the measures the Choreographer reflects (throughput per action,
// population / occupancy probability per named local state).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "fluid/ode.hpp"
#include "fluid/vector_form.hpp"

namespace choreo::fluid {

struct FluidOptions {
  BuildOptions build;
  /// ODE control; `ode.budget` is the governor for the whole analysis.
  OdeOptions ode;
};

struct FluidResult {
  VectorForm form;
  /// Steady-state population vector (indexed like form.dimension()).
  std::vector<double> steady;
  OdeStats stats;
  /// (action, throughput) for every action of the vector form, sorted by
  /// action id — the fluid counterpart of pepa::all_throughputs.
  std::vector<std::pair<pepa::ActionId, double>> throughputs;

  /// Expected component count occupying `constant` in steady state.
  double population(pepa::ConstantId constant) const {
    return form.population(steady, constant);
  }
};

/// Integrates the mean-field ODE of `form` until the steady-state detector
/// fires (`options.build` is not read).  Throws util::NumericError when the
/// integrator reaches the horizon without detecting a steady state.
FluidResult solve_steady(VectorForm form, const FluidOptions& options = {});

/// Builds the vector form of `system` and solves it as above.
FluidResult solve_steady(pepa::Semantics& semantics, pepa::ProcessId system,
                         const FluidOptions& options = {});

}  // namespace choreo::fluid
