// Transient solution of CTMCs by uniformisation.
//
//   pi(t) = sum_k Poisson(k; lambda t) * pi(0) P^k,  P = I + Q / lambda.
//
// Poisson weights are evaluated in log space so large lambda*t does not
// underflow, and the summation window is chosen so the truncated tail mass
// is below the requested epsilon (a lightweight Fox-Glynn scheme).
#pragma once

#include <cstddef>
#include <vector>

#include "ctmc/generator.hpp"
#include "util/budget.hpp"

namespace choreo::ctmc {

struct TransientOptions {
  /// Permitted truncation error on the probability mass.
  double epsilon = 1e-10;
  /// Resource governor: cancellation/deadline checked every few
  /// uniformisation terms (util::InterruptedError on interruption).
  util::Budget* budget = nullptr;
};

struct TransientResult {
  std::vector<double> distribution;
  /// Number of DTMC steps actually summed.
  std::size_t terms = 0;
};

/// Distribution at time `t` starting from `initial` (must sum to 1).
TransientResult transient(const Generator& generator,
                          const std::vector<double>& initial, double t,
                          const TransientOptions& options = {});

/// Convenience: start deterministically in `initial_state`.
TransientResult transient_from_state(const Generator& generator,
                                     std::size_t initial_state, double t,
                                     const TransientOptions& options = {});

}  // namespace choreo::ctmc
