#include "ctmc/transient.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace choreo::ctmc {

namespace {

double log_poisson_pmf(std::size_t k, double mean) {
  return static_cast<double>(k) * std::log(mean) - mean -
         std::lgamma(static_cast<double>(k) + 1.0);
}

}  // namespace

TransientResult transient(const Generator& generator,
                          const std::vector<double>& initial, double t,
                          const TransientOptions& options) {
  const std::size_t n = generator.state_count();
  if (initial.size() != n) {
    throw util::NumericError("initial distribution size mismatch");
  }
  if (t < 0.0) throw util::NumericError("negative time in transient analysis");

  TransientResult result;
  if (t == 0.0 || generator.max_exit_rate() == 0.0) {
    result.distribution = initial;
    result.terms = 1;
    return result;
  }

  const double lambda = generator.max_exit_rate() * 1.02;
  const double mean = lambda * t;

  // Choose the truncation point: walk right from the mode until the
  // cumulative mass reaches 1 - epsilon.
  const auto mode = static_cast<std::size_t>(mean);
  std::size_t k_max = mode;
  double cumulative = 0.0;
  for (std::size_t k = 0;; ++k) {
    cumulative += std::exp(log_poisson_pmf(k, mean));
    if (cumulative >= 1.0 - options.epsilon) {
      k_max = k;
      break;
    }
    // Far beyond the mode the pmf decays geometrically; this bound is only
    // a safety net against epsilon ~ 0.
    if (k > mode + 40 + 10 * static_cast<std::size_t>(std::sqrt(mean) + 1.0)) {
      k_max = k;
      break;
    }
  }

  std::vector<double> term = initial;   // pi(0) P^k
  std::vector<double> sum(n, 0.0);
  std::vector<double> flow(n, 0.0);
  for (std::size_t k = 0; k <= k_max; ++k) {
    if (options.budget != nullptr &&
        k % util::Budget::kSolverCheckStride == 0) {
      options.budget->charge_solver_iterations(std::min<std::size_t>(
          util::Budget::kSolverCheckStride, k_max - k + 1));
      options.budget->check("solve");
    }
    const double weight = std::exp(log_poisson_pmf(k, mean));
    for (std::size_t j = 0; j < n; ++j) sum[j] += weight * term[j];
    if (k == k_max) break;
    // term <- term P = term + (term Q) / lambda
    generator.multiply(term, flow);
    for (std::size_t j = 0; j < n; ++j) {
      term[j] = std::max(term[j] + flow[j] / lambda, 0.0);
    }
  }

  // Distribute the truncated tail mass proportionally (renormalise).
  double total = 0.0;
  for (double v : sum) total += v;
  if (total > 0.0) {
    for (double& v : sum) v /= total;
  }
  result.distribution = std::move(sum);
  result.terms = k_max + 1;
  return result;
}

TransientResult transient_from_state(const Generator& generator,
                                     std::size_t initial_state, double t,
                                     const TransientOptions& options) {
  std::vector<double> initial(generator.state_count(), 0.0);
  CHOREO_ASSERT(initial_state < generator.state_count());
  initial[initial_state] = 1.0;
  return transient(generator, initial, t, options);
}

}  // namespace choreo::ctmc
