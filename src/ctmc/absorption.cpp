#include "ctmc/absorption.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace choreo::ctmc {

double Absorption::probability(std::size_t state, std::size_t target) const {
  const auto it = std::lower_bound(absorbing.begin(), absorbing.end(), target);
  if (it == absorbing.end() || *it != target) {
    throw util::NumericError(
        util::msg("state ", target, " is not absorbing"));
  }
  CHOREO_ASSERT(state < probabilities.size());
  return probabilities[state][static_cast<std::size_t>(it - absorbing.begin())];
}

Absorption absorption_probabilities(const Generator& generator) {
  Absorption result;
  result.absorbing = generator.absorbing_states();
  if (result.absorbing.empty()) {
    throw util::NumericError("chain has no absorbing state");
  }
  const std::size_t n = generator.state_count();
  const std::size_t k = result.absorbing.size();
  std::vector<bool> is_absorbing(n, false);
  std::vector<std::size_t> absorbing_index(n, 0);
  for (std::size_t i = 0; i < k; ++i) {
    is_absorbing[result.absorbing[i]] = true;
    absorbing_index[result.absorbing[i]] = i;
  }

  // h_k(s) satisfies, for transient s:  h_k(s) = sum_j P(s, j) h_k(j)
  // with P the jump chain; absorbing states are fixed at the unit vectors.
  result.probabilities.assign(n, std::vector<double>(k, 0.0));
  for (std::size_t i = 0; i < k; ++i) {
    result.probabilities[result.absorbing[i]][i] = 1.0;
  }

  const CsrMatrix q = generator.rows();
  const std::size_t max_iterations = 1000000;
  for (std::size_t iteration = 0; iteration < max_iterations; ++iteration) {
    double residual = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      if (is_absorbing[s]) continue;
      const auto columns = q.row_columns(s);
      const auto values = q.row_values(s);
      double exit = 0.0;
      std::vector<double> inflow(k, 0.0);
      for (std::size_t idx = 0; idx < columns.size(); ++idx) {
        if (columns[idx] == s) {
          exit = -values[idx];
          continue;
        }
        for (std::size_t i = 0; i < k; ++i) {
          inflow[i] += values[idx] * result.probabilities[columns[idx]][i];
        }
      }
      CHOREO_ASSERT(exit > 0.0);  // transient states can move
      for (std::size_t i = 0; i < k; ++i) {
        const double updated = inflow[i] / exit;
        residual = std::max(residual,
                            std::abs(updated - result.probabilities[s][i]));
        result.probabilities[s][i] = updated;
      }
    }
    if (residual <= 1e-13) return result;
  }
  throw util::NumericError("absorption iteration did not converge");
}

}  // namespace choreo::ctmc
