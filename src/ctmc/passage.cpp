#include "ctmc/passage.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>

#include "ctmc/transient.hpp"
#include "util/error.hpp"

namespace choreo::ctmc {

namespace {

std::vector<bool> target_mask(std::size_t n, const std::vector<std::size_t>& targets) {
  if (targets.empty()) {
    throw util::NumericError("passage analysis needs a non-empty target set");
  }
  std::vector<bool> mask(n, false);
  for (std::size_t t : targets) {
    CHOREO_ASSERT(t < n);
    mask[t] = true;
  }
  return mask;
}

/// States from which some target is reachable (backwards BFS).
std::vector<bool> can_reach(const Generator& generator,
                            const std::vector<bool>& is_target) {
  const std::size_t n = generator.state_count();
  const Generator::Structure& structure = generator.structure();
  std::vector<bool> reach(n, false);
  std::deque<std::size_t> frontier;
  for (std::size_t s = 0; s < n; ++s) {
    if (is_target[s]) {
      reach[s] = true;
      frontier.push_back(s);
    }
  }
  while (!frontier.empty()) {
    const std::size_t state = frontier.front();
    frontier.pop_front();
    // Predecessors of `state` are the column indices of Q^T's row.
    for (std::uint32_t k = structure.row_ptr[state];
         k < structure.row_ptr[state + 1]; ++k) {
      const std::size_t predecessor = structure.columns[k];
      if (!reach[predecessor]) {
        reach[predecessor] = true;
        frontier.push_back(predecessor);
      }
    }
  }
  return reach;
}

/// The generator with every target state made absorbing.
Generator absorbing_variant(const Generator& generator,
                            const std::vector<bool>& is_target) {
  std::vector<RatedTransition> transitions;
  const std::size_t n = generator.state_count();
  const CsrMatrix q = generator.rows();
  for (std::size_t s = 0; s < n; ++s) {
    if (is_target[s]) continue;
    const auto columns = q.row_columns(s);
    const auto values = q.row_values(s);
    for (std::size_t k = 0; k < columns.size(); ++k) {
      if (columns[k] == s) continue;
      transitions.push_back({s, columns[k], values[k]});
    }
  }
  return Generator::build(n, transitions);
}

}  // namespace

std::vector<double> mean_passage_times(const Generator& generator,
                                       const std::vector<std::size_t>& targets) {
  const std::size_t n = generator.state_count();
  const std::vector<bool> is_target = target_mask(n, targets);
  const std::vector<bool> reaches = can_reach(generator, is_target);
  for (std::size_t s = 0; s < n; ++s) {
    if (!reaches[s]) {
      throw util::NumericError(util::msg(
          "state ", s, " cannot reach the target set: mean passage time"
          " is infinite"));
    }
  }

  // Solve exit_i * m_i - sum_{j not target, j != i} q_ij m_j = 1 for the
  // non-target states by Gauss-Seidel (the system matrix is a weakly
  // diagonally dominant M-matrix, for which the sweep converges), with a
  // dense fallback not needed in practice.
  std::vector<double> m(n, 0.0);
  const CsrMatrix q = generator.rows();
  const std::size_t max_iterations = 1000000;
  double residual = 0.0;
  for (std::size_t iteration = 0; iteration < max_iterations; ++iteration) {
    residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (is_target[i]) continue;
      const auto columns = q.row_columns(i);
      const auto values = q.row_values(i);
      double exit = 0.0;
      double inflow = 0.0;
      for (std::size_t k = 0; k < columns.size(); ++k) {
        if (columns[k] == i) {
          exit = -values[k];
        } else if (!is_target[columns[k]]) {
          inflow += values[k] * m[columns[k]];
        }
      }
      CHOREO_ASSERT(exit > 0.0);  // non-target states can move (reachability)
      const double updated = (1.0 + inflow) / exit;
      residual = std::max(residual, std::abs(updated - m[i]));
      m[i] = updated;
    }
    if (residual <= 1e-12 * (1.0 + *std::max_element(m.begin(), m.end()))) {
      return m;
    }
  }
  throw util::NumericError(util::msg(
      "mean passage-time iteration did not converge (residual ", residual, ")"));
}

double mean_passage_time(const Generator& generator, std::size_t source,
                         const std::vector<std::size_t>& targets) {
  return mean_passage_times(generator, targets)[source];
}

std::vector<double> passage_pdf(const Generator& generator,
                                const std::vector<double>& initial,
                                const std::vector<std::size_t>& targets,
                                const std::vector<double>& time_points,
                                const PassageCdfOptions& options) {
  const std::size_t n = generator.state_count();
  if (initial.size() != n) {
    throw util::NumericError("initial distribution size mismatch");
  }
  const std::vector<bool> is_target = target_mask(n, targets);
  const Generator absorbing = absorbing_variant(generator, is_target);

  // rate(s -> T) per transient state, from the *original* generator.
  std::vector<double> into_target(n, 0.0);
  const CsrMatrix q = generator.rows();
  for (std::size_t s = 0; s < n; ++s) {
    if (is_target[s]) continue;
    const auto columns = q.row_columns(s);
    const auto values = q.row_values(s);
    for (std::size_t k = 0; k < columns.size(); ++k) {
      if (columns[k] != s && is_target[columns[k]]) {
        into_target[s] += values[k];
      }
    }
  }

  TransientOptions transient_options;
  transient_options.epsilon = options.epsilon;

  std::vector<double> pdf;
  pdf.reserve(time_points.size());
  for (double t : time_points) {
    const auto result = transient(absorbing, initial, t, transient_options);
    double flux = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      flux += result.distribution[s] * into_target[s];
    }
    pdf.push_back(flux);
  }
  return pdf;
}

std::vector<double> passage_cdf(const Generator& generator,
                                const std::vector<double>& initial,
                                const std::vector<std::size_t>& targets,
                                const std::vector<double>& time_points,
                                const PassageCdfOptions& options) {
  const std::size_t n = generator.state_count();
  if (initial.size() != n) {
    throw util::NumericError("initial distribution size mismatch");
  }
  const std::vector<bool> is_target = target_mask(n, targets);
  const Generator absorbing = absorbing_variant(generator, is_target);

  TransientOptions transient_options;
  transient_options.epsilon = options.epsilon;

  std::vector<double> cdf;
  cdf.reserve(time_points.size());
  for (double t : time_points) {
    const auto result = transient(absorbing, initial, t, transient_options);
    double mass = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      if (is_target[s]) mass += result.distribution[s];
    }
    cdf.push_back(mass);
  }
  return cdf;
}

}  // namespace choreo::ctmc
