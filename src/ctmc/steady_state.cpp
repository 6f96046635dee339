#include "ctmc/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace choreo::ctmc {

const char* method_name(Method method) {
  switch (method) {
    case Method::kAuto: return "auto";
    case Method::kDenseLU: return "dense-lu";
    case Method::kJacobi: return "jacobi";
    case Method::kGaussSeidel: return "gauss-seidel";
    case Method::kSor: return "sor";
    case Method::kPower: return "power";
  }
  return "?";
}

namespace {

/// Divides pi by `sum`, its L1 norm.  Over-relaxed sweeps can transiently
/// drive entries negative, so the signed sum is not a safe divisor.  At a
/// converged fixed point all entries are non-negative and this is the plain
/// sum.
void divide_by(std::vector<double>& pi, double sum) {
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    throw util::NumericError("steady-state iteration diverged (zero or"
                             " non-finite iterate)");
  }
  for (double& p : pi) p /= sum;
}

void normalise(std::vector<double>& pi) {
  double sum = 0.0;
  for (double p : pi) sum += std::abs(p);
  divide_by(pi, sum);
}

/// ||pi Q||_inf, evaluated as Q^T pi into `product`.
double residual_norm(const Generator& generator, const std::vector<double>& pi,
                     std::vector<double>& product) {
  generator.multiply(pi, product);
  double norm = 0.0;
  for (double v : product) norm = std::max(norm, std::abs(v));
  return norm;
}

SolveResult solve_dense_lu(const Generator& generator) {
  const std::size_t n = generator.state_count();
  // Assemble Q^T and overwrite the last equation with the normalisation
  // condition sum(pi) = 1, then LU-factorise with partial pivoting.
  std::vector<double> a(n * n, 0.0);
  const Generator::Structure& structure = generator.structure();
  const std::span<const double> values = generator.values();
  const std::span<const double> exit = generator.exit_rates();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::uint32_t k = structure.row_ptr[j]; k < structure.row_ptr[j + 1];
         ++k) {
      a[j * n + structure.columns[k]] = values[k];
    }
    if (exit[j] > 0.0) a[j * n + j] = -exit[j];
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t col = 0; col < n; ++col) a[(n - 1) * n + col] = 1.0;
  b[n - 1] = 1.0;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t pivot = k;
    double best = std::abs(a[perm[k] * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double candidate = std::abs(a[perm[i] * n + k]);
      if (candidate > best) {
        best = candidate;
        pivot = i;
      }
    }
    if (best == 0.0) {
      throw util::NumericError(
          "singular system in dense LU (is the chain disconnected?)");
    }
    std::swap(perm[k], perm[pivot]);
    const double akk = a[perm[k] * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = a[perm[i] * n + k] / akk;
      if (factor == 0.0) continue;
      a[perm[i] * n + k] = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) {
        a[perm[i] * n + j] -= factor * a[perm[k] * n + j];
      }
      b[perm[i]] -= factor * b[perm[k]];
    }
  }
  // Back substitution.
  std::vector<double> pi(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[perm[ri]];
    for (std::size_t j = ri + 1; j < n; ++j) sum -= a[perm[ri] * n + j] * pi[j];
    pi[ri] = sum / a[perm[ri] * n + ri];
  }
  // Clamp the tiny negatives rounding can introduce, then renormalise.
  for (double& p : pi) p = std::max(p, 0.0);
  normalise(pi);

  SolveResult result;
  result.distribution = std::move(pi);
  result.method_used = Method::kDenseLU;
  result.iterations = 1;
  return result;
}

/// Shared driver for Jacobi / Gauss-Seidel / SOR sweeps over Q^T.  Each
/// sweep accumulates the normalisation sum as it goes, in index order.
SolveResult solve_sweeps(const Generator& generator, const SolveOptions& options,
                         Method method) {
  const std::size_t n = generator.state_count();
  const std::span<const double> exit = generator.exit_rates();
  // A zero exit rate (absorbing state) breaks the sweep update, which
  // divides by it.
  for (std::size_t j = 0; j < n; ++j) {
    if (exit[j] <= 0.0) {
      throw util::NumericError(util::msg(
          "state ", j, " is absorbing; ", method_name(method),
          " cannot solve chains with absorbing states (use dense-lu)"));
    }
  }
  const std::uint32_t* row_ptr = generator.structure().row_ptr.data();
  const std::uint32_t* columns = generator.structure().columns.data();
  const double* values = generator.values().data();

  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(method == Method::kJacobi ? n : 0, 0.0);
  std::vector<double> product(n, 0.0);
  const double omega = method == Method::kSor ? options.relaxation : 1.0;

  SolveResult result;
  result.method_used = method;
  for (std::size_t iteration = 1; iteration <= options.max_iterations; ++iteration) {
    double sum = 0.0;
    if (method == Method::kJacobi) {
      // Damped Jacobi: the undamped iteration oscillates on strongly cyclic
      // chains (e.g. a two-state toggle); averaging with the previous
      // iterate breaks the period-2 cycle while preserving the fixed point.
      constexpr double kDamping = 0.5;
      for (std::size_t j = 0; j < n; ++j) {
        double inflow = 0.0;
        for (std::uint32_t k = row_ptr[j]; k < row_ptr[j + 1]; ++k) {
          inflow += values[k] * pi[columns[k]];
        }
        next[j] = (1.0 - kDamping) * pi[j] + kDamping * inflow / exit[j];
        sum += std::abs(next[j]);
      }
      pi.swap(next);
    } else {  // Gauss-Seidel / SOR update in place
      for (std::size_t j = 0; j < n; ++j) {
        double inflow = 0.0;
        for (std::uint32_t k = row_ptr[j]; k < row_ptr[j + 1]; ++k) {
          inflow += values[k] * pi[columns[k]];
        }
        const double updated = inflow / exit[j];
        pi[j] = (1.0 - omega) * pi[j] + omega * updated;
        sum += std::abs(pi[j]);
      }
    }
    divide_by(pi, sum);

    // The residual check costs a mat-vec, so amortise it; the cooperative
    // budget check rides on the same cadence, bounding how long a cancelled
    // or deadline-expired solve keeps sweeping.
    if (iteration % util::Budget::kSolverCheckStride == 0 ||
        iteration == options.max_iterations) {
      if (options.budget != nullptr) {
        options.budget->charge_solver_iterations(
            util::Budget::kSolverCheckStride);
        options.budget->check("solve");
      }
      const double residual = residual_norm(generator, pi, product);
      if (residual <= options.tolerance) {
        result.distribution = std::move(pi);
        result.iterations = iteration;
        result.residual = residual;
        return result;
      }
    }
  }
  throw util::NumericError(util::msg(
      method_name(method), " did not converge within ", options.max_iterations,
      " iterations (residual ", residual_norm(generator, pi, product), ")"));
}

SolveResult solve_power(const Generator& generator, const SolveOptions& options) {
  const std::size_t n = generator.state_count();

  // Uniformise: P = I + Q / lambda.  Iterating pi <- pi P preserves the
  // stationary distribution and is guaranteed aperiodic because lambda
  // strictly exceeds every exit rate.
  const double lambda = std::max(generator.max_exit_rate(), 1e-300) * 1.05;

  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> flow(n, 0.0);

  SolveResult result;
  result.method_used = Method::kPower;
  for (std::size_t iteration = 1; iteration <= options.max_iterations; ++iteration) {
    if (options.budget != nullptr &&
        iteration % util::Budget::kSolverCheckStride == 0) {
      options.budget->charge_solver_iterations(
          util::Budget::kSolverCheckStride);
      options.budget->check("solve");
    }
    generator.multiply(pi, flow);  // flow = (pi Q)^T
    double residual = 0.0;
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      residual = std::max(residual, std::abs(flow[j]));
      pi[j] += flow[j] / lambda;
      pi[j] = std::max(pi[j], 0.0);
      sum += std::abs(pi[j]);
    }
    divide_by(pi, sum);
    if (residual <= options.tolerance) {
      result.distribution = std::move(pi);
      result.iterations = iteration;
      result.residual = residual;
      return result;
    }
  }
  throw util::NumericError(util::msg("power iteration did not converge within ",
                                     options.max_iterations, " iterations"));
}

}  // namespace

SolveResult steady_state(const Generator& generator, const SolveOptions& options) {
  if (generator.state_count() == 0) {
    throw util::NumericError("cannot solve an empty chain");
  }
  util::Stopwatch timer;

  Method method = options.method;
  if (method == Method::kAuto) {
    if (generator.state_count() <= options.dense_cutoff) {
      method = Method::kDenseLU;
    } else if (!generator.absorbing_states().empty()) {
      method = Method::kPower;
    } else {
      method = Method::kGaussSeidel;
    }
  }

  SolveResult result;
  switch (method) {
    case Method::kDenseLU:
      result = solve_dense_lu(generator);
      break;
    case Method::kJacobi:
    case Method::kGaussSeidel:
    case Method::kSor:
      result = solve_sweeps(generator, options, method);
      break;
    case Method::kPower:
      result = solve_power(generator, options);
      break;
    case Method::kAuto:
      CHOREO_ASSERT(false);
  }
  if (result.residual == 0.0 && method == Method::kDenseLU) {
    std::vector<double> product(generator.state_count(), 0.0);
    result.residual = residual_norm(generator, result.distribution, product);
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace choreo::ctmc
