// Test-only reference for generator assembly and the CTMC solvers: the
// generator as full CSR matrices Q and Q^T with the diagonal inside every
// row, and the solver loops over them.  The library holds the generator in
// its solver form (Q^T without the diagonal, 32-bit columns, exit rates)
// and must reproduce every number here bit for bit.
//
//   - Assembly: transitions are bucketed by source in input order, each
//     row's entries sorted by (column, input position) with duplicates
//     summed from 0.0 in input order and zero sums dropped, the diagonal
//     written as the negated exit sum (also in input order, self-loops
//     excluded); Q^T is a counting transpose of Q.
//   - Solvers: Gauss-Seidel, SOR and damped Jacobi sweep full Q^T rows,
//     skipping the diagonal entry, and normalise after each sweep; power
//     iteration and transient uniformisation multiply by Q^T; dense LU
//     factorises the dense Q^T.  The residual is ||Q^T pi||_inf every
//     util::Budget::kSolverCheckStride sweeps.
//   - Passage: mean passage times, and the passage-time CDF and density
//     over the chain with its targets made absorbing.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ctmc/generator.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace choreo::test {

/// A compressed sparse row matrix with column-sorted rows.
struct OracleMatrix {
  std::vector<std::size_t> row_ptr{0};
  std::vector<std::size_t> col;
  std::vector<double> values;

  std::size_t size() const { return row_ptr.size() - 1; }
  double at(std::size_t row, std::size_t column) const {
    for (std::size_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      if (col[k] == column) return values[k];
    }
    return 0.0;
  }
};

struct OracleGenerator {
  OracleMatrix q;
  OracleMatrix qt;
  double max_exit_rate = 0.0;
};

inline OracleMatrix oracle_transpose(const OracleMatrix& a) {
  const std::size_t n = a.size();
  OracleMatrix out;
  out.row_ptr.assign(n + 1, 0);
  for (const std::size_t c : a.col) ++out.row_ptr[c + 1];
  for (std::size_t r = 0; r < n; ++r) out.row_ptr[r + 1] += out.row_ptr[r];
  out.col.resize(a.col.size());
  out.values.resize(a.values.size());
  std::vector<std::size_t> cursor(out.row_ptr.begin(), out.row_ptr.end() - 1);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t k = a.row_ptr[row]; k < a.row_ptr[row + 1]; ++k) {
      const std::size_t slot = cursor[a.col[k]]++;
      out.col[slot] = row;
      out.values[slot] = a.values[k];
    }
  }
  return out;
}

/// The reference assembly of `transitions` (.source/.target/.rate), with
/// the library's error for the first rate, in input order, that is not
/// positive and finite.
template <typename Transition>
OracleGenerator oracle_generator(std::size_t n,
                                 std::span<const Transition> transitions) {
  for (const Transition& t : transitions) ctmc::detail::check_rate(t, t.rate);
  std::vector<std::vector<std::size_t>> by_source(n);
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    by_source[transitions[i].source].push_back(i);
  }
  struct Entry {
    std::size_t col;
    std::size_t position;
    double value;
  };
  OracleGenerator out;
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<Entry> row;
    double exit = 0.0;
    for (const std::size_t i : by_source[s]) {
      const Transition& t = transitions[i];
      if (static_cast<std::size_t>(t.target) == s) continue;
      row.push_back({static_cast<std::size_t>(t.target), row.size(), t.rate});
      exit += t.rate;
    }
    if (exit > 0.0) row.push_back({s, row.size(), -exit});
    std::sort(row.begin(), row.end(), [](const Entry& a, const Entry& b) {
      return a.col != b.col ? a.col < b.col : a.position < b.position;
    });
    for (std::size_t k = 0; k < row.size();) {
      const std::size_t col = row[k].col;
      double value = 0.0;
      for (; k < row.size() && row[k].col == col; ++k) value += row[k].value;
      if (value != 0.0) {
        out.q.col.push_back(col);
        out.q.values.push_back(value);
      }
    }
    out.q.row_ptr.push_back(out.q.col.size());
    out.max_exit_rate = std::max(out.max_exit_rate, exit);
  }
  out.qt = oracle_transpose(out.q);
  return out;
}

template <typename Transition>
OracleGenerator oracle_generator(std::size_t n,
                                 const std::vector<Transition>& transitions) {
  return oracle_generator(n, std::span<const Transition>(transitions));
}

/// y = A x, row by row, in column order.
inline void oracle_multiply(const OracleMatrix& a, const std::vector<double>& x,
                            std::vector<double>& y) {
  for (std::size_t row = 0; row < a.size(); ++row) {
    double sum = 0.0;
    for (std::size_t k = a.row_ptr[row]; k < a.row_ptr[row + 1]; ++k) {
      sum += a.values[k] * x[a.col[k]];
    }
    y[row] = sum;
  }
}

inline void oracle_normalise(std::vector<double>& pi) {
  double sum = 0.0;
  for (double p : pi) sum += std::abs(p);
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    throw util::NumericError("steady-state iteration diverged (zero or"
                             " non-finite iterate)");
  }
  for (double& p : pi) p /= sum;
}

inline double oracle_residual(const OracleGenerator& g,
                              const std::vector<double>& pi) {
  std::vector<double> product(pi.size(), 0.0);
  oracle_multiply(g.qt, pi, product);
  double norm = 0.0;
  for (double v : product) norm = std::max(norm, std::abs(v));
  return norm;
}

inline ctmc::SolveResult oracle_dense_lu(const OracleGenerator& g) {
  const std::size_t n = g.qt.size();
  std::vector<double> a(n * n, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t k = g.qt.row_ptr[row]; k < g.qt.row_ptr[row + 1]; ++k) {
      a[row * n + g.qt.col[k]] = g.qt.values[k];
    }
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t col = 0; col < n; ++col) a[(n - 1) * n + col] = 1.0;
  b[n - 1] = 1.0;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
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
  ctmc::SolveResult result;
  std::vector<double>& pi = result.distribution;
  pi.assign(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[perm[ri]];
    for (std::size_t j = ri + 1; j < n; ++j) sum -= a[perm[ri] * n + j] * pi[j];
    pi[ri] = sum / a[perm[ri] * n + ri];
  }
  for (double& p : pi) p = std::max(p, 0.0);
  oracle_normalise(pi);
  result.method_used = ctmc::Method::kDenseLU;
  result.iterations = 1;
  result.residual = oracle_residual(g, pi);
  return result;
}

inline ctmc::SolveResult oracle_sweeps(const OracleGenerator& g,
                                       const ctmc::SolveOptions& options,
                                       ctmc::Method method) {
  const OracleMatrix& qt = g.qt;
  const std::size_t n = qt.size();
  std::vector<double> exit(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double diag = qt.at(j, j);
    if (diag >= 0.0) {
      throw util::NumericError(util::msg(
          "state ", j, " is absorbing; ", ctmc::method_name(method),
          " cannot solve chains with absorbing states (use dense-lu)"));
    }
    exit[j] = -diag;
  }
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  const double omega =
      method == ctmc::Method::kSor ? options.relaxation : 1.0;
  ctmc::SolveResult result;
  result.method_used = method;
  for (std::size_t iteration = 1; iteration <= options.max_iterations;
       ++iteration) {
    for (std::size_t j = 0; j < n; ++j) {
      double inflow = 0.0;
      for (std::size_t k = qt.row_ptr[j]; k < qt.row_ptr[j + 1]; ++k) {
        if (qt.col[k] != j) inflow += qt.values[k] * pi[qt.col[k]];
      }
      if (method == ctmc::Method::kJacobi) {
        constexpr double kDamping = 0.5;
        next[j] = (1.0 - kDamping) * pi[j] + kDamping * inflow / exit[j];
      } else {
        const double updated = inflow / exit[j];
        pi[j] = (1.0 - omega) * pi[j] + omega * updated;
      }
    }
    if (method == ctmc::Method::kJacobi) pi.swap(next);
    oracle_normalise(pi);
    if (iteration % util::Budget::kSolverCheckStride == 0 ||
        iteration == options.max_iterations) {
      const double residual = oracle_residual(g, pi);
      if (residual <= options.tolerance) {
        result.distribution = std::move(pi);
        result.iterations = iteration;
        result.residual = residual;
        return result;
      }
    }
  }
  throw util::NumericError(util::msg(
      ctmc::method_name(method), " did not converge within ",
      options.max_iterations, " iterations (residual ", oracle_residual(g, pi),
      ")"));
}

inline ctmc::SolveResult oracle_power(const OracleGenerator& g,
                                      const ctmc::SolveOptions& options) {
  const std::size_t n = g.qt.size();
  const double lambda = std::max(g.max_exit_rate, 1e-300) * 1.05;
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> flow(n, 0.0);
  ctmc::SolveResult result;
  result.method_used = ctmc::Method::kPower;
  for (std::size_t iteration = 1; iteration <= options.max_iterations;
       ++iteration) {
    oracle_multiply(g.qt, pi, flow);
    double residual = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      residual = std::max(residual, std::abs(flow[j]));
      pi[j] += flow[j] / lambda;
      pi[j] = std::max(pi[j], 0.0);
    }
    oracle_normalise(pi);
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

/// The reference steady-state solve with options.method (not kAuto).
inline ctmc::SolveResult oracle_steady_state(const OracleGenerator& g,
                                             const ctmc::SolveOptions& options) {
  switch (options.method) {
    case ctmc::Method::kDenseLU:
      return oracle_dense_lu(g);
    case ctmc::Method::kPower:
      return oracle_power(g, options);
    default:
      return oracle_sweeps(g, options, options.method);
  }
}

inline std::vector<double> oracle_transient(const OracleGenerator& g,
                                            const std::vector<double>& initial,
                                            double t, double epsilon) {
  const std::size_t n = g.qt.size();
  if (t == 0.0 || g.max_exit_rate == 0.0) return initial;
  const double lambda = g.max_exit_rate * 1.02;
  const double mean = lambda * t;
  auto log_pmf = [mean](std::size_t k) {
    return static_cast<double>(k) * std::log(mean) - mean -
           std::lgamma(static_cast<double>(k) + 1.0);
  };
  const auto mode = static_cast<std::size_t>(mean);
  std::size_t k_max = mode;
  double cumulative = 0.0;
  for (std::size_t k = 0;; ++k) {
    cumulative += std::exp(log_pmf(k));
    if (cumulative >= 1.0 - epsilon ||
        k > mode + 40 + 10 * static_cast<std::size_t>(std::sqrt(mean) + 1.0)) {
      k_max = k;
      break;
    }
  }
  std::vector<double> term = initial;
  std::vector<double> sum(n, 0.0);
  std::vector<double> flow(n, 0.0);
  for (std::size_t k = 0; k <= k_max; ++k) {
    const double weight = std::exp(log_pmf(k));
    for (std::size_t j = 0; j < n; ++j) sum[j] += weight * term[j];
    if (k == k_max) break;
    oracle_multiply(g.qt, term, flow);
    for (std::size_t j = 0; j < n; ++j) {
      term[j] = std::max(term[j] + flow[j] / lambda, 0.0);
    }
  }
  double total = 0.0;
  for (double v : sum) total += v;
  if (total > 0.0) {
    for (double& v : sum) v /= total;
  }
  return sum;
}

inline std::vector<double> oracle_mean_passage_times(
    const OracleGenerator& g, const std::vector<std::size_t>& targets) {
  const OracleMatrix& q = g.q;
  const std::size_t n = q.size();
  std::vector<bool> is_target(n, false);
  for (const std::size_t t : targets) is_target[t] = true;
  std::vector<double> m(n, 0.0);
  for (std::size_t iteration = 0; iteration < 1000000; ++iteration) {
    double residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (is_target[i]) continue;
      double exit = 0.0;
      double inflow = 0.0;
      for (std::size_t k = q.row_ptr[i]; k < q.row_ptr[i + 1]; ++k) {
        if (q.col[k] == i) {
          exit = -q.values[k];
        } else if (!is_target[q.col[k]]) {
          inflow += q.values[k] * m[q.col[k]];
        }
      }
      const double updated = (1.0 + inflow) / exit;
      residual = std::max(residual, std::abs(updated - m[i]));
      m[i] = updated;
    }
    if (residual <= 1e-12 * (1.0 + *std::max_element(m.begin(), m.end()))) {
      return m;
    }
  }
  throw util::NumericError("mean passage-time iteration did not converge");
}

/// The chain with every target made absorbing, built from Q's rows.
inline OracleGenerator oracle_absorbing_variant(
    const OracleGenerator& g, const std::vector<bool>& is_target) {
  std::vector<ctmc::RatedTransition> transitions;
  for (std::size_t s = 0; s < g.q.size(); ++s) {
    if (is_target[s]) continue;
    for (std::size_t k = g.q.row_ptr[s]; k < g.q.row_ptr[s + 1]; ++k) {
      if (g.q.col[k] != s) transitions.push_back({s, g.q.col[k], g.q.values[k]});
    }
  }
  return oracle_generator(g.q.size(), transitions);
}

/// P[T <= t] (pdf = false) or the passage-time density (pdf = true) at
/// each time point, from `initial`.
inline std::vector<double> oracle_passage(
    const OracleGenerator& g, const std::vector<double>& initial,
    const std::vector<std::size_t>& targets,
    const std::vector<double>& time_points, bool pdf, double epsilon = 1e-10) {
  const std::size_t n = g.q.size();
  std::vector<bool> is_target(n, false);
  for (const std::size_t t : targets) is_target[t] = true;
  const OracleGenerator absorbing = oracle_absorbing_variant(g, is_target);
  std::vector<double> into_target(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    if (is_target[s]) continue;
    for (std::size_t k = g.q.row_ptr[s]; k < g.q.row_ptr[s + 1]; ++k) {
      if (g.q.col[k] != s && is_target[g.q.col[k]]) {
        into_target[s] += g.q.values[k];
      }
    }
  }
  std::vector<double> out;
  for (const double t : time_points) {
    const std::vector<double> pi =
        oracle_transient(absorbing, initial, t, epsilon);
    double value = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      if (pdf) {
        value += pi[s] * into_target[s];
      } else if (is_target[s]) {
        value += pi[s];
      }
    }
    out.push_back(value);
  }
  return out;
}

/// Unsorted sources, repeated (source, target) pairs, self-loops, a row of
/// self-loops only and rows with no transitions at all.  Rates mix scales
/// so the summation order shows in the low bits.
inline std::vector<ctmc::RatedTransition> scrambled_transitions(
    std::size_t n) {
  std::mt19937_64 rng(20060425);
  const double rates[] = {0.5, 1.0, 1e-3, 1e16, 3.7, 1.0 / 3.0};
  std::vector<ctmc::RatedTransition> out;
  for (std::size_t i = 0; i < 600; ++i) {
    std::size_t source = rng() % n;
    if (source % 7 == 3) continue;  // rows 3, 10, 17, ... stay empty
    const std::size_t target = i % 11 == 0 ? source : rng() % n;
    out.push_back({source, target, rates[rng() % std::size(rates)]});
    if (i % 5 == 0) out.push_back(out.back());  // an exact duplicate
  }
  out.push_back({5, 5, 2.0});  // row 5 holds only self-loops
  std::erase_if(out, [](const ctmc::RatedTransition& t) {
    return t.source == 5 && t.target != 5;
  });
  return out;
}

inline std::uint64_t oracle_bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

inline void expect_same_doubles(std::span<const double> actual,
                                std::span<const double> expected,
                                const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(oracle_bits(actual[i]), oracle_bits(expected[i]))
        << what << "[" << i << "] = " << actual[i] << ", oracle "
        << expected[i];
  }
}

/// The solver form matches the oracle's Q^T entry for entry, with each
/// split point where the oracle row holds its diagonal; the exit rates are
/// the negated oracle diagonal, and rows() is the oracle's Q.
inline void expect_generator_matches_oracle(const ctmc::Generator& generator,
                                            const OracleGenerator& oracle,
                                            const std::string& what) {
  const std::size_t n = oracle.q.size();
  ASSERT_EQ(generator.state_count(), n) << what;
  EXPECT_EQ(oracle_bits(generator.max_exit_rate()),
            oracle_bits(oracle.max_exit_rate))
      << what;
  const ctmc::Generator::Structure& structure = generator.structure();
  const std::span<const double> values = generator.values();
  ASSERT_EQ(structure.row_ptr.size(), n + 1) << what;
  ASSERT_EQ(structure.split.size(), n) << what;
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t k = structure.row_ptr[j];
    bool split_seen = false;
    for (std::size_t o = oracle.qt.row_ptr[j]; o < oracle.qt.row_ptr[j + 1];
         ++o) {
      if (oracle.qt.col[o] >= j && !split_seen) {
        ASSERT_EQ(structure.split[j], k) << what << ": split of row " << j;
        split_seen = true;
      }
      if (oracle.qt.col[o] == j) {
        ASSERT_EQ(oracle_bits(generator.exit_rate(j)),
                  oracle_bits(-oracle.qt.values[o]))
            << what << ": exit rate of " << j;
        continue;
      }
      ASSERT_LT(k, structure.row_ptr[j + 1]) << what << ": row " << j;
      ASSERT_EQ(structure.columns[k], oracle.qt.col[o]) << what << ": row " << j;
      ASSERT_EQ(oracle_bits(values[k]), oracle_bits(oracle.qt.values[o]))
          << what << ": Q^T[" << j << "][" << oracle.qt.col[o] << "]";
      ++k;
    }
    if (!split_seen) {
      ASSERT_EQ(structure.split[j], k) << what << ": split of row " << j;
    }
    ASSERT_EQ(k, structure.row_ptr[j + 1]) << what << ": row " << j;
    if (oracle.qt.at(j, j) == 0.0) {
      ASSERT_EQ(oracle_bits(generator.exit_rate(j)), oracle_bits(0.0))
          << what << ": exit rate of " << j;
    }
  }
  const ctmc::CsrMatrix q = generator.rows();
  ASSERT_EQ(q.size(), n) << what;
  ASSERT_EQ(q.nonzeros(), oracle.q.values.size()) << what;
  for (std::size_t s = 0; s < n; ++s) {
    const auto columns = q.row_columns(s);
    const auto row_values = q.row_values(s);
    ASSERT_EQ(columns.size(), oracle.q.row_ptr[s + 1] - oracle.q.row_ptr[s])
        << what << ": Q row " << s;
    for (std::size_t k = 0; k < columns.size(); ++k) {
      const std::size_t o = oracle.q.row_ptr[s] + k;
      ASSERT_EQ(columns[k], oracle.q.col[o]) << what << ": Q row " << s;
      ASSERT_EQ(oracle_bits(row_values[k]), oracle_bits(oracle.q.values[o]))
          << what << ": Q[" << s << "][" << columns[k] << "]";
    }
  }
}

/// The library solve and the oracle's either both throw the same message
/// or agree bit for bit on the distribution, iterations and residual.
inline void expect_solve_matches_oracle(const ctmc::Generator& generator,
                                        const OracleGenerator& oracle,
                                        const ctmc::SolveOptions& options,
                                        const std::string& what) {
  // kAuto picks as the library does: dense LU up to the cutoff, power
  // iteration for a chain with an absorbing state, Gauss-Seidel otherwise.
  ctmc::SolveOptions resolved = options;
  if (resolved.method == ctmc::Method::kAuto) {
    bool absorbing = false;
    for (std::size_t j = 0; j < oracle.qt.size(); ++j) {
      absorbing = absorbing || oracle.qt.at(j, j) == 0.0;
    }
    resolved.method = oracle.qt.size() <= options.dense_cutoff
                          ? ctmc::Method::kDenseLU
                      : absorbing ? ctmc::Method::kPower
                                  : ctmc::Method::kGaussSeidel;
  }
  const std::string label =
      what + " (" + ctmc::method_name(resolved.method) + ")";
  std::string library_error;
  std::string oracle_error;
  ctmc::SolveResult library;
  ctmc::SolveResult reference;
  try {
    library = ctmc::steady_state(generator, options);
  } catch (const util::NumericError& error) {
    library_error = error.what();
  }
  try {
    reference = oracle_steady_state(oracle, resolved);
  } catch (const util::NumericError& error) {
    oracle_error = error.what();
  }
  ASSERT_EQ(library_error, oracle_error) << label;
  if (!library_error.empty()) return;
  EXPECT_EQ(library.method_used, resolved.method) << label;
  EXPECT_EQ(library.iterations, reference.iterations) << label;
  EXPECT_EQ(oracle_bits(library.residual), oracle_bits(reference.residual))
      << label << ": residual " << library.residual << ", oracle "
      << reference.residual;
  expect_same_doubles(library.distribution, reference.distribution, label);
}

/// Every solver method, on the library form and on the oracle.  Dense LU
/// runs only up to `dense_limit` states.
inline void expect_every_solve_matches_oracle(
    const ctmc::Generator& generator, const OracleGenerator& oracle,
    const std::string& what, std::size_t max_iterations = 20000,
    std::size_t dense_limit = 512) {
  for (const ctmc::Method method :
       {ctmc::Method::kDenseLU, ctmc::Method::kGaussSeidel, ctmc::Method::kSor,
        ctmc::Method::kJacobi, ctmc::Method::kPower}) {
    if (method == ctmc::Method::kDenseLU &&
        generator.state_count() > dense_limit) {
      continue;
    }
    ctmc::SolveOptions options;
    options.method = method;
    options.max_iterations = max_iterations;
    expect_solve_matches_oracle(generator, oracle, options, what);
  }
}

}  // namespace choreo::test
