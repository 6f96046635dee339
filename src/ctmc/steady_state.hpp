// Steady-state solution of CTMCs: pi Q = 0, sum(pi) = 1.
//
// The PEPA Workbench solves the CTMC numerically; this module provides the
// equivalent solvers.  Direct dense LU gives exact (to rounding) answers for
// small chains; the iterative methods (Jacobi, Gauss-Seidel, SOR, and the
// power method on the uniformised DTMC) scale to the state-space sizes the
// paper's Section 1.1 worries about.  All iterative methods run on the
// transposed generator so the kernel is a plain row-oriented sweep.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ctmc/generator.hpp"
#include "util/budget.hpp"

namespace choreo::ctmc {

enum class Method {
  kAuto,         ///< dense LU for small chains, Gauss-Seidel otherwise
  kDenseLU,      ///< direct solution with partial pivoting (exact, O(n^3))
  kJacobi,       ///< Jacobi iteration
  kGaussSeidel,  ///< Gauss-Seidel iteration (the workbench default)
  kSor,          ///< successive over-relaxation
  kPower,        ///< power iteration on the uniformised DTMC
};

const char* method_name(Method method);

struct SolveOptions {
  Method method = Method::kAuto;
  /// Convergence threshold on the residual ||pi Q||_inf.
  double tolerance = 1e-12;
  std::size_t max_iterations = 200000;
  /// SOR relaxation factor in (0, 2).  Values much above 1 accelerate
  /// diagonally-dominant chains but can stall on stiff ones; 1.1 is a
  /// conservative default (1.0 reduces SOR to Gauss-Seidel).
  double relaxation = 1.1;
  /// Dense-LU size cutoff used by kAuto.
  std::size_t dense_cutoff = 512;
  /// Resource governor: cancellation/deadline checked every few sweeps of
  /// the iterative methods (amortised with the residual check), so a
  /// cancelled solve aborts with util::InterruptedError instead of running
  /// to max_iterations.  nullptr disables governance.
  util::Budget* budget = nullptr;
};

struct SolveResult {
  std::vector<double> distribution;
  Method method_used = Method::kAuto;
  std::size_t iterations = 0;
  /// Final residual ||pi Q||_inf.
  double residual = 0.0;
  double seconds = 0.0;
};

/// Solves for the stationary distribution.  Throws util::NumericError when
/// the chosen method cannot converge (e.g. Gauss-Seidel on a chain with
/// absorbing states) or when the chain is empty.
SolveResult steady_state(const Generator& generator, const SolveOptions& options = {});

}  // namespace choreo::ctmc
