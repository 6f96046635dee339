// First-passage time analysis.
//
// The paper's tool ecosystem includes the Imperial PEPA Compiler (ipc),
// whose headline capability is "derivation of passage-time densities in
// PEPA models".  This module provides the CTMC core of that analysis:
//
//   - the mean first-passage time from a source distribution to a target
//     set (the linear "hitting time" system), and
//   - the passage-time CDF, computed by making the targets absorbing and
//     running transient uniformisation: P[T <= t] is the probability mass
//     absorbed by time t.
#pragma once

#include <cstddef>
#include <vector>

#include "ctmc/generator.hpp"

namespace choreo::ctmc {

/// Mean hitting times m[s] = E[time to reach `targets` from s]; m[s] = 0
/// for targets.  Throws util::NumericError when some state cannot reach a
/// target (the expectation is infinite).
std::vector<double> mean_passage_times(const Generator& generator,
                                       const std::vector<std::size_t>& targets);

/// Convenience: expected passage time from a single source state.
double mean_passage_time(const Generator& generator, std::size_t source,
                         const std::vector<std::size_t>& targets);

struct PassageCdfOptions {
  double epsilon = 1e-10;
};

/// P[T <= t] for each requested time point, starting from `initial`
/// (a distribution over states; targets' mass counts as already passed).
std::vector<double> passage_cdf(const Generator& generator,
                                const std::vector<double>& initial,
                                const std::vector<std::size_t>& targets,
                                const std::vector<double>& time_points,
                                const PassageCdfOptions& options = {});

/// The passage-time *density* f(t) at each requested time point (ipc's
/// headline output): the instantaneous probability flux into the target
/// set,  f(t) = sum_{s not in T} pi_t(s) * rate(s -> T),  where pi_t is the
/// transient distribution of the chain with targets made absorbing.
std::vector<double> passage_pdf(const Generator& generator,
                                const std::vector<double>& initial,
                                const std::vector<std::size_t>& targets,
                                const std::vector<double>& time_points,
                                const PassageCdfOptions& options = {});

}  // namespace choreo::ctmc
