// Rate-sensitivity analysis: which activity should a designer speed up?
//
// For a chosen target measure (the throughput of one activity), computes
// the elasticity with respect to every rated activity of the model:
//
//     E_a = (d log target) / (d log rate_a)
//
// estimated by central finite differences over the exact CTMC solution.
// The caller's AnalysisOptions::rates are applied once; a perturbation then
// scales only the activity's active rates, so a shared action's passive
// side stays passive and the model's synchronisation is unchanged.
// Elasticities compose naturally: throughput is homogeneous of degree 1 in
// the full rate vector, so over *all* activities they sum to 1 -- the
// reported numbers are literally "shares of the bottleneck".
#pragma once

#include <string>
#include <vector>

#include "choreographer/pipeline.hpp"
#include "uml/model.hpp"

namespace choreo::chor {

struct SensitivityOptions {
  /// Relative perturbation h for the central difference (rate * (1 +/- h)).
  double relative_step = 0.02;
  AnalysisOptions analysis;
};

struct SensitivityEntry {
  std::string activity;
  double base_rate = 0.0;
  /// d log(target) / d log(rate); ~0 = irrelevant, ~1 = the bottleneck.
  double elasticity = 0.0;
};

struct SensitivityReport {
  std::string target;
  double base_value = 0.0;
  /// One entry per rated activity, ordered by descending elasticity.
  std::vector<SensitivityEntry> entries;
};

/// Sensitivity of the throughput of `target_action` to every activity rate
/// in the model (activity diagrams and state machines alike).  Throws
/// util::ModelError when the target does not occur.
SensitivityReport throughput_sensitivity(const uml::Model& model,
                                         const std::string& target_action,
                                         const SensitivityOptions& options = {});

}  // namespace choreo::chor
