#include "choreographer/sensitivity.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "choreographer/names.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace choreo::chor {

namespace {

/// Every rated activity of the model with its current rate (activity-state
/// tags and state-machine transitions; passive transitions carry no rate of
/// their own and are skipped).
std::map<std::string, double> rated_activities(const uml::Model& model,
                                               double default_rate) {
  std::map<std::string, double> rates;
  for (const uml::ActivityGraph& graph : model.activity_graphs()) {
    for (const uml::ActivityNode& node : graph.nodes()) {
      if (node.kind != uml::ActivityNode::Kind::kAction) continue;
      rates[node.name] = node.tags.get_double("rate", default_rate);
    }
  }
  for (const uml::StateMachine& machine : model.state_machines()) {
    for (const uml::MachineTransition& t : machine.transitions()) {
      if (t.passive) continue;
      rates[t.action] = t.rate;
    }
  }
  return rates;
}

/// Multiplies the rates of `activity` by `factor`: its action states' "rate"
/// tags (default_rate where untagged) and its active state-machine
/// transitions, names matched as apply_rates matches them.  Passive
/// transitions stay passive, so the model's synchronisation is unchanged.
void scale_activity(uml::Model& model, const std::string& activity,
                    double factor, double default_rate) {
  const std::string sanitised = sanitise_identifier(activity);
  auto matches = [&](const std::string& name) {
    return name == activity || sanitise_identifier(name) == sanitised;
  };
  for (uml::ActivityGraph& graph : model.activity_graphs()) {
    for (uml::ActivityNode& node : graph.nodes()) {
      if (node.kind != uml::ActivityNode::Kind::kAction) continue;
      if (!matches(node.name)) continue;
      node.tags.set("rate", util::format_double(
                                node.tags.get_double("rate", default_rate) *
                                factor));
    }
  }
  for (uml::StateMachine& machine : model.state_machines()) {
    for (uml::MachineTransition& t : machine.transitions()) {
      if (!t.passive && matches(t.action)) t.rate *= factor;
    }
  }
}

/// Throughput of `action` over every analysed view of the model.
double target_throughput(uml::Model model, const std::string& action,
                         const AnalysisOptions& options) {
  const AnalysisReport report = analyse(model, options);
  const std::string sanitised = sanitise_identifier(action);
  for (const auto& graph : report.activity_graphs) {
    for (const auto& [name, value] : graph.throughputs) {
      if (name == sanitised || name == action) return value;
    }
  }
  for (const auto& machines : report.state_machines) {
    for (const auto& [name, value] : machines.throughputs) {
      if (name == sanitised || name == action) return value;
    }
  }
  throw util::ModelError(
      util::msg("target activity '", action, "' does not occur in the model"));
}

}  // namespace

SensitivityReport throughput_sensitivity(const uml::Model& model,
                                         const std::string& target_action,
                                         const SensitivityOptions& options) {
  // The caller's rate overrides are applied once, to a copy; each
  // perturbation then scales one activity's own rates in a copy of that.
  uml::Model rated = model;
  if (!options.analysis.rates.empty()) {
    apply_rates(rated, options.analysis.rates);
  }
  AnalysisOptions analysis = options.analysis;
  analysis.rates.clear();

  SensitivityReport report;
  report.target = target_action;
  report.base_value = target_throughput(rated, target_action, analysis);
  if (!(report.base_value > 0.0)) {
    throw util::ModelError(util::msg("target activity '", target_action,
                                     "' has zero throughput; elasticities are"
                                     " undefined"));
  }

  const double h = options.relative_step;
  for (const auto& [activity, rate] :
       rated_activities(rated, analysis.default_rate)) {
    auto value_at = [&](double factor) {
      uml::Model perturbed = rated;
      scale_activity(perturbed, activity, factor, analysis.default_rate);
      return target_throughput(std::move(perturbed), target_action, analysis);
    };
    const double up = value_at(1.0 + h);
    const double down = value_at(1.0 - h);
    SensitivityEntry entry;
    entry.activity = activity;
    entry.base_rate = rate;
    entry.elasticity = (up - down) / (2.0 * h * report.base_value);
    report.entries.push_back(std::move(entry));
  }
  std::sort(report.entries.begin(), report.entries.end(),
            [](const SensitivityEntry& a, const SensitivityEntry& b) {
              return a.elasticity > b.elasticity;
            });
  return report;
}

}  // namespace choreo::chor
