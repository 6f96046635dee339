#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "uml/xmi.hpp"
#include "xml/parse.hpp"

namespace perfbench::checks {

namespace {

/// Absolute on a probability sum, relative between throughputs.
constexpr double kProbabilityTolerance = 1e-9;
constexpr double kThroughputTolerance = 1e-9;

/// The "probability" tags reflected into an annotated model, per machine
/// (-1 where a state has none).
std::vector<std::vector<double>> reflected_probabilities(
    const choreo::uml::Model& annotated) {
  std::vector<std::vector<double>> out;
  for (const choreo::uml::StateMachine& machine : annotated.state_machines()) {
    std::vector<double> values;
    for (const choreo::uml::SimpleState& state : machine.states()) {
      values.push_back(state.tags.get_double("probability", -1.0));
    }
    out.push_back(std::move(values));
  }
  return out;
}

std::string format(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

bool close_relative(double a, double b) {
  return std::fabs(a - b) <=
         kThroughputTolerance * std::max(std::fabs(a), std::fabs(b));
}

const double* find(const Throughputs& throughputs, const std::string& name) {
  for (const auto& [action, value] : throughputs) {
    if (action == name) return &value;
  }
  return nullptr;
}

/// Every named action is present, positive and equal to the first.
std::string all_equal(const Throughputs& throughputs,
                      const std::vector<std::string>& names) {
  const double* reference = nullptr;
  for (const std::string& name : names) {
    const double* value = find(throughputs, name);
    if (value == nullptr) return "throughput of '" + name + "' missing";
    if (!(*value > 0.0) || !std::isfinite(*value)) {
      return "throughput of '" + name + "' is " + format(*value);
    }
    if (reference == nullptr) {
      reference = value;
    } else if (!close_relative(*reference, *value)) {
      return "throughput of '" + name + "' is " + format(*value) +
             ", expected " + format(*reference) + " (as '" + names.front() +
             "')";
    }
  }
  return "";
}

}  // namespace

std::string probabilities_sum_to_one(
    const std::vector<std::vector<double>>& probabilities) {
  if (probabilities.empty()) return "no state-machine probabilities";
  for (std::size_t m = 0; m < probabilities.size(); ++m) {
    double sum = 0.0;
    for (const double p : probabilities[m]) {
      if (!(p >= 0.0) || p > 1.0) {
        return "machine " + std::to_string(m) + " has probability " +
               format(p);
      }
      sum += p;
    }
    if (std::fabs(sum - 1.0) > kProbabilityTolerance) {
      return "machine " + std::to_string(m) + " probabilities sum to " +
             format(sum);
    }
  }
  return "";
}

std::string tomcat_cycle(const Throughputs& throughputs, bool cached,
                         const std::string& prefix) {
  std::vector<std::string> names = {"request", "response",
                                    "offlineProcessing"};
  if (cached) {
    names.insert(names.end(), {"locateservlet", "execute"});
  } else {
    names.insert(names.end(), {"locatejsp", "translate", "compile", "execute"});
  }
  for (std::string& name : names) name = prefix + name;
  return all_equal(throughputs, names);
}

std::string pda_ring(const Throughputs& throughputs, std::size_t hops) {
  std::vector<std::string> hop_actions;
  for (std::size_t i = 1; i <= hops; ++i) {
    const std::string n = std::to_string(i);
    hop_actions.insert(hop_actions.end(),
                       {"download_file_" + n, "detect_weak_signal_" + n,
                        "search_for_transmitters_" + n, "handover_" + n});
  }
  if (std::string failure = all_equal(throughputs, hop_actions);
      !failure.empty()) {
    return failure;
  }
  for (std::size_t i = 1; i <= hops; ++i) {
    const std::string n = std::to_string(i);
    if (std::string failure = all_equal(
            throughputs, {"continue_download_" + n, "abort_download_" + n});
        !failure.empty()) {
      return failure;
    }
  }
  return "";
}

std::string single_cycle(const Throughputs& throughputs) {
  if (throughputs.empty()) return "no throughputs";
  std::vector<std::string> names;
  for (const auto& [action, value] : throughputs) names.push_back(action);
  return all_equal(throughputs, names);
}

std::string tomcat_project(const std::string& annotated_xmi,
                           const choreo::chor::AnalysisReport& report,
                           bool cached) {
  const choreo::uml::Model annotated =
      choreo::uml::from_xmi(choreo::xml::parse_document(annotated_xmi));
  if (std::string failure =
          probabilities_sum_to_one(reflected_probabilities(annotated));
      !failure.empty()) {
    return failure;
  }
  if (report.state_machines.size() != 1) {
    return "expected one state-machine result";
  }
  return tomcat_cycle(report.state_machines.front().throughputs, cached);
}

std::string tomcat_sweep(const choreo::sweep::SweepTable& table, bool cached) {
  if (table.rows.empty()) return "sweep table has no rows";
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const choreo::sweep::SweepRow& row = table.rows[r];
    if (!row.ok()) return "sweep row " + std::to_string(r) + ": " + row.error;
    if (row.measures.size() != table.measures.size()) {
      return "sweep row " + std::to_string(r) + " has " +
             std::to_string(row.measures.size()) + " measures";
    }
    Throughputs named;
    for (std::size_t m = 0; m < table.measures.size(); ++m) {
      named.emplace_back(table.measures[m], row.measures[m]);
    }
    if (std::string failure = tomcat_cycle(named, cached, "throughput:");
        !failure.empty()) {
      return "sweep row " + std::to_string(r) + ": " + failure;
    }
  }
  return "";
}

std::string same_table(const choreo::sweep::SweepTable& expected,
                       const choreo::sweep::SweepTable& actual) {
  if (expected.axes != actual.axes) return "sweep axes differ";
  if (expected.measures != actual.measures) return "sweep measures differ";
  if (expected.rows.size() != actual.rows.size()) return "sweep rows differ";
  for (std::size_t r = 0; r < expected.rows.size(); ++r) {
    const auto& a = expected.rows[r];
    const auto& b = actual.rows[r];
    const bool values_equal =
        a.values.size() == b.values.size() &&
        std::memcmp(a.values.data(), b.values.data(),
                    a.values.size() * sizeof(double)) == 0;
    const bool measures_equal =
        a.measures.size() == b.measures.size() &&
        std::memcmp(a.measures.data(), b.measures.data(),
                    a.measures.size() * sizeof(double)) == 0;
    if (!values_equal || !measures_equal || a.error != b.error) {
      return "sweep row " + std::to_string(r) + " differs";
    }
  }
  return "";
}

std::string same_bytes(const std::string& what, const std::string& expected,
                       const std::string& actual) {
  if (expected == actual) return "";
  std::size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  return what + " differs at byte " + std::to_string(at) + " (" +
         std::to_string(actual.size()) + " vs " +
         std::to_string(expected.size()) + " bytes)";
}

}  // namespace perfbench::checks
