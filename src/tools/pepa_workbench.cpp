// The PEPA Workbench as a command-line tool: solves .pepa models and
// .pepanet nets for their steady state and prints measures.
//
//   pepa_workbench MODEL.pepa    [--states] [--solver METHOD] [--prism BASE] [--dot FILE] [--aggregate]
//                                [--quotient] [--measures FILE] [--passage-to NAME] [--threads N]
//   pepa_workbench MODEL.pepanet [... same options ...]
//   pepa_workbench MODEL.pepa    --sweep NAME=SPEC [--sweep NAME=SPEC ...]
//                                [--sweep-zip] [--sweep-backend exact|fluid]
//                                [--sweep-json] [--sweep-out FILE] [--threads N]
//
// --threads N explores the state/marking space with N parallel lanes (0 =
// one per core, 1 = sequential); outputs are identical at any N.
//
// --sweep runs a design-space sweep over the named rate parameters instead
// of a single solve: the state space is derived once and every point is
// re-solved against the shared structure.  SPEC is LO:HI:COUNT (linear),
// log:LO:HI:COUNT or V1,V2,...; multiple --sweep axes form a Cartesian
// grid unless --sweep-zip pairs them position-by-position.  The result
// table goes to stdout (CSV; --sweep-json for JSON) or to --sweep-out.
//
// --aggregate lumps *after* a full derivation (post-hoc strong-equivalence
// aggregation, the correctness oracle); --quotient derives the quotient
// *directly* — successors collapse to canonical representatives inside the
// exploration engine, so the full space is never held in memory.
//
// --prism BASE additionally exports the derived CTMC as BASE.tra/.sta/.lab
// in the PRISM model checker's explicit-state format (the paper connects
// its extractors to PRISM for model checking).  --dot FILE writes the
// derivation graph / marking graph in GraphViz format.
//
// A file is treated as a PEPA net when it contains net declarations
// (@token/@place/@transition); otherwise it is a plain PEPA model.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "ctmc/passage.hpp"
#include "ctmc/prism_export.hpp"
#include "ctmc/steady_state.hpp"
#include "choreographer/measures_spec.hpp"
#include "pepa/aggregate.hpp"
#include "pepa/dot.hpp"
#include "pepa/measures.hpp"
#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/net_dot.hpp"
#include "pepanet/netaggregate.hpp"
#include "pepanet/net_parser.hpp"
#include "pepanet/net_printer.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " MODEL.pepa|MODEL.pepanet [--states]"
               " [--solver auto|dense-lu|jacobi|gauss-seidel|sor|power]"
               " [--prism BASE] [--dot FILE] [--aggregate] [--quotient]"
               " [--measures FILE]"
               " [--passage-to NAME] [--threads N]\n"
               "       " << argv0
            << " MODEL.pepa --sweep NAME=SPEC [--sweep ...] [--sweep-zip]"
               " [--sweep-backend exact|fluid] [--sweep-json]"
               " [--sweep-out FILE]\n";
  return 2;
}

choreo::ctmc::Method parse_method(const std::string& name) {
  using choreo::ctmc::Method;
  if (name == "auto") return Method::kAuto;
  if (name == "dense-lu") return Method::kDenseLU;
  if (name == "jacobi") return Method::kJacobi;
  if (name == "gauss-seidel") return Method::kGaussSeidel;
  if (name == "sor") return Method::kSor;
  if (name == "power") return Method::kPower;
  throw choreo::util::Error("unknown solver method '" + name + "'");
}

bool is_net_source(const std::string& source) {
  // Cheap heuristic matching the net parser's own section finder.
  return source.find("@token") != std::string::npos ||
         source.find("@place") != std::string::npos;
}

int run_sweep(const std::string& source, const std::string& name,
              const choreo::ctmc::SolveOptions& options,
              const choreo::sweep::SweepSpec& spec,
              choreo::sweep::Backend backend, bool json,
              const std::string& out_path, std::size_t threads) {
  using namespace choreo;
  pepa::Model model = pepa::parse_model(source, name);
  sweep::SweepOptions sweep_options;
  sweep_options.backend = backend;
  sweep_options.solver = options;
  sweep_options.derive.threads = threads;
  sweep_options.threads = threads;
  const sweep::SweepTable table = sweep::sweep(model, spec, sweep_options);
  std::cerr << "sweep: " << table.rows.size() << " point(s), "
            << table.derivations << " derivation(s), " << table.state_count
            << " shared states, "
            << util::format_double(table.seconds * 1e3) << " ms\n";
  bool any_failed = false;
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    if (table.rows[r].ok()) continue;
    any_failed = true;
    std::cerr << "point " << r << ": " << table.rows[r].error << '\n';
  }
  const std::string rendered = json ? table.to_json() : table.to_csv();
  if (out_path.empty()) {
    std::cout << rendered;
  } else {
    std::ofstream stream(out_path, std::ios::binary);
    if (!stream || !(stream << rendered) || !stream.flush()) {
      throw util::Error("cannot write sweep table to '" + out_path + "'");
    }
    std::cerr << "sweep table written to " << out_path << '\n';
  }
  return any_failed ? 1 : 0;
}

int solve_pepa(const std::string& source, const std::string& name,
               bool show_states, const choreo::ctmc::SolveOptions& options,
               const std::string& prism_base, const std::string& dot_path,
               bool aggregate_first, bool quotient,
               const std::vector<choreo::chor::MeasureSpec>& measures,
               const std::string& passage_target, std::size_t threads) {
  using namespace choreo;
  pepa::Model model = pepa::parse_model(source, name);
  pepa::Semantics semantics(model.arena());
  pepa::DeriveOptions derive_options;
  derive_options.threads = threads;
  derive_options.aggregate = quotient;
  const auto space =
      pepa::StateSpace::derive(semantics, model.system(), derive_options);
  std::cout << (quotient ? "quotient state space: " : "state space: ")
            << space.state_count() << " states, "
            << space.transitions().size() << " transitions (derived in "
            << space.stats().seconds * 1e3 << " ms)\n";
  if (quotient) {
    std::cout << "quotient-direct derivation: "
              << space.stats().canonical_rewrites
              << " successor(s) rewritten to canonical representatives\n";
  }
  const auto deadlocks = space.deadlock_states();
  if (!deadlocks.empty()) {
    std::cout << "warning: " << deadlocks.size() << " deadlock state(s), e.g. "
              << pepa::to_string(model.arena(), space.state_term(deadlocks[0]))
              << '\n';
  }
  if (aggregate_first) {
    const auto lumping = pepa::aggregate(space);
    std::cout << "aggregated " << space.state_count() << " states into "
              << lumping.block_count << " strong-equivalence blocks\n";
    const auto solved = ctmc::steady_state(lumping.quotient_generator(), options);
    std::cout << "solved quotient with " << ctmc::method_name(solved.method_used)
              << ", residual " << solved.residual << "\n\n";
    util::TextTable throughputs({"activity", "throughput"});
    for (pepa::ActionId action = 1; action < model.arena().action_count();
         ++action) {
      const double value = lumping.throughput(solved.distribution, action);
      if (value > 0.0) {
        throughputs.add_row_values(model.arena().action_name(action), {value});
      }
    }
    std::cout << throughputs;
    return 0;
  }
  const auto solved = ctmc::steady_state(space.generator(), options);
  std::cout << "solved with " << ctmc::method_name(solved.method_used) << ", "
            << solved.iterations << " iteration(s), residual "
            << solved.residual << "\n\n";
  if (!prism_base.empty()) {
    ctmc::write_prism_files(space.generator(), prism_base);
    std::cout << "PRISM explicit files written to " << prism_base
              << ".tra/.sta/.lab\n\n";
  }
  if (!dot_path.empty()) {
    std::ofstream dot(dot_path, std::ios::binary);
    dot << pepa::to_dot(model.arena(), space);
    std::cout << "derivation graph written to " << dot_path << "\n\n";
  }
  if (!passage_target.empty()) {
    const auto constant = model.arena().find_constant(passage_target);
    if (!constant) {
      throw util::Error("unknown derivative '" + passage_target + "'");
    }
    const auto occupied =
        space.local_states(model.arena()).occupying(*constant);
    const std::vector<std::size_t> targets(occupied.begin(), occupied.end());
    if (targets.empty()) {
      throw util::Error("no reachable state occupies '" + passage_target + "'");
    }
    std::cout << "mean first passage (initial -> " << passage_target
              << "): "
              << ctmc::mean_passage_time(space.generator(), 0, targets)
              << "\n\n";
  }
  if (!measures.empty()) {
    util::TextTable table({"measure", "value"});
    for (const auto& value :
         chor::evaluate_measures(measures, model.arena(), space,
                                 solved.distribution)) {
      table.add_row({value.spec.to_string(),
                     value.supported ? util::format_double(value.value)
                                     : "unsupported (" + value.note + ")"});
    }
    std::cout << table;
    return 0;
  }
  if (show_states) {
    util::TextTable states({"state", "probability"});
    for (std::size_t s = 0; s < space.state_count(); ++s) {
      states.add_row_values(pepa::to_string(model.arena(), space.state_term(s)),
                            {solved.distribution[s]});
    }
    std::cout << states << '\n';
  }
  util::TextTable throughputs({"activity", "throughput"});
  for (const auto& [action, value] :
       pepa::all_throughputs(space, solved.distribution, model.arena())) {
    throughputs.add_row_values(model.arena().action_name(action), {value});
  }
  std::cout << throughputs;
  return 0;
}

int solve_net(const std::string& source, const std::string& name,
              bool show_states, const choreo::ctmc::SolveOptions& options,
              const std::string& prism_base, const std::string& dot_path,
              bool aggregate_first, bool quotient,
              const std::vector<choreo::chor::MeasureSpec>& measures,
              const std::string& passage_target, std::size_t threads) {
  using namespace choreo;
  auto parsed = pepanet::parse_net(source, name);
  pepanet::NetSemantics semantics(parsed.net);
  pepanet::NetDeriveOptions derive_options;
  derive_options.threads = threads;
  derive_options.aggregate = quotient;
  const auto space = pepanet::NetStateSpace::derive(semantics, derive_options);
  std::cout << (quotient ? "quotient marking graph: " : "marking graph: ")
            << space.marking_count() << " markings, "
            << space.transitions().size() << " transitions (derived in "
            << space.stats().seconds * 1e3 << " ms)\n";
  if (quotient) {
    std::cout << "quotient-direct derivation: "
              << space.stats().canonical_rewrites
              << " successor(s) rewritten to canonical representatives\n";
  }
  const auto deadlocks = space.deadlock_markings();
  if (!deadlocks.empty()) {
    std::cout << "warning: " << deadlocks.size() << " deadlock marking(s), e.g. "
              << pepanet::marking_to_string(parsed.net,
                                            space.marking(deadlocks[0]))
              << '\n';
  }
  if (aggregate_first) {
    const auto lumping = pepanet::aggregate(space);
    std::cout << "aggregated " << space.marking_count() << " markings into "
              << lumping.block_count << " strong-equivalence blocks\n";
    const auto solved = ctmc::steady_state(lumping.quotient_generator(), options);
    std::cout << "solved quotient with " << ctmc::method_name(solved.method_used)
              << ", residual " << solved.residual << "\n\n";
    util::TextTable throughputs({"activity", "throughput"});
    for (pepa::ActionId action = 1;
         action < parsed.net.arena().action_count(); ++action) {
      const double value = lumping.throughput(solved.distribution, action);
      if (value > 0.0) {
        throughputs.add_row_values(parsed.net.arena().action_name(action),
                                   {value});
      }
    }
    std::cout << throughputs;
    return 0;
  }
  const auto solved = ctmc::steady_state(space.generator(), options);
  std::cout << "solved with " << ctmc::method_name(solved.method_used) << ", "
            << solved.iterations << " iteration(s), residual "
            << solved.residual << "\n\n";
  if (!prism_base.empty()) {
    ctmc::write_prism_files(space.generator(), prism_base);
    std::cout << "PRISM explicit files written to " << prism_base
              << ".tra/.sta/.lab\n\n";
  }
  if (!dot_path.empty()) {
    std::ofstream dot(dot_path, std::ios::binary);
    dot << pepanet::marking_graph_to_dot(parsed.net, space);
    std::cout << "marking graph written to " << dot_path << "\n\n";
  }
  if (!passage_target.empty()) {
    std::cout << "note: --passage-to applies to plain PEPA models\n\n";
  }
  if (!measures.empty()) {
    util::TextTable table({"measure", "value"});
    for (const auto& value : chor::evaluate_measures(measures, parsed.net,
                                                     space,
                                                     solved.distribution)) {
      table.add_row({value.spec.to_string(),
                     value.supported ? util::format_double(value.value)
                                     : "unsupported (" + value.note + ")"});
    }
    std::cout << table;
    return 0;
  }
  if (show_states) {
    util::TextTable markings({"marking", "probability"});
    for (std::size_t m = 0; m < space.marking_count(); ++m) {
      markings.add_row_values(
          pepanet::marking_to_string(parsed.net, space.marking(m)),
          {solved.distribution[m]});
    }
    std::cout << markings << '\n';
  }
  util::TextTable throughputs({"activity", "throughput"});
  for (pepa::ActionId action = 1; action < parsed.net.arena().action_count();
       ++action) {
    const double value =
        pepanet::action_throughput(space, solved.distribution, action);
    if (value > 0.0) {
      throughputs.add_row_values(parsed.net.arena().action_name(action), {value});
    }
  }
  std::cout << throughputs;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string prism_base;
  std::string dot_path;
  bool show_states = false;
  bool aggregate_first = false;
  bool quotient = false;
  std::vector<choreo::chor::MeasureSpec> measures;
  std::string passage_target;
  std::size_t threads = 1;
  choreo::ctmc::SolveOptions options;
  choreo::sweep::SweepSpec sweep_spec;
  choreo::sweep::Backend sweep_backend = choreo::sweep::Backend::kExact;
  bool sweep_json = false;
  std::string sweep_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--states") {
        show_states = true;
      } else if (arg == "--solver") {
        if (i + 1 >= argc) return usage(argv[0]);
        options.method = parse_method(argv[++i]);
      } else if (arg == "--prism") {
        if (i + 1 >= argc) return usage(argv[0]);
        prism_base = argv[++i];
      } else if (arg == "--dot") {
        if (i + 1 >= argc) return usage(argv[0]);
        dot_path = argv[++i];
      } else if (arg == "--aggregate") {
        aggregate_first = true;
      } else if (arg == "--quotient") {
        quotient = true;
      } else if (arg == "--measures") {
        if (i + 1 >= argc) return usage(argv[0]);
        measures = choreo::chor::parse_measures_file(argv[++i]);
      } else if (arg == "--passage-to") {
        if (i + 1 >= argc) return usage(argv[0]);
        passage_target = argv[++i];
      } else if (arg == "--sweep") {
        if (i + 1 >= argc) return usage(argv[0]);
        sweep_spec.axes.push_back(choreo::sweep::parse_axis(argv[++i]));
      } else if (arg == "--sweep-zip") {
        sweep_spec.combine = choreo::sweep::Combine::kZip;
      } else if (arg == "--sweep-backend") {
        if (i + 1 >= argc) return usage(argv[0]);
        const std::string value = argv[++i];
        if (value == "exact") {
          sweep_backend = choreo::sweep::Backend::kExact;
        } else if (value == "fluid") {
          sweep_backend = choreo::sweep::Backend::kFluid;
        } else {
          throw choreo::util::Error("unknown sweep backend '" + value +
                                    "' (expected exact or fluid)");
        }
      } else if (arg == "--sweep-json") {
        sweep_json = true;
      } else if (arg == "--sweep-out") {
        if (i + 1 >= argc) return usage(argv[0]);
        sweep_out = argv[++i];
      } else if (arg == "--threads") {
        if (i + 1 >= argc) return usage(argv[0]);
        const std::string value = argv[++i];
        try {
          std::size_t used = 0;
          threads = std::stoul(value, &used);
          if (used != value.size()) throw std::invalid_argument(value);
        } catch (const std::exception&) {
          throw choreo::util::Error("--threads expects a count, got '" +
                                    value + "'");
        }
      } else if (arg == "-h" || arg == "--help") {
        return usage(argv[0]);
      } else if (!arg.empty() && arg[0] == '-') {
        return usage(argv[0]);
      } else if (path.empty()) {
        path = arg;
      } else {
        return usage(argv[0]);
      }
    }
    if (path.empty()) return usage(argv[0]);

    std::ifstream stream(path, std::ios::binary);
    if (!stream) {
      std::cerr << "cannot open '" << path << "'\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const std::string source = buffer.str();

    if (!sweep_spec.axes.empty()) {
      if (is_net_source(source)) {
        throw choreo::util::Error(
            "--sweep applies to plain PEPA models, not PEPA nets");
      }
      return run_sweep(source, path, options, sweep_spec, sweep_backend,
                       sweep_json, sweep_out, threads);
    }
    return is_net_source(source)
               ? solve_net(source, path, show_states, options, prism_base,
                           dot_path, aggregate_first, quotient, measures,
                           passage_target, threads)
               : solve_pepa(source, path, show_states, options, prism_base,
                            dot_path, aggregate_first, quotient, measures,
                            passage_target, threads);
  } catch (const choreo::util::Error& error) {
    std::cerr << "pepa_workbench: " << error.what() << '\n';
    return 1;
  }
}
