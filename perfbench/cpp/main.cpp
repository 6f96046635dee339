// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload project_large|sweep_grid|service_mix --seed N
//             --seconds S --trace 0|1 [--smoke] [--work DIR] [--out DIR]
//             [--commit ID]
//   perfbench --selftest
//
// Prints a readable summary, a "# stamp" line naming the host and build,
// and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  --out writes the full record (stamp, metrics, failures
// and, for traced runs, every span) to DIR/<workload>-seed<N>-trace<T>.json.
// An untraced run first times the workload's set-up in a few child
// processes (setup_in_children).
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Config;
using perfbench::Outcome;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of the unified cache at `level` as sysfs reports it ("2048K").
std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    const std::string type = read_first_line(dir + "type");
    if (type.empty()) break;
    if (read_first_line(dir + "level") == std::to_string(level) &&
        type != "Instruction") {
      return read_first_line(dir + "size");
    }
  }
  return "unknown";
}

std::string stamp_json(const Config& config, const std::string& commit) {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(config.workload)
      << ", \"seed\": " << config.seed
      << ", \"seconds\": " << config.seconds
      << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"smoke\": " << (config.smoke ? "true" : "false")
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": " << json_string(cpu_model())
      << ", \"l2\": " << json_string(cache_size(2))
      << ", \"l3\": " << json_string(cache_size(3))
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"commit\": " << json_string(commit) << '}';
  return out.str();
}

std::string metrics_json(const Outcome& outcome) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& metric = outcome.metrics[i];
    if (i != 0) out << ", ";
    out << json_string(metric.name) << ": {\"value\": "
        << json_number(metric.value)
        << ", \"unit\": " << json_string(metric.unit) << '}';
  }
  out << '}';
  return out.str();
}

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload project_large|sweep_grid|"
               "service_mix --seed N --seconds S --trace 0|1 [--smoke] "
               "[--work DIR] [--out DIR] [--commit ID]\n"
               "       perfbench --selftest\n";
  return 2;
}

bool known_workload(const std::string& name) {
  return name == "project_large" || name == "sweep_grid" ||
         name == "service_mix";
}

Outcome run_workload(const Config& config) {
  if (config.workload == "project_large") {
    return perfbench::run_project_large(config);
  }
  if (config.workload == "sweep_grid") return perfbench::run_sweep_grid(config);
  return perfbench::run_service_mix(config);
}

/// Times the workload's set-up in `count` child processes, one after
/// another, and returns each child's fastest sample.  The same set-up runs
/// up to half as fast in one process as in the next, even on the same CPU,
/// so a run's setup_s is the fastest over several processes.  Called
/// before the run starts any thread, so forking is safe; a child leaves
/// with _exit, which neither joins the threads its set-up started nor
/// flushes inherited buffers.
std::vector<double> setup_in_children(Config config, std::size_t count) {
  config.setup_only = true;
  std::vector<double> fastest;
  for (std::size_t i = 0; i < count; ++i) {
    int fds[2];
    if (pipe(fds) != 0) break;
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      break;
    }
    if (pid == 0) {
      close(fds[0]);
      double best = 0.0;
      try {
        best = run_workload(config).metrics.at(0).value;
      } catch (...) {
      }
      const ssize_t written = write(fds[1], &best, sizeof best);
      _exit(written == sizeof best ? 0 : 1);
    }
    close(fds[1]);
    double best = 0.0;
    const bool got = read(fds[0], &best, sizeof best) == sizeof best;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got && best > 0.0 && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      fastest.push_back(best);
    }
  }
  return fastest;
}

int self_test() {
  const std::vector<std::string> silent = perfbench::checker_self_test();
  for (const std::string& name : silent) {
    std::cout << "checker did not fire: " << name << '\n';
  }
  std::cout << (silent.empty() ? "selftest: every checker fired\n"
                               : "selftest: FAILED\n");
  return silent.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string out_dir;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return self_test();
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value after " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work") {
        config.work_dir = value;
      } else if (flag == "--out") {
        out_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (!(config.seconds > 0.0) || !std::isfinite(config.seconds)) {
    return usage("--seconds must be positive");
  }

  if (!known_workload(config.workload)) {
    return usage("unknown workload '" + config.workload + "'");
  }
  if (!config.trace) {
    config.child_setup_s = setup_in_children(config, config.smoke ? 1 : 4);
  }

  Outcome outcome;
  try {
    outcome = run_workload(config);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << error.what()
              << '\n';
    return 1;
  }

  bool finite = true;
  for (const perfbench::Metric& metric : outcome.metrics) {
    finite = finite && std::isfinite(metric.value);
  }
  if (!finite) outcome.fail("a metric is not finite");
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;

  const std::string stamp = stamp_json(config, commit);
  std::cout << config.workload << (config.trace ? " (traced)" : "")
            << ": attempted " << outcome.attempted << ", failed "
            << outcome.failed << '\n';
  for (const std::string& failure : outcome.failures) {
    std::cout << "  failure: " << failure << '\n';
  }
  for (const std::string& note : outcome.notes) {
    std::cout << "  " << note << '\n';
  }
  for (const perfbench::Metric& metric : outcome.metrics) {
    std::printf("  %-30s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::cout << "# stamp " << stamp << '\n';

  if (!out_dir.empty()) {
    const std::string path = out_dir + "/" + config.workload + "-seed" +
                             std::to_string(config.seed) + "-trace" +
                             (config.trace ? "1" : "0") + ".json";
    std::ofstream record(path);
    record << "{\"stamp\": " << stamp << ",\n \"correct\": "
           << (correct ? "true" : "false")
           << ", \"attempted\": " << outcome.attempted
           << ", \"failed\": " << outcome.failed << ",\n \"failures\": [";
    for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
      record << (i != 0 ? ", " : "") << json_string(outcome.failures[i]);
    }
    record << "],\n \"notes\": [";
    for (std::size_t i = 0; i < outcome.notes.size(); ++i) {
      record << (i != 0 ? ", " : "") << json_string(outcome.notes[i]);
    }
    record << "],\n \"metrics\": " << metrics_json(outcome) << ",\n \"spans\": "
           << (outcome.spans_json.empty() ? "[]" : outcome.spans_json)
           << "}\n";
    if (!record) {
      std::cerr << "perfbench: cannot write " << path << '\n';
      return 1;
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << metrics_json(outcome) << "}" << std::endl;
  return 0;
}
