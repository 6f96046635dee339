// Shared plumbing for the experiment benches.
//
// Every bench binary reproduces one of the paper's evaluation artefacts
// (see DESIGN.md section 4): it first prints the paper-style report table,
// then runs its google-benchmark timings.  `for b in build/bench/*; do $b;
// done` therefore regenerates every table and figure of EXPERIMENTS.md.
//
// Machine-readable output: report code may append records via json_record();
// when the CHOREO_BENCH_JSON environment variable names a file, run() writes
// the collected records there as a JSON array after the report.  An
// environment variable is used instead of a flag because google-benchmark
// rejects argv it does not recognise.  scripts/bench_report.sh drives this
// to regenerate the committed BENCH_*.json artefacts.  Every record is
// stamped (host_fields()) with the host and build that produced it; the
// commit comes from CHOREO_BENCH_COMMIT, which bench_report.sh sets.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace choreo::bench {

/// Builder for one flat JSON record ({"key": value, ...}).
class JsonObject {
 public:
  JsonObject& field(const std::string& key, const std::string& value) {
    return raw(key, '"' + value + '"');
  }
  JsonObject& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonObject& field(const std::string& key, double value) {
    std::ostringstream formatted;
    formatted.precision(17);
    formatted << value;
    return raw(key, formatted.str());
  }
  JsonObject& field(const std::string& key, std::size_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& field(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"' + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

/// The CPU model named by /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
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

/// Adds the host and build that produced a record: hardware threads, CPU
/// model, compiler, build type and commit ($CHOREO_BENCH_COMMIT, else
/// "unknown").
inline JsonObject& host_fields(JsonObject& object) {
  const char* commit = std::getenv("CHOREO_BENCH_COMMIT");
  return object
      .field("nproc", static_cast<std::size_t>(std::thread::hardware_concurrency()))
      .field("cpu", cpu_model())
      .field("compiler", CHOREO_BENCH_COMPILER)
      .field("build_type", CHOREO_BENCH_BUILD_TYPE)
      .field("commit", commit != nullptr && *commit != '\0' ? commit : "unknown");
}

/// Records collected during the report, flushed by run().
inline std::vector<std::string>& json_records() {
  static std::vector<std::string> records;
  return records;
}

/// Collects one record, stamped with host_fields().
inline void json_record(JsonObject object) {
  json_records().push_back(host_fields(object).str());
}

/// Writes the collected records to $CHOREO_BENCH_JSON, if set.
inline void flush_json_records() {
  const char* path = std::getenv("CHOREO_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write CHOREO_BENCH_JSON file '" << path << "'\n";
    return;
  }
  out << "[\n";
  for (std::size_t i = 0; i < json_records().size(); ++i) {
    out << "  " << json_records()[i]
        << (i + 1 < json_records().size() ? ",\n" : "\n");
  }
  out << "]\n";
  std::cout << "wrote " << json_records().size() << " records to " << path
            << '\n';
}

/// Prints the experiment banner, runs `report`, then google-benchmark.
inline int run(int argc, char** argv, const std::string& experiment,
               const std::function<void()>& report) {
  std::cout << "==================================================\n"
            << "  " << experiment << '\n'
            << "==================================================\n";
  report();
  flush_json_records();
  std::cout.flush();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace choreo::bench
