// Service-layer throughput: the concurrent analysis scheduler over a
// manifest of the two paper case studies (PDA handover, Tomcat JSP).
//
// Report: jobs/sec and p50/p99 job latency for a cold cache (every job
// solves) vs a warm cache (every job replays), at 1..4 workers.  The
// quantiles come from the service's own choreo_job_seconds histogram,
// read through the snapshot/quantile API the way a dashboard would.  Then
// the document path per job class (PDA and cached Tomcat, each as a miss
// and as a hit): the median of every JobTimings document clock and the
// share of run_seconds the service's clocks cover.
// Benchmarks: one scheduler round trip over the manifest, cold and warm.
#include "bench_common.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "choreographer/paper_models.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "service/scheduler.hpp"
#include "uml/xmi.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "xml/write.hpp"

namespace {
using namespace choreo;

/// `copies` PDA + Tomcat pairs, each pair with its own rate override so
/// every job has a distinct cache key: a cold round solves every job,
/// while resubmitting the same manifest replays all of them.
std::vector<service::JobRequest> paper_manifest(std::size_t copies) {
  std::vector<service::JobRequest> manifest;
  for (std::size_t i = 0; i < copies; ++i) {
    const double rate = 1.0 + 0.25 * static_cast<double>(i);

    service::JobRequest pda;
    pda.name = "pda-" + std::to_string(i);
    pda.project = uml::to_xmi(chor::pda_handover_model());
    pda.options.rates.emplace_back("handover_1", rate);
    manifest.push_back(std::move(pda));

    service::JobRequest tomcat;
    tomcat.name = "tomcat-" + std::to_string(i);
    tomcat.project = uml::to_xmi(chor::tomcat_model(true));
    tomcat.options.rates.emplace_back("request", rate);
    manifest.push_back(std::move(tomcat));
  }
  return manifest;
}

/// Submits the whole manifest to `scheduler` and waits for every job.
/// Returns the wall-clock seconds for the round.
double run_round(service::Scheduler& scheduler,
                 const std::vector<service::JobRequest>& manifest) {
  util::Stopwatch timer;
  std::vector<service::JobHandle> handles;
  handles.reserve(manifest.size());
  for (const service::JobRequest& request : manifest) {
    handles.push_back(scheduler.submit(request));
  }
  for (service::JobHandle& handle : handles) {
    const service::JobResult result = handle.wait();
    if (result.status != service::JobStatus::kDone) {
      std::cerr << "job failed: " << result.error << '\n';
    }
  }
  return timer.seconds();
}

struct RoundStats {
  double jobs_per_second = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double hit_rate = 0.0;
};

/// One measured round against `cache` (primed or not).  The scheduler gets
/// a registry of its own so the latency histogram holds exactly this
/// round's observations; the cache hit rate is read as a delta on the
/// cache's registry, which persists across the priming round.
RoundStats measure_round(service::ResultCache& cache,
                         service::Registry& cache_registry,
                         std::size_t workers,
                         const std::vector<service::JobRequest>& manifest) {
  const std::uint64_t hits_before =
      cache_registry.counter("choreo_cache_hits_total", "").value();
  const std::uint64_t misses_before =
      cache_registry.counter("choreo_cache_misses_total", "").value();

  service::Registry round_registry;
  service::SchedulerOptions options;
  options.workers = workers;
  options.queue_capacity = 16;
  options.cache = &cache;
  options.registry = &round_registry;
  double seconds = 0.0;
  {
    service::Scheduler scheduler(options);
    seconds = run_round(scheduler, manifest);
  }

  const service::Histogram& latency =
      round_registry.histogram("choreo_job_seconds", "");
  const std::uint64_t hits =
      cache_registry.counter("choreo_cache_hits_total", "").value() -
      hits_before;
  const std::uint64_t misses =
      cache_registry.counter("choreo_cache_misses_total", "").value() -
      misses_before;
  RoundStats stats;
  stats.jobs_per_second = static_cast<double>(manifest.size()) / seconds;
  stats.p50_ms = latency.quantile(0.5) * 1e3;
  stats.p99_ms = latency.quantile(0.99) * 1e3;
  const std::uint64_t lookups = hits + misses;
  stats.hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);
  return stats;
}

void prime_cache(service::ResultCache& cache, std::size_t workers,
                 const std::vector<service::JobRequest>& manifest) {
  service::Registry priming_registry;
  service::SchedulerOptions options;
  options.workers = workers;
  options.queue_capacity = 16;
  options.cache = &cache;
  options.registry = &priming_registry;
  service::Scheduler scheduler(options);
  run_round(scheduler, manifest);
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n == 0 ? 0.0
                : n % 2 == 1 ? values[n / 2]
                             : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The document clocks of JobTimings, in pipeline order.
constexpr const char* kDocumentClocks[] = {
    "read", "preprocess", "cache", "from_xmi", "to_xmi", "postprocess",
    "write"};

std::vector<double> document_clocks(const service::JobTimings& t) {
  return {t.read_seconds,     t.preprocess_seconds, t.cache_seconds,
          t.from_xmi_seconds, t.to_xmi_seconds,     t.postprocess_seconds,
          t.write_seconds};
}

double stage_clocks(const chor::StageTimings& s) {
  return s.extract_seconds + s.derive_seconds() + s.assemble_seconds +
         s.solve_seconds + s.measures_seconds + s.reflect_seconds +
         s.teardown_seconds;
}

/// One job class through the service: `jobs` projects read from a file, as
/// the service's batch and benchmark callers submit them, each with its own
/// rate so that the first round misses and the second hits.  Jobs run one
/// at a time on one worker, so the clocks are a job's own.
void document_path_rows(util::TextTable& table, const std::string& name,
                        const uml::Model& model, const std::string& action,
                        std::size_t jobs) {
  xml::Document project = uml::to_xmi(model);
  xml::Node& layout = project.root().add_element("Poseidon.layout");
  layout.add_element("node").set_attr("ref", "n1").set_attr("x", "100");
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_document_path_" + name + ".xmi"))
          .string();
  xml::write_file(project, path);

  service::Registry registry;
  service::ResultCache cache({.registry = &registry});
  service::SchedulerOptions options;
  options.workers = 1;
  options.cache = &cache;
  options.registry = &registry;
  service::Scheduler scheduler(options);
  for (const bool hit : {false, true}) {
    std::vector<std::vector<double>> clocks(std::size(kDocumentClocks));
    std::vector<double> run, document_share, clocked_share;
    for (std::size_t i = 0; i < jobs; ++i) {
      service::JobRequest request;
      request.input_path = path;
      request.options.rates.emplace_back(
          action, 1.0 + 0.01 * static_cast<double>(i));
      const service::JobResult result = scheduler.submit(request).wait();
      if (result.status != service::JobStatus::kDone ||
          result.from_cache != hit) {
        std::cerr << "document path job " << name << " " << i
                  << " did not run as expected: " << result.error << '\n';
        continue;
      }
      const std::vector<double> document = document_clocks(result.timings);
      double document_sum = 0.0;
      for (std::size_t c = 0; c < document.size(); ++c) {
        clocks[c].push_back(document[c]);
        document_sum += document[c];
      }
      const double seconds = result.timings.run_seconds;
      run.push_back(seconds);
      document_share.push_back(document_sum / seconds);
      clocked_share.push_back(
          (document_sum + stage_clocks(result.timings.stages)) / seconds);
    }
    bench::JsonObject record;
    record.field("section", "document_path")
        .field("model", name)
        .field("cache", hit ? "hit" : "miss")
        .field("jobs", run.size())
        .field("run_ms", median_of(run) * 1e3);
    std::vector<double> row = {static_cast<double>(run.size()),
                               median_of(run) * 1e3};
    for (std::size_t c = 0; c < clocks.size(); ++c) {
      const double ms = median_of(clocks[c]) * 1e3;
      record.field(std::string(kDocumentClocks[c]) + "_ms", ms);
      row.push_back(ms);
    }
    record.field("document_share", median_of(document_share))
        .field("clocked_share", median_of(clocked_share));
    row.push_back(median_of(document_share));
    row.push_back(median_of(clocked_share));
    bench::json_record(record);
    table.add_row_values(name + (hit ? " hit" : " miss"), row);
  }
  std::remove(path.c_str());
}

void document_path_report() {
  std::vector<std::string> columns = {"job", "jobs", "run (ms)"};
  for (const char* clock : kDocumentClocks) {
    columns.push_back(std::string(clock) + " (ms)");
  }
  columns.push_back("document share");
  columns.push_back("clocked share");
  util::TextTable table(columns);
  document_path_rows(table, "pda", chor::pda_handover_model(), "handover_1",
                     200);
  document_path_rows(table, "tomcat_cached", chor::tomcat_model(true),
                     "request", 200);
  std::cout << "Document path per job (medians; shares of run_seconds):\n"
            << table << '\n';
}

void report() {
  const std::vector<service::JobRequest> manifest = paper_manifest(16);
  util::TextTable table(
      {"config", "jobs", "jobs/s", "p50 (ms)", "p99 (ms)", "hit rate"});
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    for (const bool warm : {false, true}) {
      service::Registry cache_registry;
      service::ResultCache cache({.registry = &cache_registry});
      if (warm) prime_cache(cache, workers, manifest);
      const RoundStats stats =
          measure_round(cache, cache_registry, workers, manifest);
      table.add_row_values(
          std::to_string(workers) + (warm ? "w warm" : "w cold"),
          {static_cast<double>(manifest.size()), stats.jobs_per_second,
           stats.p50_ms, stats.p99_ms, stats.hit_rate});
      bench::json_record(
          bench::JsonObject()
              .field("model", "paper_manifest[16 pairs]")
              .field("workers", workers)
              .field("warm_cache", warm)
              .field("jobs", manifest.size())
              .field("seconds",
                     static_cast<double>(manifest.size()) /
                         stats.jobs_per_second)
              .field("jobs_per_second", stats.jobs_per_second)
              .field("p50_ms", stats.p50_ms)
              .field("p99_ms", stats.p99_ms)
              .field("cache_hit_rate", stats.hit_rate));
    }
  }
  std::cout << table << '\n';
  document_path_report();
}

void bench_round(benchmark::State& state, bool warm) {
  const std::vector<service::JobRequest> manifest = paper_manifest(4);
  for (auto _ : state) {
    state.PauseTiming();
    service::Registry registry;
    service::ResultCache cache({.registry = &registry});
    if (warm) prime_cache(cache, 2, manifest);
    service::SchedulerOptions options;
    options.workers = 2;
    options.cache = &cache;
    options.registry = &registry;
    service::Scheduler scheduler(options);
    state.ResumeTiming();

    run_round(scheduler, manifest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(manifest.size()));
}

void BM_ServiceColdCache(benchmark::State& state) {
  bench_round(state, /*warm=*/false);
}
BENCHMARK(BM_ServiceColdCache)->Unit(benchmark::kMillisecond);

void BM_ServiceWarmCache(benchmark::State& state) {
  bench_round(state, /*warm=*/true);
}
BENCHMARK(BM_ServiceWarmCache)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return choreo::bench::run(argc, argv,
                            "service throughput (scheduler + result cache)",
                            report);
}
