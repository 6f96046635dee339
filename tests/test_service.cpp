// Tests of the concurrent analysis service: scheduler lifecycle, the
// content-addressed result cache and its shared entries, determinism of
// cached results, the document-path clocks, the ≥64-job concurrency
// stress, and timeout/cancellation semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "choreographer/paper_models.hpp"
#include "choreographer/pipeline.hpp"
#include "service/cache.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"
#include "service/scheduler.hpp"
#include "uml/xmi.hpp"
#include "xml/write.hpp"

namespace chor = choreo::chor;
namespace cs = choreo::service;
namespace cm = choreo::uml;
namespace cx = choreo::xml;

namespace {

/// A project document with Poseidon-style layout attached.
cx::Document project_with_layout(const cm::Model& model, int x) {
  cx::Document document = cm::to_xmi(model);
  cx::Node& layout = document.root().add_element("Poseidon.layout");
  layout.add_element("node")
      .set_attr("ref", "n1")
      .set_attr("x", std::to_string(x))
      .set_attr("y", "40");
  return document;
}

/// What a one-shot analyse_project run produces for this request.
std::string reference_bytes(const cx::Document& project,
                            const chor::AnalysisOptions& options) {
  return cx::to_string(chor::analyse_project(project, options));
}

cs::JobRequest inline_request(cx::Document project,
                              const chor::AnalysisOptions& options = {}) {
  cs::JobRequest request;
  request.project = std::move(project);
  request.options = options;
  return request;
}

}  // namespace

TEST(Cache, LayoutOnlyEditsShareAKey) {
  const cm::Model model = chor::pda_handover_model();
  const chor::AnalysisOptions options;
  const std::string moved_once =
      cs::cache_key(project_with_layout(model, 100), options);
  const std::string moved_again =
      cs::cache_key(project_with_layout(model, 700), options);
  EXPECT_EQ(moved_once, moved_again);
  EXPECT_EQ(cs::fingerprint(moved_once), cs::fingerprint(moved_again));

  // Any result-affecting option change is a different key.
  chor::AnalysisOptions aggregated;
  aggregated.aggregation = chor::Aggregation::kExact;
  EXPECT_NE(moved_once,
            cs::cache_key(project_with_layout(model, 100), aggregated));
  // The fluid ODE knobs shape results only at the fluid level, so they
  // only key there: tightening a tolerance must not split exact analyses.
  chor::AnalysisOptions tightened;
  tightened.fluid_rel_tol = 1e-9;
  EXPECT_EQ(moved_once,
            cs::cache_key(project_with_layout(model, 100), tightened));
  chor::AnalysisOptions fluid = tightened;
  fluid.aggregation = chor::Aggregation::kFluid;
  chor::AnalysisOptions fluid_default;
  fluid_default.aggregation = chor::Aggregation::kFluid;
  EXPECT_NE(cs::cache_key(project_with_layout(model, 100), fluid),
            cs::cache_key(project_with_layout(model, 100), fluid_default));
  chor::AnalysisOptions rated;
  rated.rates = {{"handover_1", 0.25}};
  EXPECT_NE(moved_once, cs::cache_key(project_with_layout(model, 100), rated));

  // A structural edit (a different model) is a different key.
  EXPECT_NE(moved_once,
            cs::cache_key(project_with_layout(
                              chor::instant_message_model(), 100),
                          options));
}

TEST(Cache, LruEvictsUnderByteBudget) {
  cs::Registry registry;
  cs::CacheOptions options;
  options.registry = &registry;
  cs::ResultCache probe({.max_bytes = 1 << 30, .registry = &registry});

  auto analysis = std::make_shared<cs::CachedAnalysis>();
  analysis->reflected_model = cm::to_xmi(chor::pda_handover_model());
  probe.put("probe", analysis);
  const std::size_t per_entry = probe.byte_count();
  ASSERT_GT(per_entry, 0u);

  // Room for exactly two entries.
  options.max_bytes = per_entry * 2 + per_entry / 2;
  cs::ResultCache cache(options);
  cache.put("a", analysis);
  cache.put("b", analysis);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_NE(cache.get("a"), nullptr);  // refresh: "b" is now LRU
  cache.put("c", analysis);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(
      registry.counter("choreo_cache_evictions_total", "").value(), 1u);
}

namespace {

/// Bytes of one node subtree as the cache charges them.
std::size_t charged_node_bytes(const cx::Node& node) {
  std::size_t bytes = sizeof(node) + node.name().size() + node.content().size();
  for (const cx::Attribute& attribute : node.attributes()) {
    bytes += attribute.name.size() + attribute.value.size();
  }
  for (const cx::Node& child : node.children()) {
    bytes += charged_node_bytes(child);
  }
  return bytes;
}

/// The byte charge of one entry as the cache made it when entries held
/// their analysis by value (the key, a {key, analysis, bytes} record, the
/// document's nodes and the report's rows); shared entries keep it.
std::size_t by_value_entry_bytes(const std::string& key,
                                 const cs::CachedAnalysis& analysis) {
  std::size_t bytes = key.size() + sizeof(std::string) +
                      sizeof(cs::CachedAnalysis) + sizeof(std::size_t) +
                      charged_node_bytes(analysis.reflected_model.root());
  for (const auto& graph : analysis.report.activity_graphs) {
    bytes += graph.graph_name.size() + sizeof(graph);
    for (const auto& [name, value] : graph.throughputs) {
      bytes += name.size() + sizeof(value);
    }
  }
  for (const auto& machines : analysis.report.state_machines) {
    bytes += sizeof(machines);
    for (const auto& row : machines.probabilities) {
      bytes += row.size() * sizeof(double);
    }
    for (const auto& [name, value] : machines.throughputs) {
      bytes += name.size() + sizeof(value);
    }
  }
  return bytes;
}

/// An entry whose report names the generation `tag`, as does its document's
/// root, so a reader can tell a torn or recycled entry from an intact one.
std::shared_ptr<const cs::CachedAnalysis> tagged_entry(const std::string& tag,
                                                       std::size_t rows) {
  auto analysis = std::make_shared<cs::CachedAnalysis>();
  cx::Node root = cx::Node::element("XMI");
  root.set_attr("tag", tag);
  for (std::size_t r = 0; r < rows; ++r) {
    root.add_element("UML:Row").set_attr("index", std::to_string(r));
  }
  analysis->reflected_model.set_root(std::move(root));
  chor::ActivityGraphResult graph;
  graph.graph_name = tag;
  graph.throughputs = {{"a", 1.0}, {"b", 2.0}};
  analysis->report.activity_graphs.push_back(std::move(graph));
  chor::StateMachineResult machines;
  machines.probabilities = {std::vector<double>(rows, 0.5)};
  analysis->report.state_machines.push_back(std::move(machines));
  return analysis;
}

bool intact(const cs::CachedAnalysis& analysis) {
  return analysis.reflected_model.root().attr_or("tag", "") ==
         analysis.report.activity_graphs.front().graph_name;
}

}  // namespace

// The shared entries are charged what entries held by value were, so one
// sequence of puts and gets leaves the same bytes after every step and
// evicts the same keys as a byte-budget LRU over that charge.
TEST(Cache, ByteCountAndEvictionOrderFollowTheByValueCharge) {
  const std::vector<std::pair<std::string, std::size_t>> shapes = {
      {"a", 3}, {"bb", 9}, {"ccc", 1}, {"dddd", 6}, {"e", 12}};
  std::map<std::string, std::shared_ptr<const cs::CachedAnalysis>> entries;
  std::map<std::string, std::size_t> charge;
  for (const auto& [key, rows] : shapes) {
    entries[key] = tagged_entry(key, rows);
    charge[key] = by_value_entry_bytes(key, *entries[key]);
  }
  const std::size_t budget = charge["a"] + charge["bb"] + charge["dddd"];

  // The reference: keys most recently used first, with their charges.
  std::vector<std::string> model;
  std::size_t model_bytes = 0;
  auto model_use = [&](const std::string& key) {
    const auto it = std::find(model.begin(), model.end(), key);
    if (it == model.end()) return false;
    model.erase(it);
    model.insert(model.begin(), key);
    return true;
  };
  auto model_put = [&](const std::string& key) {
    const auto it = std::find(model.begin(), model.end(), key);
    if (it != model.end()) {
      model_bytes -= charge[key];
      model.erase(it);
    }
    model.insert(model.begin(), key);
    model_bytes += charge[key];
    while (model_bytes > budget && model.size() > 1) {
      model_bytes -= charge[model.back()];
      model.pop_back();
    }
  };

  cs::Registry registry;
  cs::ResultCache cache({.max_bytes = budget, .registry = &registry});
  const std::vector<std::string> steps = {
      "put a",  "put bb", "get a",    "put ccc", "put dddd", "get bb",
      "put e",  "get a",  "put bb",   "get ccc", "put a",    "put dddd",
      "get e",  "put ccc", "put bb",  "get dddd", "put e",   "get a"};
  for (const std::string& step : steps) {
    const std::string key = step.substr(4);
    if (step.starts_with("put")) {
      cache.put(key, entries[key]);
      model_put(key);
    } else {
      EXPECT_EQ(cache.get(key) != nullptr, model_use(key)) << step;
    }
    EXPECT_EQ(cache.byte_count(), model_bytes) << step;
    EXPECT_EQ(cache.entry_count(), model.size()) << step;
  }
  for (const auto& [key, rows] : shapes) {
    const bool held =
        std::find(model.begin(), model.end(), key) != model.end();
    EXPECT_EQ(cache.get(key) != nullptr, held) << key;
  }
  EXPECT_GT(registry.counter("choreo_cache_evictions_total", "").value(), 4u);
}

// Readers keep the entries they were handed while writers replace and
// evict the same keys under them; every entry stays intact and the budget
// holds.  Runs under ThreadSanitizer in CI.
TEST(Cache, ReadersKeepEvictedEntriesWhileWritersReplaceThem) {
  constexpr std::size_t kKeys = 4;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 400;
  const std::size_t per_entry =
      by_value_entry_bytes("key0", *tagged_entry("g0000000", 8));
  cs::Registry registry;
  // Room for two entries: nearly every put evicts another key.
  cs::ResultCache cache(
      {.max_bytes = per_entry * 2 + per_entry / 2, .registry = &registry});

  std::atomic<std::size_t> torn{0};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::shared_ptr<const cs::CachedAnalysis>> held;
      for (std::size_t i = 0; i < kRounds; ++i) {
        const std::string key = "key" + std::to_string((t + i) % kKeys);
        if (i % 3 == 0) {
          char tag[16];
          std::snprintf(tag, sizeof tag, "g%07zu", t * kRounds + i);
          cache.put(key, tagged_entry(tag, 8));
        } else if (auto entry = cache.get(key)) {
          held.push_back(std::move(entry));
          reads.fetch_add(1);
        }
        // Hold a window of entries, most of them evicted by now.
        if (held.size() > 16) {
          if (!intact(*held.front())) torn.fetch_add(1);
          held.erase(held.begin());
        }
      }
      for (const auto& entry : held) {
        if (!intact(*entry)) torn.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_LE(cache.byte_count(), per_entry * 2 + per_entry / 2);
  EXPECT_LE(cache.entry_count(), 2u);
  EXPECT_GT(registry.counter("choreo_cache_evictions_total", "").value(), 0u);
}

TEST(Service, CachedResultIsByteIdenticalToFreshRun) {
  // The acceptance check of the subsystem: on the PDA and Tomcat paper
  // models, a cache hit replays exactly the bytes a fresh pipeline run
  // produces.
  const std::vector<cm::Model> models = {chor::pda_handover_model(),
                                         chor::tomcat_model(true)};
  for (const cm::Model& model : models) {
    cs::Registry registry;
    cs::ResultCache cache({.registry = &registry});
    cs::SchedulerOptions options;
    options.workers = 2;
    options.cache = &cache;
    options.registry = &registry;
    cs::Scheduler scheduler(options);

    const cx::Document project = project_with_layout(model, 100);
    const std::string expected = reference_bytes(project, {});

    cs::JobHandle first = scheduler.submit(inline_request(project));
    const cs::JobResult& fresh = first.wait();
    ASSERT_EQ(fresh.status, cs::JobStatus::kDone) << fresh.error;
    EXPECT_FALSE(fresh.from_cache);
    EXPECT_EQ(fresh.attempts, 1u);
    EXPECT_EQ(fresh.annotated_xmi, expected);

    cs::JobHandle second = scheduler.submit(inline_request(project));
    const cs::JobResult& cached = second.wait();
    ASSERT_EQ(cached.status, cs::JobStatus::kDone) << cached.error;
    EXPECT_TRUE(cached.from_cache);
    EXPECT_EQ(cached.attempts, 0u);
    EXPECT_EQ(cached.annotated_xmi, expected);
  }
}

// The scheduler exports the assembly, measures and teardown clocks next to
// the other stage histograms, one observation per executed job.
TEST(Service, ExportsTheAssemblyStageClock) {
  cs::Registry registry;
  cs::SchedulerOptions options;
  options.workers = 1;
  options.registry = &registry;
  cs::Scheduler scheduler(options);
  const cs::JobResult& result =
      scheduler
          .submit(inline_request(
              project_with_layout(chor::tomcat_model(false), 0)))
          .wait();
  ASSERT_EQ(result.status, cs::JobStatus::kDone) << result.error;
  EXPECT_GT(result.timings.stages.assemble_seconds, 0.0);
  EXPECT_GT(result.timings.stages.measures_seconds, 0.0);
  EXPECT_GT(result.timings.stages.teardown_seconds, 0.0);
  EXPECT_GT(result.timings.stages.iterations, 0u);
  const std::string text = registry.exposition();
  for (const std::string stage : {"assemble", "measures", "teardown"}) {
    const std::string metric = "choreo_stage_" + stage + "_seconds";
    EXPECT_NE(text.find("# TYPE " + metric + " histogram"), std::string::npos)
        << metric;
    EXPECT_NE(text.find(metric + "_count 1\n"), std::string::npos) << metric;
  }
}

// The document path is clocked around the pipeline's own stages: a miss
// runs every step, a hit skips reading and writing the UML model, and the
// clocks, which do not overlap, never add up to more than the run.
TEST(Service, ClocksTheDocumentPath) {
  const std::vector<cm::Model> models = {chor::pda_handover_model(),
                                         chor::tomcat_model(true)};
  for (std::size_t m = 0; m < models.size(); ++m) {
    const std::string path = ::testing::TempDir() + "document_path_" +
                             std::to_string(m) + ".xmi";
    cx::write_file(project_with_layout(models[m], 100), path);
    cs::Registry registry;
    cs::ResultCache cache({.registry = &registry});
    cs::SchedulerOptions options;
    options.workers = 1;
    options.cache = &cache;
    options.registry = &registry;
    cs::Scheduler scheduler(options);
    cs::JobRequest request;
    request.input_path = path;
    const cs::JobResult miss = scheduler.submit(request).wait();
    const cs::JobResult hit = scheduler.submit(request).wait();
    ASSERT_EQ(miss.status, cs::JobStatus::kDone) << miss.error;
    ASSERT_EQ(hit.status, cs::JobStatus::kDone) << hit.error;
    ASSERT_FALSE(miss.from_cache);
    ASSERT_TRUE(hit.from_cache);

    const cs::JobTimings& cold = miss.timings;
    for (const double clock :
         {cold.read_seconds, cold.preprocess_seconds, cold.cache_seconds,
          cold.from_xmi_seconds, cold.to_xmi_seconds, cold.postprocess_seconds,
          cold.write_seconds}) {
      EXPECT_GT(clock, 0.0) << "model " << m;
    }
    const cs::JobTimings& warm = hit.timings;
    for (const double clock :
         {warm.read_seconds, warm.preprocess_seconds, warm.cache_seconds,
          warm.postprocess_seconds, warm.write_seconds}) {
      EXPECT_GT(clock, 0.0) << "model " << m;
    }
    EXPECT_EQ(warm.from_xmi_seconds, 0.0);
    EXPECT_EQ(warm.to_xmi_seconds, 0.0);

    for (const cs::JobTimings* timings : {&cold, &warm}) {
      const chor::StageTimings& stages = timings->stages;
      const double clocked =
          timings->read_seconds + timings->preprocess_seconds +
          timings->cache_seconds + timings->from_xmi_seconds +
          timings->to_xmi_seconds + timings->postprocess_seconds +
          timings->write_seconds + stages.extract_seconds +
          stages.derive_seconds() + stages.assemble_seconds +
          stages.solve_seconds + stages.measures_seconds +
          stages.reflect_seconds + stages.teardown_seconds;
      EXPECT_LE(clocked, timings->run_seconds) << "model " << m;
    }

    // Each clock is exported next to the pipeline's stage histograms: the
    // model's read and write once (the miss), the rest for both jobs.
    const std::string text = registry.exposition();
    for (const std::string stage :
         {"read", "preprocess", "cache", "postprocess", "write"}) {
      const std::string metric = "choreo_stage_" + stage + "_seconds";
      EXPECT_NE(text.find(metric + "_count 2\n"), std::string::npos) << metric;
    }
    for (const std::string stage : {"from_xmi", "to_xmi"}) {
      const std::string metric = "choreo_stage_" + stage + "_seconds";
      EXPECT_NE(text.find(metric + "_count 1\n"), std::string::npos) << metric;
    }
    std::remove(path.c_str());
  }
}

TEST(Service, CacheHitMergesTheRequestersOwnLayout) {
  const cm::Model model = chor::pda_handover_model();
  cs::Registry registry;
  cs::ResultCache cache({.registry = &registry});
  cs::SchedulerOptions options;
  options.workers = 1;
  options.cache = &cache;
  options.registry = &registry;
  cs::Scheduler scheduler(options);

  scheduler.submit(inline_request(project_with_layout(model, 100))).wait();
  const cx::Document moved = project_with_layout(model, 700);
  const cs::JobResult& result =
      scheduler.submit(inline_request(moved)).wait();
  ASSERT_EQ(result.status, cs::JobStatus::kDone) << result.error;
  // Layout-only edit: served from cache, yet with *this* layout restored —
  // byte-identical to a fresh run on the moved project.
  EXPECT_TRUE(result.from_cache);
  EXPECT_EQ(result.annotated_xmi, reference_bytes(moved, {}));
  EXPECT_NE(result.annotated_xmi.find("x=\"700\""), std::string::npos);
}

TEST(Service, StressManyJobsMixedHitMiss) {
  // ≥64 concurrent jobs across distinct requests and repeats; every job
  // must resolve to exactly the result of its own request (nothing lost,
  // duplicated or cross-wired), under real worker parallelism.
  constexpr std::size_t kDistinct = 8;
  constexpr std::size_t kRepeats = 8;
  constexpr std::size_t kJobs = kDistinct * kRepeats;

  std::vector<cs::JobRequest> distinct;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    const bool pda = i % 2 == 0;
    const cm::Model model =
        pda ? chor::pda_handover_model() : chor::instant_message_model();
    chor::AnalysisOptions options;
    options.rates = {
        {pda ? "handover_1" : "transmit", 0.25 + 0.5 * static_cast<double>(i)}};
    distinct.push_back(
        inline_request(project_with_layout(model, static_cast<int>(i)),
                       options));
    expected.push_back(
        reference_bytes(distinct.back().project, distinct.back().options));
  }

  cs::Registry registry;
  cs::ResultCache cache({.registry = &registry});
  cs::SchedulerOptions options;
  options.workers = 4;
  options.queue_capacity = 16;  // forces backpressure at 64 submissions
  options.cache = &cache;
  options.registry = &registry;
  cs::Scheduler scheduler(options);

  std::vector<cs::JobHandle> handles;
  std::vector<std::size_t> request_of;
  handles.reserve(kJobs);
  for (std::size_t round = 0; round < kRepeats; ++round) {
    for (std::size_t i = 0; i < kDistinct; ++i) {
      handles.push_back(scheduler.submit(distinct[i]));
      request_of.push_back(i);
    }
  }

  std::size_t hits = 0;
  for (std::size_t j = 0; j < handles.size(); ++j) {
    const cs::JobResult& result = handles[j].wait();
    ASSERT_EQ(result.status, cs::JobStatus::kDone) << result.error;
    EXPECT_EQ(result.annotated_xmi, expected[request_of[j]])
        << "job " << j << " returned another request's result";
    hits += result.from_cache ? 1 : 0;
  }
  EXPECT_EQ(scheduler.in_flight(), 0u);

  // Every submission is accounted for, and repeats produced real hits.
  EXPECT_EQ(registry.counter("choreo_jobs_done_total", "").value(), kJobs);
  const std::uint64_t cache_hits =
      registry.counter("choreo_cache_hits_total", "").value();
  const std::uint64_t cache_misses =
      registry.counter("choreo_cache_misses_total", "").value();
  EXPECT_EQ(cache_hits + cache_misses, kJobs);
  EXPECT_EQ(cache_hits, hits);
  // Each distinct request runs at least once; with 8 repeats the warm
  // rounds dominate even if racing first-rounds miss more than once.
  EXPECT_GE(hits, kJobs / 2);
  EXPECT_GE(cache_misses, kDistinct);
}

TEST(Service, DeadlinePassedWhileQueuedTimesOut) {
  cs::SchedulerOptions options;
  options.workers = 1;
  cs::Scheduler scheduler(options);
  cs::JobRequest request =
      inline_request(cm::to_xmi(chor::pda_handover_model()));
  request.timeout_seconds = 1e-9;
  const cs::JobResult& result = scheduler.submit(std::move(request)).wait();
  EXPECT_EQ(result.status, cs::JobStatus::kTimedOut);
  EXPECT_EQ(result.error, "deadline passed while queued");
}

TEST(Service, DeadlineEnforcedCooperativelyWhileRunning) {
  cs::SchedulerOptions options;
  options.workers = 1;
  cs::Scheduler scheduler(options);
  cs::JobRequest request =
      inline_request(cm::to_xmi(chor::pda_handover_model()));
  request.timeout_seconds = 0.05;
  // The client checkpoint outsleeps the deadline, so the very next
  // scheduler check — same stage boundary — must abort the job.
  request.options.checkpoint = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  const cs::JobResult& result = scheduler.submit(std::move(request)).wait();
  EXPECT_EQ(result.status, cs::JobStatus::kTimedOut);
  EXPECT_EQ(result.error, "deadline passed while running");
}

TEST(Service, CancelAbortsRunningJobAtNextCheckpoint) {
  cs::SchedulerOptions options;
  options.workers = 1;
  cs::Scheduler scheduler(options);

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  cs::JobRequest request =
      inline_request(cm::to_xmi(chor::pda_handover_model()));
  request.options.checkpoint = [&] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  cs::JobHandle handle = scheduler.submit(std::move(request));
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(handle.status(), cs::JobStatus::kRunning);
  handle.cancel();
  release.store(true);
  const cs::JobResult& result = handle.wait();
  EXPECT_EQ(result.status, cs::JobStatus::kCancelled);
  EXPECT_EQ(result.error, "cancelled while running");
}

TEST(Service, CancelledWhileQueuedNeverRuns) {
  cs::SchedulerOptions options;
  options.workers = 1;
  cs::Scheduler scheduler(options);

  // Pin the only worker so the second job stays queued.
  std::atomic<bool> release{false};
  cs::JobRequest blocker =
      inline_request(cm::to_xmi(chor::pda_handover_model()));
  blocker.options.checkpoint = [&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  cs::JobHandle running = scheduler.submit(std::move(blocker));

  cs::JobHandle queued = scheduler.submit(
      inline_request(cm::to_xmi(chor::pda_handover_model())));
  queued.cancel();
  release.store(true);

  EXPECT_EQ(running.wait().status, cs::JobStatus::kDone);
  const cs::JobResult& result = queued.wait();
  EXPECT_EQ(result.status, cs::JobStatus::kCancelled);
  EXPECT_EQ(result.error, "cancelled before running");
  EXPECT_EQ(result.attempts, 0u);
}

TEST(Service, RetryAtLowerAggregationSettingRecovers) {
  // First attempt trips the max_states safety bound; the retry runs with
  // aggregate = true and a scaled state budget and succeeds.
  cs::Registry registry;
  cs::SchedulerOptions options;
  options.workers = 1;
  options.max_retries = 1;
  options.retry_backoff_seconds = 0.001;
  options.retry_state_budget_factor = 100.0;
  options.registry = &registry;
  cs::Scheduler scheduler(options);

  cs::JobRequest request =
      inline_request(cm::to_xmi(chor::pda_handover_model()));
  request.options.max_states = 4;  // the PDA model has 10 markings
  cs::JobHandle handle = scheduler.submit(std::move(request));
  const cs::JobResult& result = handle.wait();
  ASSERT_EQ(result.status, cs::JobStatus::kDone) << result.error;
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.aggregation_used, chor::Aggregation::kExact);
  EXPECT_EQ(registry.counter("choreo_job_retries_total", "").value(), 1u);
  EXPECT_FALSE(result.report.activity_graphs.empty());

  // The successful rung derived the quotient directly, so the progress
  // counters and peak-byte metrics describe the quotient — bounded by the
  // model's 10 raw markings — and the aggregation gauges record the block
  // count of the largest quotient derived.
  const choreo::util::BudgetUsage progress = handle.progress();
  EXPECT_GT(progress.states, 0u);
  EXPECT_GT(progress.peak_state_bytes, 0u);
  const auto blocks = registry.gauge("choreo_aggregate_blocks", "").value();
  EXPECT_GT(blocks, 0);
  EXPECT_EQ(static_cast<std::size_t>(blocks),
            result.report.activity_graphs[0].marking_count);

  // Without the scaled budget the retry fails too, and the error surfaces.
  cs::SchedulerOptions no_headroom = options;
  no_headroom.retry_state_budget_factor = 1.0;
  cs::Scheduler strict(no_headroom);
  cs::JobRequest doomed =
      inline_request(cm::to_xmi(chor::pda_handover_model()));
  doomed.options.max_states = 4;
  const cs::JobResult& failure = strict.submit(std::move(doomed)).wait();
  EXPECT_EQ(failure.status, cs::JobStatus::kFailed);
  EXPECT_NE(failure.error.find("state-space explosion"), std::string::npos);
  EXPECT_EQ(failure.attempts, 2u);
}

TEST(Service, RetryLadderLandsOnFluidBackend) {
  // A state-machine model whose chain grows exponentially in the client
  // count: the full solve trips max_states, the exact rung's quotient is
  // still far larger than the bound (C(6+2,2) population vectors x server
  // phases >> 16), and the job finally succeeds on the fluid rung — which
  // expands no state space at all.
  cs::Registry registry;
  cs::SchedulerOptions options;
  options.workers = 1;
  options.max_retries = 2;
  options.retry_backoff_seconds = 0.001;
  options.registry = &registry;
  cs::Scheduler scheduler(options);

  chor::TomcatParams params;
  params.clients = 6;
  cs::JobRequest request =
      inline_request(cm::to_xmi(chor::tomcat_model(true, params)));
  request.options.max_states = 16;
  const cs::JobResult& result = scheduler.submit(std::move(request)).wait();
  ASSERT_EQ(result.status, cs::JobStatus::kDone) << result.error;
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(result.aggregation_used, chor::Aggregation::kFluid);
  ASSERT_EQ(result.report.state_machines.size(), 1u);

  // The fluid run reports vector-form sizes and ODE work, and its
  // downgrade and integration effort land in the metrics.
  const chor::StateMachineResult& machines = result.report.state_machines[0];
  EXPECT_GT(machines.state_count, 0u);
  // The sum of local state counts (6 clients x 3 + the server), not the
  // exponential product chain that tripped the bound.
  EXPECT_LE(machines.state_count, 30u);
  double probability_mass = 0.0;
  for (double p : machines.probabilities.at(0)) probability_mass += p;
  EXPECT_NEAR(probability_mass, 1.0, 1e-6);
  EXPECT_GT(result.timings.stages.fluid_steps, 0u);
  EXPECT_EQ(registry.counter("choreo_fluid_fallbacks_total", "").value(), 1u);
  EXPECT_EQ(registry.counter("choreo_fluid_steps_total", "").value(),
            result.timings.stages.fluid_steps);
}

TEST(Service, SubmitAppliesBackpressureAtQueueCapacity) {
  cs::SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  cs::Scheduler scheduler(options);

  std::atomic<bool> release{false};
  cs::JobRequest blocker =
      inline_request(cm::to_xmi(chor::pda_handover_model()));
  blocker.options.checkpoint = [&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::vector<cs::JobHandle> handles;
  handles.push_back(scheduler.submit(std::move(blocker)));  // running
  handles.push_back(scheduler.submit(
      inline_request(cm::to_xmi(chor::pda_handover_model()))));  // queued
  EXPECT_EQ(scheduler.in_flight(), 2u);

  std::atomic<bool> third_accepted{false};
  std::thread submitter([&] {
    handles.push_back(scheduler.submit(
        inline_request(cm::to_xmi(chor::pda_handover_model()))));
    third_accepted.store(true);
  });
  // The third submission must block while the service is at capacity.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_accepted.load());

  release.store(true);
  submitter.join();
  EXPECT_TRUE(third_accepted.load());
  for (cs::JobHandle& handle : handles) {
    EXPECT_EQ(handle.wait().status, cs::JobStatus::kDone);
  }
}

TEST(Service, DestructorDrainsOutstandingJobs) {
  std::vector<cs::JobHandle> handles;
  {
    cs::SchedulerOptions options;
    options.workers = 2;
    cs::Scheduler scheduler(options);
    for (int i = 0; i < 8; ++i) {
      handles.push_back(scheduler.submit(
          inline_request(cm::to_xmi(chor::pda_handover_model()))));
    }
  }  // destructor joins only after every job reached a terminal state
  for (cs::JobHandle& handle : handles) {
    EXPECT_EQ(handle.wait().status, cs::JobStatus::kDone);
  }
}

TEST(Service, MalformedInputFailsCleanly) {
  cs::SchedulerOptions options;
  options.workers = 1;
  cs::Scheduler scheduler(options);
  cs::JobRequest request;
  request.input_path = "/nonexistent/project.xmi";
  const cs::JobResult& result = scheduler.submit(std::move(request)).wait();
  EXPECT_EQ(result.status, cs::JobStatus::kFailed);
  EXPECT_FALSE(result.error.empty());
}

TEST(Service, JobStatusNamesAreStable) {
  EXPECT_STREQ(cs::to_string(cs::JobStatus::kQueued), "queued");
  EXPECT_STREQ(cs::to_string(cs::JobStatus::kRunning), "running");
  EXPECT_STREQ(cs::to_string(cs::JobStatus::kDone), "done");
  EXPECT_STREQ(cs::to_string(cs::JobStatus::kFailed), "failed");
  EXPECT_STREQ(cs::to_string(cs::JobStatus::kCancelled), "cancelled");
  EXPECT_STREQ(cs::to_string(cs::JobStatus::kTimedOut), "timed_out");
  EXPECT_FALSE(cs::is_terminal(cs::JobStatus::kRunning));
  EXPECT_TRUE(cs::is_terminal(cs::JobStatus::kTimedOut));
}
