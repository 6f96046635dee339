// Tests of the concurrent analysis service: scheduler lifecycle, the
// content-addressed result cache, determinism of cached results, the
// ≥64-job concurrency stress, and timeout/cancellation semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
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

  cs::CachedAnalysis analysis;
  analysis.reflected_model = cm::to_xmi(chor::pda_handover_model());
  probe.put("probe", analysis);
  const std::size_t per_entry = probe.byte_count();
  ASSERT_GT(per_entry, 0u);

  // Room for exactly two entries.
  options.max_bytes = per_entry * 2 + per_entry / 2;
  cs::ResultCache cache(options);
  cache.put("a", analysis);
  cache.put("b", analysis);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_TRUE(cache.get("a").has_value());  // refresh: "b" is now LRU
  cache.put("c", analysis);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(
      registry.counter("choreo_cache_evictions_total", "").value(), 1u);
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
