#include "service/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "pepa/parser.hpp"
#include "sweep/rebind.hpp"
#include "uml/layout.hpp"
#include "uml/xmi.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace choreo::service {

namespace {

using Clock = std::chrono::steady_clock;

/// The retryable failure: a resource bound (max_states or a byte budget)
/// tripped — typed since the budget taxonomy landed, so no string matching.
bool is_state_bound_failure(const util::Error& error) {
  return dynamic_cast<const util::BudgetError*>(&error) != nullptr;
}

/// What the job's Budget can reconstruct of an interrupted derivation:
/// discovered states, levels and peak frontier (dedup hits and wall clock
/// stay with the abandoned DeriveStats and are reported as zero).
pepa::DeriveStats partial_stats(const util::BudgetUsage& usage) {
  pepa::DeriveStats stats;
  stats.levels = usage.levels;
  stats.peak_frontier = usage.peak_frontier;
  stats.dedup_misses = usage.states;
  return stats;
}

/// Exception-safe +delta/-delta on a gauge; sweep evaluation can be
/// interrupted mid-flight and the in-flight gauge must not leak.
class GaugeDelta {
 public:
  GaugeDelta(Gauge& gauge, std::int64_t delta) : gauge_(gauge), delta_(delta) {
    gauge_.add(delta_);
  }
  ~GaugeDelta() { gauge_.add(-delta_); }
  GaugeDelta(const GaugeDelta&) = delete;
  GaugeDelta& operator=(const GaugeDelta&) = delete;

 private:
  Gauge& gauge_;
  std::int64_t delta_;
};

std::string hex64(std::uint64_t value) {
  std::ostringstream stream;
  stream << std::hex << value;
  return stream.str();
}

/// The result-affecting options of one sweep point, rendered
/// deterministically for the per-point cache key.  The model itself is
/// covered by the structural and rate fingerprints, so two sweeps that
/// slice the same design space differently still share entries
/// point-by-point.
std::string sweep_options_key(const SweepJobRequest& job,
                              const chor::AnalysisOptions& options) {
  std::ostringstream key;
  key << "backend=" << sweep::to_string(job.backend)
      << " solver=" << ctmc::method_name(options.solver.method)
      << " tolerance=" << util::format_double(options.solver.tolerance)
      << " max_iterations=" << options.solver.max_iterations
      << " relaxation=" << util::format_double(options.solver.relaxation)
      << " dense_cutoff=" << options.solver.dense_cutoff;
  if (job.backend == sweep::Backend::kFluid) {
    key << " fluid_rel_tol=" << util::format_double(options.fluid_rel_tol)
        << " fluid_abs_tol=" << util::format_double(options.fluid_abs_tol)
        << " fluid_t_end=" << util::format_double(options.fluid_t_end);
  }
  return key.str();
}

}  // namespace

namespace detail {

struct JobState {
  JobRequest request;
  Clock::time_point submitted;
  /// The job's resource governor: deadline, cancellation flag and
  /// state/byte accounting, threaded through AnalysisOptions into the
  /// derivation and solver loops.
  util::Budget budget;

  mutable std::mutex mutex;
  std::condition_variable terminal_cv;
  JobStatus status = JobStatus::kQueued;  // guarded by mutex
  JobResult result;                       // valid once status is terminal
};

}  // namespace detail

using detail::JobState;

JobStatus JobHandle::status() const {
  std::lock_guard lock(state_->mutex);
  return state_->status;
}

void JobHandle::cancel() { state_->budget.request_cancel(); }

util::BudgetUsage JobHandle::progress() const {
  return state_->budget.usage();
}

JobResult JobHandle::wait() {
  std::unique_lock lock(state_->mutex);
  state_->terminal_cv.wait(lock,
                           [&] { return is_terminal(state_->status); });
  return state_->result;
}

struct Scheduler::Impl {
  explicit Impl(const SchedulerOptions& scheduler_options)
      : options(scheduler_options),
        registry(scheduler_options.registry ? *scheduler_options.registry
                                            : Registry::global()),
        submitted_total(registry.counter("choreo_jobs_submitted_total",
                                         "Jobs accepted by the scheduler")),
        done_total(registry.counter("choreo_jobs_done_total",
                                    "Jobs finished successfully")),
        failed_total(registry.counter("choreo_jobs_failed_total",
                                      "Jobs finished with an error")),
        cancelled_total(registry.counter("choreo_jobs_cancelled_total",
                                         "Jobs cancelled by the client")),
        timed_out_total(registry.counter("choreo_jobs_timed_out_total",
                                         "Jobs that exceeded their deadline")),
        retries_total(registry.counter(
            "choreo_job_retries_total",
            "Re-runs after the max_states safety bound tripped")),
        queue_depth(registry.gauge("choreo_queue_depth",
                                   "Jobs waiting for a worker")),
        running_gauge(registry.gauge("choreo_jobs_running",
                                     "Jobs currently executing")),
        queue_seconds(registry.histogram("choreo_job_queue_seconds",
                                         "Submission-to-execution wait")),
        run_seconds(registry.histogram("choreo_job_run_seconds",
                                       "Execution time incl. retries")),
        total_seconds(registry.histogram("choreo_job_seconds",
                                         "Submission-to-terminal latency")),
        extract_seconds(registry.histogram("choreo_stage_extract_seconds",
                                           "Model extraction per job")),
        derive_seconds(registry.histogram(
            "choreo_stage_derive_seconds",
            "State-space exploration per job")),
        assemble_seconds(registry.histogram(
            "choreo_stage_assemble_seconds",
            "CTMC generator assembly per job")),
        solve_seconds(registry.histogram("choreo_stage_solve_seconds",
                                         "CTMC solution per job")),
        measures_seconds(registry.histogram(
            "choreo_stage_measures_seconds",
            "State probabilities and throughputs per job")),
        reflect_seconds(registry.histogram(
            "choreo_stage_reflect_seconds",
            "Reflection of the measures into the UML model per job")),
        teardown_seconds(registry.histogram(
            "choreo_stage_teardown_seconds",
            "Release of the derived space, semantics and extraction per job")),
        explore_rate(registry.histogram(
            "choreo_explore_states_per_second",
            "States discovered per exploration second, per job",
            {1e2, 1e3, 1e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7})),
        explored_states_total(registry.counter(
            "choreo_explored_states_total",
            "States/markings discovered by exploration")),
        dedup_hits_total(registry.counter(
            "choreo_explore_dedup_hits_total",
            "Transition targets that resolved to an existing state")),
        dedup_misses_total(registry.counter(
            "choreo_explore_dedup_misses_total",
            "Transition targets that discovered a new state")),
        peak_frontier(registry.gauge(
            "choreo_explore_peak_frontier",
            "Largest breadth-first frontier seen by any exploration")),
        interrupted_in_stage_total(registry.counter(
            "choreo_jobs_interrupted_in_stage_total",
            "Jobs stopped inside a pipeline stage (derive/solve/backoff) "
            "rather than at a stage boundary")),
        budget_peak_state_bytes(registry.gauge(
            "choreo_budget_peak_state_bytes",
            "Largest state-storage footprint any job's budget recorded")),
        aggregate_blocks(registry.gauge(
            "choreo_aggregate_blocks",
            "Largest strong-equivalence quotient (block count) any "
            "exact-aggregation job derived")),
        aggregate_rewrites_total(registry.counter(
            "choreo_aggregate_rewrites_total",
            "Successor states rewritten to canonical representatives by "
            "quotient-direct derivations")),
        fluid_fallbacks_total(registry.counter(
            "choreo_fluid_fallbacks_total",
            "Retries that downgraded a job to the fluid (ODE) backend")),
        fluid_steps_total(registry.counter(
            "choreo_fluid_steps_total",
            "Accepted ODE steps across fluid solves")),
        fluid_rejected_steps_total(registry.counter(
            "choreo_fluid_rejected_steps_total",
            "Rejected ODE step attempts across fluid solves")),
        fluid_solve_seconds(registry.histogram(
            "choreo_fluid_solve_seconds",
            "Mean-field ODE solve time, per job that used the fluid "
            "backend")),
        sweep_jobs_total(registry.counter(
            "choreo_sweep_jobs_total",
            "Design-space sweep jobs executed")),
        sweep_points_total(registry.counter(
            "choreo_sweep_points_total",
            "Sweep points requested across all sweep jobs")),
        sweep_point_cache_hits_total(registry.counter(
            "choreo_sweep_point_cache_hits_total",
            "Sweep points served from the per-point result cache")),
        sweep_derivations_total(registry.counter(
            "choreo_sweep_derivations_total",
            "State-space derivations performed by sweep jobs")),
        sweep_points_in_flight(registry.gauge(
            "choreo_sweep_points_in_flight",
            "Sweep points currently being evaluated")),
        pool(scheduler_options.workers != 0
                 ? scheduler_options.workers
                 : std::max<std::size_t>(
                       1, std::thread::hardware_concurrency())) {}

  void run_job(const std::shared_ptr<JobState>& state);
  void execute(const std::shared_ptr<JobState>& state, JobResult& result);
  void execute_sweep(const std::shared_ptr<JobState>& state,
                     JobResult& result);
  /// Sleeps `seconds` in small slices, aborting on cancel/deadline.
  void backoff_sleep(const JobState& state, double seconds) const;
  void finish(const std::shared_ptr<JobState>& state, JobResult result);

  SchedulerOptions options;
  Registry& registry;

  Counter& submitted_total;
  Counter& done_total;
  Counter& failed_total;
  Counter& cancelled_total;
  Counter& timed_out_total;
  Counter& retries_total;
  Gauge& queue_depth;
  Gauge& running_gauge;
  Histogram& queue_seconds;
  Histogram& run_seconds;
  Histogram& total_seconds;
  Histogram& extract_seconds;
  Histogram& derive_seconds;
  Histogram& assemble_seconds;
  Histogram& solve_seconds;
  Histogram& measures_seconds;
  Histogram& reflect_seconds;
  Histogram& teardown_seconds;
  Histogram& explore_rate;
  Counter& explored_states_total;
  Counter& dedup_hits_total;
  Counter& dedup_misses_total;
  Gauge& peak_frontier;
  Counter& interrupted_in_stage_total;
  Gauge& budget_peak_state_bytes;
  Gauge& aggregate_blocks;
  Counter& aggregate_rewrites_total;
  Counter& fluid_fallbacks_total;
  Counter& fluid_steps_total;
  Counter& fluid_rejected_steps_total;
  Histogram& fluid_solve_seconds;
  Counter& sweep_jobs_total;
  Counter& sweep_points_total;
  Counter& sweep_point_cache_hits_total;
  Counter& sweep_derivations_total;
  Gauge& sweep_points_in_flight;

  mutable std::mutex flight_mutex;
  std::condition_variable space_cv;
  std::size_t in_flight = 0;

  /// Declared last: destroyed (drained and joined) first, while the
  /// members its tasks touch are still alive.
  util::ThreadPool pool;
};

void Scheduler::Impl::backoff_sleep(const JobState& state,
                                    double seconds) const {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
    state.budget.check("backoff");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Scheduler::Impl::execute_sweep(const std::shared_ptr<JobState>& state,
                                    JobResult& result) {
  const JobRequest& request = state->request;
  const SweepJobRequest& job = *request.sweep;
  sweep_jobs_total.increment();

  job.spec.validate();
  pepa::Model model = pepa::parse_model_file(job.model_path);
  // Validates sweepability (clean provenance tags) and fingerprints the
  // rate-stripped structure before any derivation is attempted.
  sweep::RateRebinder rebinder(model, job.spec.parameter_names());

  sweep::SweepOptions sweep_options;
  sweep_options.backend = job.backend;
  sweep_options.solver = request.options.solver;
  sweep_options.derive.max_states = request.options.max_states;
  sweep_options.derive.threads = request.options.derive_threads != 0
                                     ? request.options.derive_threads
                                     : options.derive_threads;
  sweep_options.fluid.ode.rel_tol = request.options.fluid_rel_tol;
  sweep_options.fluid.ode.abs_tol = request.options.fluid_abs_tol;
  sweep_options.fluid.ode.t_end = request.options.fluid_t_end;
  sweep_options.threads = job.threads != 0 ? job.threads : 1;
  sweep_options.budget = &state->budget;

  // Sweep jobs never climb the retry ladder: the backend is the client's
  // explicit choice, reported in the same field the ladder uses.
  result.aggregation_used = job.backend == sweep::Backend::kFluid
                                ? chor::Aggregation::kFluid
                                : chor::Aggregation::kNone;

  // Per-point cache probe.  Each key pairs the shared structure hash with
  // the point's rate fingerprint (plus the result-affecting options), so
  // overlapping sweeps share entries point-by-point however their specs
  // slice the space.
  const std::size_t count = job.spec.point_count();
  std::vector<std::string> keys;
  std::vector<std::vector<std::pair<std::string, double>>> cached(count);
  std::vector<char> hit(count, 0);
  std::size_t hit_count = 0;
  std::size_t cached_states = 0;
  std::size_t cached_transitions = 0;
  if (options.cache != nullptr) {
    const std::string options_key = sweep_options_key(job, request.options);
    keys.resize(count);
    for (std::size_t p = 0; p < count; ++p) {
      keys[p] = util::msg(
          "sweep:", hex64(rebinder.structure()), ":",
          hex64(rebinder.rate_fingerprint(job.spec.point(p))), ":",
          options_key);
      std::optional<CachedAnalysis> entry = options.cache->get(keys[p]);
      if (entry && !entry->report.activity_graphs.empty()) {
        const chor::ActivityGraphResult& graph =
            entry->report.activity_graphs.front();
        cached[p] = graph.throughputs;
        cached_states = graph.marking_count;
        cached_transitions = graph.transition_count;
        hit[p] = 1;
        ++hit_count;
      }
    }
  }

  sweep::SweepTable table;
  if (hit_count < count) {
    // Lazy derivation: only missed points are evaluated.  A partial miss
    // is re-sliced as a zipped spec over the missing coordinates, so the
    // state space is still derived at most once per job — and not at all
    // when every point hits.
    sweep::SweepSpec eval = job.spec;
    std::vector<std::size_t> missed;
    if (hit_count > 0) {
      missed.reserve(count - hit_count);
      eval.axes.clear();
      for (const std::string& name : job.spec.parameter_names()) {
        eval.axes.push_back(sweep::Axis{name, {}});
      }
      eval.combine = sweep::Combine::kZip;
      for (std::size_t p = 0; p < count; ++p) {
        if (hit[p]) continue;
        missed.push_back(p);
        const std::vector<double> values = job.spec.point(p);
        for (std::size_t a = 0; a < values.size(); ++a) {
          eval.axes[a].values.push_back(values[a]);
        }
      }
    }
    GaugeDelta in_flight_points(
        sweep_points_in_flight, static_cast<std::int64_t>(count - hit_count));
    sweep::SweepTable evaluated = sweep::sweep(model, eval, sweep_options);
    if (hit_count == 0) {
      table = std::move(evaluated);
    } else {
      table.axes = evaluated.axes;
      table.measures = evaluated.measures;
      table.structure = evaluated.structure;
      table.derivations = evaluated.derivations;
      table.state_count = evaluated.state_count;
      table.transition_count = evaluated.transition_count;
      table.derive_stats = evaluated.derive_stats;
      table.seconds = evaluated.seconds;
      table.rows.resize(count);
      for (std::size_t m = 0; m < missed.size(); ++m) {
        table.rows[missed[m]] = std::move(evaluated.rows[m]);
      }
    }
  } else {
    // Every point hit: the table is assembled from the cache alone.
    table.axes = job.spec.parameter_names();
    for (const auto& [name, value] : cached[0]) table.measures.push_back(name);
    table.structure = rebinder.structure();
    table.state_count = cached_states;
    table.transition_count = cached_transitions;
    table.rows.resize(count);
  }
  for (std::size_t p = 0; p < count; ++p) {
    if (!hit[p]) continue;
    sweep::SweepRow& row = table.rows[p];
    row.values = job.spec.point(p);
    row.measures.reserve(cached[p].size());
    for (const auto& [name, value] : cached[p]) row.measures.push_back(value);
  }
  table.points_from_cache = hit_count;

  if (options.cache != nullptr) {
    for (std::size_t p = 0; p < count; ++p) {
      if (hit[p] || !table.rows[p].ok()) continue;
      CachedAnalysis entry;
      chor::ActivityGraphResult graph;
      graph.graph_name = job.model_path;
      graph.marking_count = table.state_count;
      graph.transition_count = table.transition_count;
      for (std::size_t m = 0; m < table.measures.size(); ++m) {
        graph.throughputs.emplace_back(table.measures[m],
                                       table.rows[p].measures[m]);
      }
      entry.report.activity_graphs.push_back(std::move(graph));
      options.cache->put(keys[p], entry);
    }
  }

  sweep_points_total.increment(count);
  sweep_point_cache_hits_total.increment(hit_count);
  sweep_derivations_total.increment(table.derivations);
  if (table.derivations > 0) {
    derive_seconds.observe(table.derive_stats.seconds);
    explored_states_total.increment(table.derive_stats.dedup_misses);
    dedup_hits_total.increment(table.derive_stats.dedup_hits);
    dedup_misses_total.increment(table.derive_stats.dedup_misses);
    peak_frontier.record_max(
        static_cast<std::int64_t>(table.derive_stats.peak_frontier));
    if (table.derive_stats.seconds > 0.0) {
      explore_rate.observe(
          static_cast<double>(table.derive_stats.dedup_misses) /
          table.derive_stats.seconds);
    }
  }

  // A one-graph summary so report consumers (the batch table's markings
  // column, metrics folds) see sweep jobs through the same lens as
  // pipeline jobs.
  chor::ActivityGraphResult summary;
  summary.graph_name = job.model_path;
  summary.marking_count = table.state_count;
  summary.transition_count = table.transition_count;
  summary.timings.derive_stats = table.derive_stats;
  result.report.activity_graphs.push_back(std::move(summary));

  result.from_cache = hit_count == count;
  result.attempts = result.from_cache ? 0 : 1;
  result.status = JobStatus::kDone;

  if (request.output_path) {
    const std::string rendered = job.format == SweepJobRequest::Format::kJson
                                     ? table.to_json()
                                     : table.to_csv();
    std::ofstream stream(*request.output_path, std::ios::binary);
    if (!stream || !(stream << rendered) || !stream.flush()) {
      result.status = JobStatus::kFailed;
      result.error = util::msg("cannot write sweep table to '",
                               *request.output_path, "'");
    }
  }
  result.sweep = std::move(table);
}

void Scheduler::Impl::execute(const std::shared_ptr<JobState>& state,
                              JobResult& result) {
  const JobRequest& request = state->request;
  if (request.sweep) {
    execute_sweep(state, result);
    return;
  }
  const xml::Document project =
      request.input_path ? xml::parse_file(*request.input_path)
                         : request.project;

  // The Figure-4 pipeline, opened up so the cache can sit between the
  // Poseidon pre- and postprocessor: the cache stores the reflected
  // *model* half, and every requester — hit or miss — gets their own
  // layout merged back.
  const uml::SplitProject split = uml::preprocess(project);

  std::string key;
  xml::Document reflected;
  // Cache hits and failures report the requested level; a successful run
  // overwrites this with the level the winning attempt actually used.
  result.aggregation_used = request.options.aggregation;
  if (options.cache != nullptr) {
    key = cache_key_for_model(split.model, request.options);
    if (std::optional<CachedAnalysis> cached = options.cache->get(key)) {
      result.report = std::move(cached->report);
      reflected = std::move(cached->reflected_model);
      result.from_cache = true;
      result.attempts = 0;
    }
  }

  if (!result.from_cache) {
    chor::AnalysisOptions attempt_options = request.options;
    // The governor rides inside AnalysisOptions: the pipeline's stage
    // boundaries call the client hook then budget->check(), and the
    // derivation/solver loops check the same budget from within a stage.
    attempt_options.budget = &state->budget;
    if (attempt_options.derive_threads == 0) {
      attempt_options.derive_threads = options.derive_threads;
    }
    double backoff = options.retry_backoff_seconds;
    for (std::size_t attempt = 0;; ++attempt) {
      ++result.attempts;
      try {
        // A failed attempt leaves the model partially annotated, so each
        // attempt re-reads it from the pristine split document.
        uml::Model model = uml::from_xmi(split.model);
        result.report = chor::analyse(model, attempt_options);
        reflected = uml::to_xmi(model);
        result.aggregation_used = attempt_options.aggregation;
        break;
      } catch (const util::InterruptedError&) {
        throw;  // cancellation/deadline is terminal, never a retry
      } catch (const util::Error& error) {
        if (attempt < options.max_retries && is_state_bound_failure(error) &&
            attempt_options.aggregation != chor::Aggregation::kFluid) {
          retries_total.increment();
          backoff_sleep(*state, backoff);
          backoff *= 2.0;
          // One rung down the aggregation ladder (optionally with a scaled
          // state budget): first the exact strong-equivalence quotient,
          // then the fluid mean-field ODE, which expands no state space
          // at all and so survives any population size.
          if (attempt_options.aggregation == chor::Aggregation::kNone) {
            attempt_options.aggregation = chor::Aggregation::kExact;
          } else {
            attempt_options.aggregation = chor::Aggregation::kFluid;
            fluid_fallbacks_total.increment();
          }
          attempt_options.max_states = static_cast<std::size_t>(
              static_cast<double>(attempt_options.max_states) *
              std::max(1.0, options.retry_state_budget_factor));
          continue;
        }
        result.status = JobStatus::kFailed;
        result.error = error.what();
        return;
      }
    }
    for (const auto& graph : result.report.activity_graphs) {
      result.timings.stages += graph.timings;
    }
    for (const auto& machines : result.report.state_machines) {
      result.timings.stages += machines.timings;
    }
    const chor::StageTimings& stages = result.timings.stages;
    extract_seconds.observe(stages.extract_seconds);
    derive_seconds.observe(stages.derive_seconds());
    assemble_seconds.observe(stages.assemble_seconds);
    solve_seconds.observe(stages.solve_seconds);
    measures_seconds.observe(stages.measures_seconds);
    reflect_seconds.observe(stages.reflect_seconds);
    teardown_seconds.observe(stages.teardown_seconds);
    explored_states_total.increment(stages.derive_stats.dedup_misses);
    dedup_hits_total.increment(stages.derive_stats.dedup_hits);
    dedup_misses_total.increment(stages.derive_stats.dedup_misses);
    peak_frontier.record_max(
        static_cast<std::int64_t>(stages.derive_stats.peak_frontier));
    if (result.aggregation_used == chor::Aggregation::kExact) {
      // Quotient-direct derivation: dedup_misses IS the block count, and
      // the rewrite counter evidences on-the-fly collapsing (dividing the
      // two out of a dashboard gives the reduction pressure per job).
      aggregate_blocks.record_max(
          static_cast<std::int64_t>(stages.derive_stats.dedup_misses));
      aggregate_rewrites_total.increment(
          stages.derive_stats.canonical_rewrites);
    }
    if (stages.fluid_steps > 0 || stages.fluid_rejected_steps > 0) {
      fluid_steps_total.increment(stages.fluid_steps);
      fluid_rejected_steps_total.increment(stages.fluid_rejected_steps);
      fluid_solve_seconds.observe(stages.solve_seconds);
    }
    if (stages.derive_seconds() > 0.0) {
      explore_rate.observe(
          static_cast<double>(stages.derive_stats.dedup_misses) /
          stages.derive_seconds());
    }
    if (options.cache != nullptr) {
      options.cache->put(key, CachedAnalysis{result.report, reflected});
    }
  }

  const xml::Document annotated = uml::postprocess(reflected, split.layout);
  result.annotated_xmi = xml::to_string(annotated);
  result.status = JobStatus::kDone;

  if (request.output_path) {
    std::ofstream stream(*request.output_path, std::ios::binary);
    if (!stream || !(stream << result.annotated_xmi) || !stream.flush()) {
      result.status = JobStatus::kFailed;
      result.error =
          util::msg("cannot write annotated project to '",
                    *request.output_path, "'");
    }
  }
}

void Scheduler::Impl::run_job(const std::shared_ptr<JobState>& state) {
  queue_depth.add(-1);
  const Clock::time_point started = Clock::now();
  JobResult result;
  result.timings.queued_seconds =
      std::chrono::duration<double>(started - state->submitted).count();
  queue_seconds.observe(result.timings.queued_seconds);

  if (state->budget.cancel_requested()) {
    result.status = JobStatus::kCancelled;
    result.error = "cancelled before running";
    finish(state, std::move(result));
    return;
  }
  if (state->budget.deadline_passed()) {
    result.status = JobStatus::kTimedOut;
    result.error = "deadline passed while queued";
    finish(state, std::move(result));
    return;
  }

  {
    std::lock_guard lock(state->mutex);
    state->status = JobStatus::kRunning;
  }
  running_gauge.add(1);
  try {
    execute(state, result);
  } catch (const util::InterruptedError& error) {
    const bool cancelled =
        error.reason() == util::InterruptedError::Reason::kCancelled;
    result.status = cancelled ? JobStatus::kCancelled : JobStatus::kTimedOut;
    result.error = cancelled ? "cancelled while running"
                             : "deadline passed while running";
    // Interruptions observed inside a stage (derive/solve/backoff) are the
    // ones the pre-budget service could not honour until the stage ended.
    if (error.stage() != "checkpoint") interrupted_in_stage_total.increment();
  } catch (const std::exception& error) {
    result.status = JobStatus::kFailed;
    result.error = error.what();
  }
  running_gauge.add(-1);
  const util::BudgetUsage usage = state->budget.usage();
  result.partial_derive_stats = partial_stats(usage);
  budget_peak_state_bytes.record_max(
      static_cast<std::int64_t>(usage.peak_state_bytes));
  result.timings.run_seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  run_seconds.observe(result.timings.run_seconds);
  finish(state, std::move(result));
}

void Scheduler::Impl::finish(const std::shared_ptr<JobState>& state,
                             JobResult result) {
  switch (result.status) {
    case JobStatus::kDone: done_total.increment(); break;
    case JobStatus::kFailed: failed_total.increment(); break;
    case JobStatus::kCancelled: cancelled_total.increment(); break;
    case JobStatus::kTimedOut: timed_out_total.increment(); break;
    case JobStatus::kQueued:
    case JobStatus::kRunning: CHOREO_ASSERT(false);
  }
  total_seconds.observe(
      std::chrono::duration<double>(Clock::now() - state->submitted).count());
  // Release the backpressure slot before signalling the waiter, so that
  // once every handle's wait() returned, in_flight() reads 0.
  {
    std::lock_guard lock(flight_mutex);
    --in_flight;
  }
  space_cv.notify_one();
  {
    std::lock_guard lock(state->mutex);
    state->status = result.status;
    state->result = std::move(result);
  }
  state->terminal_cv.notify_all();
}

Scheduler::Scheduler(const SchedulerOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

Scheduler::~Scheduler() = default;

JobHandle Scheduler::submit(JobRequest request) {
  if (request.name.empty()) {
    request.name = request.sweep ? request.sweep->model_path
                   : request.input_path ? *request.input_path
                                        : "<inline>";
  }
  auto state = std::make_shared<JobState>();
  state->request = std::move(request);

  {
    std::unique_lock lock(impl_->flight_mutex);
    impl_->space_cv.wait(lock, [&] {
      return impl_->in_flight < impl_->options.queue_capacity;
    });
    ++impl_->in_flight;
  }
  state->submitted = Clock::now();
  const double timeout = state->request.timeout_seconds < 0
                             ? impl_->options.default_timeout_seconds
                             : state->request.timeout_seconds;
  if (timeout > 0) {
    state->budget.set_deadline(
        state->submitted + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(timeout)));
  }
  impl_->submitted_total.increment();
  impl_->queue_depth.add(1);
  impl_->pool.submit([impl = impl_.get(), state] { impl->run_job(state); });
  return JobHandle(state);
}

std::size_t Scheduler::in_flight() const {
  std::lock_guard lock(impl_->flight_mutex);
  return impl_->in_flight;
}

std::size_t Scheduler::worker_count() const {
  return impl_->pool.worker_count();
}

}  // namespace choreo::service
