// service_mix: two closed-loop callers (each submits its next job when the
// last returns) against a service::Scheduler with two workers, one
// derivation lane per job and a ResultCache.  Nearly all jobs take a few
// milliseconds at most, so XMI handling, UML pre- and postprocessing,
// extraction, reflection, the scheduler and the cache carry the cost: the
// opposite end from project_large.
//
// The job sequence is a pure function of (seed, index).  Its shares follow
// the two job lists the repository ships (kClasses).  A repeat resubmits a
// request that has already completed, so it is a cache hit whichever caller
// ran the original: the seed fixes the hit count, not the race between the
// callers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "pepa/parser.hpp"
#include "service/cache.hpp"
#include "service/scheduler.hpp"
#include "traced_pipeline.hpp"

namespace perfbench {

namespace {

namespace chor = choreo::chor;
namespace service = choreo::service;
namespace sweep = choreo::sweep;

enum class Kind { kRepeat, kNet, kTomcat, kSweep };

/// A job class and its share of the sequence, in per mille.
///
/// The shares come from models/batch_manifest.txt (a plain, an aggregate=1
/// and a Gauss-Seidel PDA job, and a 13-point locs sweep of the cached
/// Tomcat model) and bench/bench_service_throughput.cpp (PDA and cached
/// Tomcat jobs in pairs), each source weighing half of the fresh jobs:
/// activity diagrams 3/8 plain, 1/8 aggregated and 1/8 Gauss-Seidel, sweeps
/// 1/8 and Tomcat 1/4.  The throughput bench runs every request cold, then
/// warm, so half its jobs are hits; that would put the median on the step
/// between hits and misses, so here a third are (every other request comes
/// back once), which puts the median among the fastest misses.  README.md
/// gives the derivation and where both percentiles fall.
struct JobClass {
  const char* name;
  Kind kind;
  unsigned per_mille;
  chor::Aggregation aggregation;
  bool gauss_seidel;
};

constexpr JobClass kClasses[] = {
    {"hit", Kind::kRepeat, 333, chor::Aggregation::kNone, false},
    {"net", Kind::kNet, 250, chor::Aggregation::kNone, false},
    {"net-exact", Kind::kNet, 83, chor::Aggregation::kExact, false},
    {"net-gs", Kind::kNet, 84, chor::Aggregation::kNone, true},
    {"sweep", Kind::kSweep, 83, chor::Aggregation::kNone, false},
    {"tomcat", Kind::kTomcat, 167, chor::Aggregation::kNone, false},
};
constexpr std::size_t kClassCount = std::size(kClasses);

/// The first jobs of a sequence are never repeats: a repeat needs a
/// completed request to refer to.
constexpr std::size_t kFreshPrefix = 8;

/// Completed answers a repeat may draw from.
constexpr std::size_t kRingSize = 64;

/// Activity-diagram projects: PDA rings of 2 (the paper's and both
/// sources'), 3 and 4 hops, and the instant message; Tomcat servers cached
/// or not at 1-6 clients.  Within a class each is equally likely.
constexpr std::size_t kMessage = 5;  // net model index past the PDA hops
constexpr std::size_t kMaxClients = 6;

/// The sweep of models/batch_manifest.txt: locs over log:2:200:13.
constexpr std::size_t kSweepPoints = 13;

struct JobSpec {
  std::size_t k = 0;
  std::size_t job_class = 0;
  std::size_t net = 2;        // PDA hops 2-4, or kMessage
  bool cached = false;        // Tomcat
  std::size_t clients = 1;    // Tomcat
  double scale_a = 1.0;       // per-job rate factors: every fresh job has
  double scale_b = 1.0;       // its own cache key
};

JobSpec job_at(std::uint64_t seed, std::size_t k) {
  JobSpec spec;
  spec.k = k;
  unsigned draw = static_cast<unsigned>(mix(seed, 1, k) % 1000);
  if (k < kFreshPrefix) {
    const unsigned repeats = kClasses[0].per_mille;
    draw = repeats + static_cast<unsigned>(mix(seed, 5, k) % (1000 - repeats));
  }
  unsigned cumulative = 0;
  for (std::size_t c = 0; c < kClassCount; ++c) {
    cumulative += kClasses[c].per_mille;
    if (draw < cumulative) {
      spec.job_class = c;
      break;
    }
  }
  Rng rng(mix(seed, 2, k));
  const std::size_t net = rng.index(4);
  spec.net = net < 3 ? 2 + net : kMessage;
  spec.cached = rng.index(2) == 1;
  spec.clients = 1 + rng.index(kMaxClients);
  spec.scale_a = rng.uniform(0.8, 1.25);
  spec.scale_b = rng.uniform(0.8, 1.25);
  return spec;
}

/// The job's class and input, as the per-class summary prints it.
std::string label(const JobSpec& spec) {
  const JobClass& job_class = kClasses[spec.job_class];
  std::string text = job_class.name;
  if (job_class.kind == Kind::kNet) {
    text += spec.net == kMessage ? "/message"
                                 : "/pda" + std::to_string(spec.net);
  } else if (job_class.kind == Kind::kTomcat) {
    text += (spec.cached ? "/cached" : "/uncached") + std::to_string(spec.clients);
  }
  return text;
}

/// Seeded job inputs: one project file per PDA ring size, the instant
/// message, and the Tomcat server cached and uncached at 1-6 clients; one
/// PEPA file for sweep jobs.  Texts are kept for the stage-by-stage replay.
struct Inputs {
  std::string net_path[kMessage + 1], net_xmi[kMessage + 1];
  std::string tomcat_path[2][kMaxClients + 1], tomcat_xmi[2][kMaxClients + 1];
  std::string sweep_path, sweep_pepa;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

Inputs make_inputs(const Config& config) {
  Rng rng(config.seed);
  Inputs inputs;
  const std::string dir = config.work_dir + "/";
  for (std::size_t hops = 2; hops <= 4; ++hops) {
    inputs.net_xmi[hops] = inputs::pda_project(hops, rng);
    inputs.net_path[hops] = dir + "pda" + std::to_string(hops) + ".xmi";
    write_file(inputs.net_path[hops], inputs.net_xmi[hops]);
  }
  inputs.net_xmi[kMessage] = inputs::instant_message_project(rng);
  inputs.net_path[kMessage] = dir + "message.xmi";
  write_file(inputs.net_path[kMessage], inputs.net_xmi[kMessage]);
  for (const bool cached : {false, true}) {
    for (std::size_t clients = 1; clients <= kMaxClients; ++clients) {
      std::string& xmi = inputs.tomcat_xmi[cached][clients];
      std::string& path = inputs.tomcat_path[cached][clients];
      xmi = inputs::tomcat_project(
          cached, inputs::tomcat_params(rng, clients), rng);
      path = dir + (cached ? "tomcat_cached" : "tomcat") +
             std::to_string(clients) + ".xmi";
      write_file(path, xmi);
    }
  }
  inputs.sweep_pepa = inputs::tomcat_pepa(true, 1, rng);
  inputs.sweep_path = dir + "tomcat_cached.pepa";
  write_file(inputs.sweep_path, inputs.sweep_pepa);
  return inputs;
}

/// The cache's byte budget: small enough that a run spends most of its
/// time at the budget, evicting as it inserts, as a long-lived service does;
/// the answers repeats draw from are always among the newest entries.
constexpr std::size_t kCacheBytes = std::size_t{32} << 20;

/// The service a run talks to.  Members are declared so that the scheduler
/// (which drains on destruction) goes first and the registry last.
struct Service {
  explicit Service(std::size_t workers)
      : cache({.max_bytes = kCacheBytes, .registry = &registry}),
        scheduler({.workers = workers,
                   .cache = &cache,
                   .registry = &registry,
                   .derive_threads = 1}) {}
  service::Registry registry;
  service::ResultCache cache;
  service::Scheduler scheduler;
};

std::unique_ptr<Service> start_service() {
  return std::make_unique<Service>(2);
}

service::JobRequest make_request(const Inputs& inputs, const JobSpec& spec) {
  const JobClass& job_class = kClasses[spec.job_class];
  service::JobRequest request;
  request.name = std::string(job_class.name) + "-" + std::to_string(spec.k);
  request.options.aggregation = job_class.aggregation;
  if (job_class.gauss_seidel) {
    request.options.solver.method = choreo::ctmc::Method::kGaussSeidel;
  }
  switch (job_class.kind) {
    case Kind::kNet:
      request.input_path = inputs.net_path[spec.net];
      request.options.rates = {spec.net == kMessage
                                   ? std::pair<std::string, double>(
                                         "read", 1.8 * spec.scale_a)
                                   : std::pair<std::string, double>(
                                         "search_for_transmitters_1",
                                         4.0 * spec.scale_a)};
      break;
    case Kind::kTomcat:
      request.input_path = inputs.tomcat_path[spec.cached][spec.clients];
      request.options.rates = {{"offlineProcessing", 2.0 * spec.scale_a},
                               {"execute", 10.0 * spec.scale_b}};
      break;
    case Kind::kSweep: {
      service::SweepJobRequest job;
      job.model_path = inputs.sweep_path;
      job.spec.axes = {sweep::Axis::logspace("locs", 2.0 * spec.scale_a,
                                             200.0 * spec.scale_a,
                                             kSweepPoints)};
      job.threads = 1;
      request.sweep = std::move(job);
      break;
    }
    case Kind::kRepeat:
      throw std::logic_error("a repeat has no request of its own");
  }
  return request;
}

/// One completed fresh job: what a later repeat of it must reproduce.
struct Answer {
  std::size_t k = 0;
  std::string annotated_xmi;
  std::optional<sweep::SweepTable> table;
};

/// The most recent completed answers, shared by both callers.
class AnswerRing {
 public:
  void put(Answer answer) {
    std::lock_guard lock(mutex_);
    slots_[count_ % kRingSize] = std::move(answer);
    ++count_;
  }
  /// A completed answer chosen by `draw` (nullopt before any completion).
  std::optional<Answer> pick(std::uint64_t draw) const {
    std::lock_guard lock(mutex_);
    if (count_ == 0) return std::nullopt;
    return slots_[draw % std::min(count_, kRingSize)];
  }

 private:
  mutable std::mutex mutex_;
  Answer slots_[kRingSize];
  std::size_t count_ = 0;
};

/// Invariant checks of a finished job (reads the report the service
/// returned; repeats are also compared with the first answer).
std::string check(const JobSpec& origin, const service::JobResult& result,
                  const Answer* first) {
  if (result.status != service::JobStatus::kDone) {
    return std::string("job ended ") + service::to_string(result.status) +
           ": " + result.error;
  }
  const Kind kind = kClasses[origin.job_class].kind;
  std::string failure;
  if (kind == Kind::kSweep) {
    if (!result.sweep) return "sweep job returned no table";
    failure = checks::tomcat_sweep(*result.sweep, true);
  } else if (kind == Kind::kTomcat) {
    if (result.report.state_machines.size() != 1) {
      return "expected one state-machine result";
    }
    const chor::StateMachineResult& machines =
        result.report.state_machines.front();
    failure = checks::probabilities_sum_to_one(machines.probabilities);
    if (failure.empty()) {
      failure = checks::tomcat_cycle(machines.throughputs, origin.cached);
    }
  } else {
    if (result.report.activity_graphs.size() != 1) {
      return "expected one activity-graph result";
    }
    const auto& throughputs = result.report.activity_graphs.front().throughputs;
    failure = origin.net == kMessage ? checks::single_cycle(throughputs)
                                     : checks::pda_ring(throughputs, origin.net);
  }
  if (!failure.empty() || first == nullptr) return failure;
  if (!result.from_cache) return "a repeated request was not a cache hit";
  if (kind == Kind::kSweep) return checks::same_table(*first->table, *result.sweep);
  return checks::same_bytes("annotated XMI of a cache hit",
                            first->annotated_xmi, result.annotated_xmi);
}

/// What one caller thread records.
struct CallerLog {
  std::vector<double> latencies;
  /// Latencies by label(): class and input.
  std::map<std::string, std::vector<double>> by_label;
  std::size_t attempted = 0;
  std::vector<std::string> failures;
  std::size_t failed = 0;
};

/// Shared state of one pass of closed-loop callers over the sequence.
struct Pass {
  Pass(const Config& config_in, const Inputs& inputs_in, Service& service_in)
      : config(config_in), inputs(inputs_in), service(service_in) {}

  const Config& config;
  const Inputs& inputs;
  Service& service;
  AnswerRing ring;
  /// When set, answers of jobs [0, answers.size()) are kept by index.
  std::vector<std::optional<Answer>>* answers = nullptr;
  std::atomic<std::size_t> next{0};
};

/// Submits job k and waits for it; returns the check result.  A tracer
/// gets spans around submit and wait plus the service-reported timings;
/// `keep_latency` records the job's latency in the caller's log.
std::string run_job(Pass& pass, std::size_t k, CallerLog& log, Tracer* tracer,
                    bool keep_latency) {
  const JobSpec spec = job_at(pass.config.seed, k);
  JobSpec origin = spec;
  std::optional<Answer> first;
  if (kClasses[spec.job_class].kind == Kind::kRepeat) {
    first = pass.ring.pick(mix(pass.config.seed, 4, k));
    if (!first) return "a repeat found no completed request";
    origin = job_at(pass.config.seed, first->k);
  }
  service::JobRequest request = make_request(pass.inputs, origin);

  const Clock::time_point start = Clock::now();
  service::JobResult result;
  if (tracer != nullptr) {
    std::optional<service::JobHandle> handle;
    {
      Tracer::Scope span(*tracer, "service.submit");
      handle.emplace(pass.service.scheduler.submit(std::move(request)));
    }
    Tracer::Scope span(*tracer, "service.wait");
    result = handle->wait();
  } else {
    result = pass.service.scheduler.submit(std::move(request)).wait();
  }
  const double latency = seconds_since(start);
  if (keep_latency) {
    log.latencies.push_back(latency);
    log.by_label[label(spec)].push_back(latency);
  }
  if (tracer != nullptr) {
    const service::JobTimings& t = result.timings;
    tracer->count("service.queue_wait_s", t.queued_seconds);
    tracer->count("service.run_s", t.run_seconds);
    tracer->count("service.reported_extract_s", t.stages.extract_seconds);
    tracer->count("service.reported_derive_s", t.stages.derive_seconds());
    tracer->count("service.reported_solve_s", t.stages.solve_seconds);
    tracer->count("service.reported_reflect_s", t.stages.reflect_seconds);
    tracer->count("service.cache_hits", result.from_cache ? 1.0 : 0.0);
    tracer->count("service.retries",
                  result.attempts > 1 ? static_cast<double>(result.attempts - 1)
                                      : 0.0);
  }

  std::string failure = check(origin, result, first ? &*first : nullptr);
  if (failure.empty() && !first) {
    Answer answer{k, std::move(result.annotated_xmi), std::move(result.sweep)};
    if (pass.answers != nullptr && k < pass.answers->size()) {
      (*pass.answers)[k] = answer;
    }
    pass.ring.put(std::move(answer));
  }
  return failure;
}

void note(CallerLog& log, const std::string& failure) {
  ++log.attempted;
  if (!failure.empty()) {
    ++log.failed;
    if (log.failures.size() < 8) log.failures.push_back(failure);
  }
}

/// Runs two closed-loop callers; each takes the next index while `more(k)`
/// holds.  `body` runs one job on a caller and returns its check result.
template <typename More, typename Body>
void two_callers(std::atomic<std::size_t>& next, More&& more, Body&& body,
                 CallerLog (&logs)[2]) {
  auto caller = [&](std::size_t id) {
    for (std::size_t k = next.fetch_add(1); more(k); k = next.fetch_add(1)) {
      std::string failure;
      try {
        failure = body(id, k);
      } catch (const std::exception& error) {
        failure = std::string("job threw: ") + error.what();
      }
      note(logs[id], failure);
    }
  };
  std::thread second(caller, 1);
  try {
    caller(0);
  } catch (...) {
    second.join();
    throw;
  }
  second.join();
}

void fold(Outcome& outcome, const CallerLog& log) {
  outcome.attempted += log.attempted;
  outcome.failed += log.failed;
  for (const std::string& failure : log.failures) {
    if (outcome.failures.size() < 8) outcome.failures.push_back(failure);
  }
}

/// Replays fresh job k stage by stage on the calling thread and compares
/// the traced output with the service's answer.
std::string replay(const Inputs& inputs, const JobSpec& spec,
                   const Answer& answer, Tracer& tracer) {
  const JobClass& job_class = kClasses[spec.job_class];
  service::JobRequest request = make_request(inputs, spec);
  if (job_class.kind == Kind::kSweep) {
    std::optional<choreo::pepa::Model> model;
    timed(tracer, "pepa.parse", [&] {
      model.emplace(choreo::pepa::parse_model(inputs.sweep_pepa,
                                              request.sweep->model_path));
    });
    sweep::SweepOptions options;
    options.solver = request.options.solver;
    options.derive.threads = 1;
    options.threads = 1;
    const sweep::SweepTable table =
        traced_sweep(*model, request.sweep->spec, options, tracer);
    timed(tracer, "pepa.teardown", [&] { model.reset(); });
    return checks::same_table(*answer.table, table);
  }
  const std::string* text = nullptr;
  if (job_class.kind == Kind::kNet) text = &inputs.net_xmi[spec.net];
  if (job_class.kind == Kind::kTomcat) {
    text = &inputs.tomcat_xmi[spec.cached][spec.clients];
  }
  request.options.derive_threads = 1;
  const ProjectOutput output = traced_project(*text, request.options, tracer);
  return checks::same_bytes("replayed annotated XMI", answer.annotated_xmi,
                            output.annotated_xmi);
}

/// Notes on the timed jobs by label(): count, median and 99th percentile,
/// then which labels the run's median and 99th-percentile jobs carry.
void note_classes(const CallerLog (&logs)[2], Outcome& outcome) {
  std::map<std::string, std::vector<double>> all = logs[0].by_label;
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, latencies] : logs[1].by_label) {
    all[name].insert(all[name].end(), latencies.begin(), latencies.end());
  }
  char line[160];
  for (const auto& [name, latencies] : all) {
    for (const double latency : latencies) ranked.emplace_back(latency, name);
    std::snprintf(line, sizeof line,
                  "class %-18s jobs %6zu  p50 %8.3f ms  p99 %8.3f ms",
                  name.c_str(), latencies.size(), median(latencies) * 1e3,
                  percentile_nearest_rank(latencies, 0.99) * 1e3);
    outcome.notes.push_back(line);
  }
  if (ranked.empty()) return;
  std::sort(ranked.begin(), ranked.end());
  auto at = [&](double q) -> const std::string& {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(ranked.size())));
    return ranked[std::clamp<std::size_t>(rank, 1, ranked.size()) - 1].second;
  };
  outcome.notes.push_back("the median job is " + at(0.5) +
                          ", the 99th-percentile job " + at(0.99));
}

/// The untraced run: a warm-up, then the timed phase of closed-loop jobs
/// against `service`, continuing the sequence.
TimedPhase timed_phase(const Config& config, const Inputs& inputs,
                       Service& service, Outcome& outcome) {
  Pass pass{config, inputs, service};
  CallerLog logs[2];
  // Warm-up: the first jobs of the sequence fill the cache to its budget and
  // the answer ring before timing starts.
  const std::size_t warm_up = config.smoke ? 5 : 2000;
  two_callers(pass.next, [&](std::size_t k) { return k < warm_up; },
              [&](std::size_t id, std::size_t k) {
                return run_job(pass, k, logs[id], nullptr, false);
              },
              logs);
  pass.next = warm_up;
  TimedPhase phase;
  phase.start = host_sample();
  const Clock::time_point deadline =
      phase.start.wall + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(config.seconds));
  // The smoke run times a fixed 20 jobs.
  two_callers(pass.next,
              [&](std::size_t k) {
                return config.smoke ? k < warm_up + 20 : Clock::now() < deadline;
              },
              [&](std::size_t id, std::size_t k) {
                return run_job(pass, k, logs[id], nullptr, true);
              },
              logs);
  phase.end = host_sample();
  fold(outcome, logs[0]);
  fold(outcome, logs[1]);
  phase.wall_s = logs[0].latencies;
  phase.wall_s.insert(phase.wall_s.end(), logs[1].latencies.begin(),
                      logs[1].latencies.end());
  // Jobs are far shorter than the host's steal accounting tick, so the
  // phase's steal-free share scales every latency alike.
  const double unstolen = steal_free_seconds(phase.start, phase.end) /
                          seconds_between(phase.start.wall, phase.end.wall);
  for (const double wall : phase.wall_s) {
    phase.steal_free_s.push_back(wall * unstolen);
  }
  note_classes(logs, outcome);
  return phase;
}

}  // namespace

Outcome run_service_mix(const Config& config) {
  Outcome outcome;
  Inputs inputs;
  std::unique_ptr<Service> shared;
  // Earlier repetitions' services are shut down after each batch, outside
  // the timed set-up: draining and joining is not starting.
  std::vector<std::unique_ptr<Service>> retired;
  std::vector<double> setup_samples = config.child_setup_s;
  auto setup = [&] {
    retired.push_back(std::move(shared));
    inputs = make_inputs(config);
    shared = start_service();
  };
  time_setup(setup_repeats(config), setup_samples, setup);
  retired.clear();
  if (config.setup_only) return setup_outcome(setup_samples);

  if (!config.trace) {
    const TimedPhase phase = timed_phase(config, inputs, *shared, outcome);
    time_setup(setup_repeats(config), setup_samples, setup);
    retired.clear();
    add_end_to_end(outcome, setup_samples, phase);
    return outcome;
  }

  // Traced run over a fixed prefix of the sequence, so every count repeats
  // exactly for one seed.  Each round is an untraced scheduler pass, a
  // traced scheduler pass (spans around submit and wait, plus the timings
  // the service reports), and a replay of the pass's fresh jobs stage by
  // stage on one thread, which attributes the xml, uml, chor, explore, ctmc
  // and pepa layers.  Every pass starts a fresh service, so hits come from
  // repeats only.
  shared.reset();
  const std::size_t jobs = config.smoke ? 20 : 1000;
  const HostSample run_start = host_sample();
  const Clock::time_point epoch = run_start.wall;
  Tracer tracer(epoch);
  std::vector<double> untraced_seconds, traced_seconds;
  std::size_t rounds = 0;
  do {
    for (const bool traced : {false, true}) {
      std::unique_ptr<Service> fresh = start_service();
      std::vector<std::optional<Answer>> answers(jobs);
      Pass pass{config, inputs, *fresh};
      pass.answers = &answers;
      CallerLog logs[2];
      Tracer lanes[2] = {Tracer(epoch), Tracer(epoch)};
      const HostSample start = host_sample();
      two_callers(pass.next, [&](std::size_t k) { return k < jobs; },
                  [&](std::size_t id, std::size_t k) {
                    if (!traced) return run_job(pass, k, logs[id], nullptr, false);
                    Tracer& lane = lanes[id];
                    lane.set_job(rounds * jobs + k);
                    Tracer::Scope job(lane, "op.job");
                    return run_job(pass, k, logs[id], &lane, false);
                  },
                  logs);
      (traced ? traced_seconds : untraced_seconds)
          .push_back(steal_free_seconds(start, host_sample()));
      fold(outcome, logs[0]);
      fold(outcome, logs[1]);
      if (!traced) continue;
      tracer.merge(lanes[0]);
      tracer.merge(lanes[1]);

      // Stage-by-stage replay of the fresh jobs of this pass, on this
      // thread alone, so each per-call resident-set peak is the call's own.
      for (std::size_t k = 0; k < jobs; ++k) {
        const JobSpec spec = job_at(config.seed, k);
        if (kClasses[spec.job_class].kind == Kind::kRepeat) continue;
        if (!answers[k]) {
          outcome.count_job("no service answer to replay");
          continue;
        }
        tracer.set_job(rounds * jobs + k);
        std::string failure;
        try {
          Tracer::Scope job(tracer, "op.job");
          failure = replay(inputs, spec, *answers[k], tracer);
        } catch (const std::exception& error) {
          failure = std::string("replay threw: ") + error.what();
        }
        outcome.count_job(failure);
      }
    }
    ++rounds;
  } while (seconds_since(epoch) < config.seconds);

  const double overhead = median(untraced_seconds) / median(traced_seconds);
  outcome.metrics =
      layer_metrics(tracer, static_cast<double>(rounds * jobs), overhead,
                    steal_share(run_start, host_sample()));
  outcome.spans_json = tracer.spans_json();
  return outcome;
}

}  // namespace perfbench
