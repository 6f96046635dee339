// Shared pieces of the end-to-end benchmark: run configuration, seeded
// input generation, result records, process memory probes and the span
// tracer used by the traced runs.
//
// Each workload (project_large.cpp, sweep_grid.cpp, service_mix.cpp) is a
// closed loop over the library's public entry points.  With tracing off it
// reports the end-to-end metrics; with tracing on it alternates untraced
// and traced units of work and reports per-layer metrics from spans the
// benchmark records around every public call it makes (README.md).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Per-layer run (spans on) instead of the end-to-end run.
  bool trace = false;
  /// Tiny inputs for the benchmark's own tests.
  bool smoke = false;
  /// Directory for files the workload writes (sweep-job model files).
  std::string work_dir = ".";
  /// Time set-up only and report its fastest sample as setup_s (a child
  /// process of an untraced run; see main.cpp).
  bool setup_only = false;
  /// The fastest set-up samples of earlier child processes, which count
  /// towards this run's setup_s.
  std::vector<double> child_setup_s;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: jobs attempted and failed, the failure reasons
/// (the first few), and the metrics of the run's mode.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// Readable context printed with the metrics (wall-clock figures, ...).
  std::vector<std::string> notes;
  /// Spans of a traced run as a JSON array (empty for untraced runs).
  std::string spans_json;

  /// Records one failed job with its reason.
  void fail(const std::string& why);
  /// Folds a job's check result in: an empty reason is a pass.
  void count_job(const std::string& failure);
  void add(std::string name, double value, std::string unit);
};

/// splitmix64: a tiny, platform-independent generator, so one seed gives
/// the same inputs on every host and library version.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform index in [0, n).
  std::size_t index(std::size_t n);

 private:
  std::uint64_t state_;
};

/// A stateless hash of (seed, stream, index): the k-th job of a sequence
/// is a pure function of the seed, whichever thread draws it.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t k);

// --- statistics -----------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile (q in (0, 1]); with fewer than 1/(1-q) samples
/// this is the largest sample.
double percentile_nearest_rank(std::vector<double> values, double q);

/// Moves the calling thread over the CPUs it may use, one at a time, and
/// lets it run on all of them again when destroyed.  Where the kernel
/// refuses, the thread stays where it is.
class CpuTour {
 public:
  CpuTour();
  ~CpuTour();
  CpuTour(const CpuTour&) = delete;
  CpuTour& operator=(const CpuTour&) = delete;

  /// The number of CPUs on the tour (at least 1).
  std::size_t size() const { return cpus_.empty() ? 1 : cpus_.size(); }
  /// Binds the thread to the k-th CPU of the tour.
  void visit(std::size_t k);

 private:
  std::vector<int> cpus_;
};

/// Runs `setup` `repeats` times and appends each wall time (seconds) to
/// `samples`.  Set-up is sub-millisecond on two workloads, and the host runs
/// some of our virtual CPUs up to twice as slowly as others for minutes at a
/// time, so the samples visit every CPU the process may use, a few in a row
/// on each, and a run reports the fastest: noise on the host only ever adds
/// to a sample.  `setup` also runs once, untimed, before and after the
/// samples on the thread's own CPUs, so the threads it starts lazily (the
/// shared pool) and the state the caller keeps (a scheduler's workers) are
/// not bound to one CPU.
template <typename F>
void time_setup(std::size_t repeats, std::vector<double>& samples, F&& setup) {
  setup();
  {
    CpuTour tour;
    for (std::size_t i = 0; i < repeats; ++i) {
      tour.visit(i * tour.size() / repeats);
      const Clock::time_point start = Clock::now();
      setup();
      samples.push_back(seconds_since(start));
    }
  }
  setup();
}

/// The outcome of a set-up-only run: setup_s, the fastest of `samples`.
Outcome setup_outcome(const std::vector<double>& samples);

/// Set-up repetitions before and again after a run's timed phase.
inline std::size_t setup_repeats(const Config& config) {
  return config.smoke ? 3 : 21;
}

// --- stolen time ----------------------------------------------------------

/// A point in time with the CPU time this process has used, and the busy
/// and stolen time /proc/stat reports summed over the machine's CPUs (all
/// in seconds).
struct HostSample {
  Clock::time_point wall;
  double cpu_s = 0.0;
  double busy_s = 0.0;
  double steal_s = 0.0;
};

HostSample host_sample();

/// steal / (busy + steal) between two samples: the share of the time the
/// machine's virtual CPUs wanted to run in which the hypervisor ran another
/// guest instead.  Taken over every CPU and all of their work, so steal
/// that lands on other processes is weighed against their work, not ours.
double steal_share(const HostSample& from, const HostSample& to);

/// Wall time between two samples with the stolen share taken out:
/// wall * (1 - steal_share).  On a host that reports no steal this is the
/// wall time.
double steal_free_seconds(const HostSample& from, const HostSample& to);

/// The timed phase of an untraced run: per-job latencies, as measured and
/// with stolen time taken out, and the samples that bracket the phase.
struct TimedPhase {
  HostSample start;
  HostSample end;
  std::vector<double> wall_s;
  std::vector<double> steal_free_s;
};

/// Adds the end-to-end metrics of a timed phase to `outcome`: setup_s (the
/// fastest of `setup_samples`, wall clock), jobs_per_s, job_p50_ms and
/// job_p99_ms (steal-free) and peak_rss_mib.  The job figures on the plain
/// wall clock, and the steal share, go to the outcome's notes.
void add_end_to_end(Outcome& outcome, const std::vector<double>& setup_samples,
                    const TimedPhase& phase);

// --- process memory -------------------------------------------------------

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mib();
/// Current resident set (VmRSS) in MiB.
double rss_mib();
/// Resets VmHWM to the current resident set (writes 5 to
/// /proc/self/clear_refs); returns false where the kernel refuses.
bool reset_peak_rss();

// --- tracing --------------------------------------------------------------

/// In-memory span recorder for one thread.  Spans carry a name, start and
/// end, the enclosing span and a job id; per-layer metrics are self times
/// (a span minus its direct children) summed by span name, plus counters.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;  ///< seconds since the tracer's epoch
    double end;
    std::int64_t parent;  ///< index of the enclosing span, -1 at top level
    std::size_t job;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// RAII span; nests under the innermost open span of this tracer.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Sets the job id recorded on spans opened from now on.
  void set_job(std::size_t job) { job_ = job; }
  /// Adds to a named counter (states, iterations, ...).
  void count(const char* name, double value);
  /// Keeps the largest value seen for a named peak.
  void peak(const char* name, double value);

  /// Sum of self times per span name, and counters/peaks by name.
  std::vector<std::pair<std::string, double>> self_seconds() const;
  const std::vector<std::pair<std::string, double>>& counters() const {
    return counters_;
  }
  const std::vector<std::pair<std::string, double>>& peaks() const {
    return peaks_;
  }
  /// Appends another thread's spans and counters (spans keep their own
  /// parent links, re-based).
  void merge(const Tracer& other);
  /// The first `limit` spans as a JSON array (parents precede their
  /// children, so every written span's parent is written too).
  std::string spans_json(std::size_t limit = 20000) const;

 private:
  double now() const { return seconds_since(epoch_); }

  Clock::time_point epoch_;
  std::size_t job_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<std::pair<std::string, double>> counters_;
  std::vector<std::pair<std::string, double>> peaks_;
};

/// Runs `call` inside a span and records under `peak_name` how far the
/// resident set rose above its level at the start of the call: VmHWM is
/// reset before the call and read after it, less VmRSS before it.  VmHWM
/// belongs to the whole process, so callers run this with no other thread
/// of theirs active.
template <typename F>
auto traced_peak(Tracer& tracer, const char* span_name, const char* peak_name,
                 F&& call) {
  reset_peak_rss();
  struct PeakReader {
    Tracer& tracer;
    const char* name;
    double before;
    ~PeakReader() { tracer.peak(name, peak_rss_mib() - before); }
  } reader{tracer, peak_name, rss_mib()};
  Tracer::Scope scope(tracer, span_name);
  return call();
}

/// The per-layer metrics every traced run prints, in output order, computed
/// from the merged tracer: span self times and counters divided by the
/// number of traced jobs, peaks as maxima.  `overhead` is traced over
/// untraced jobs per second, `steal` the run's steal_share().
std::vector<Metric> layer_metrics(const Tracer& tracer, double traced_jobs,
                                  double overhead, double steal);

// --- workloads ------------------------------------------------------------

/// Runs one job, records its wall and steal-free time in `phase`, and
/// returns the job's check result.
template <typename Job>
std::string timed_job(TimedPhase& phase, Job&& job) {
  const HostSample start = host_sample();
  std::string failure = job();
  const HostSample end = host_sample();
  phase.wall_s.push_back(seconds_between(start.wall, end.wall));
  phase.steal_free_s.push_back(steal_free_seconds(start, end));
  return failure;
}

/// The closed loop of a single-caller workload (project_large, sweep_grid).
/// `untraced()` and `traced(tracer)` each run one job and return its check
/// result.  One untraced job warms up first.  An untraced run then times
/// jobs for `config.seconds` and reports the end-to-end metrics; a traced
/// run alternates untraced and traced jobs for as long, so both see the same
/// host conditions, and reports the per-layer metrics.  `setup` is timed
/// before the warm-up and again after the timed phase.
template <typename Setup, typename Untraced, typename Traced>
Outcome single_caller_loop(const Config& config, Setup&& setup,
                           Untraced&& untraced, Traced&& traced) {
  Outcome outcome;
  std::vector<double> setup_samples = config.child_setup_s;
  time_setup(setup_repeats(config), setup_samples, setup);
  if (config.setup_only) return setup_outcome(setup_samples);
  outcome.count_job(untraced());

  if (!config.trace) {
    TimedPhase phase;
    phase.start = host_sample();
    do {
      outcome.count_job(timed_job(phase, untraced));
    } while (seconds_since(phase.start.wall) < config.seconds);
    phase.end = host_sample();
    time_setup(setup_repeats(config), setup_samples, setup);
    add_end_to_end(outcome, setup_samples, phase);
    return outcome;
  }

  TimedPhase plain, spanned;
  plain.start = host_sample();
  Tracer tracer(plain.start.wall);
  do {
    outcome.count_job(timed_job(plain, untraced));
    tracer.set_job(spanned.wall_s.size());
    outcome.count_job(timed_job(spanned, [&] {
      Tracer::Scope job(tracer, "op.job");
      return traced(tracer);
    }));
  } while (seconds_since(plain.start.wall) < config.seconds);
  plain.end = host_sample();
  outcome.metrics = layer_metrics(
      tracer, static_cast<double>(spanned.wall_s.size()),
      median(plain.steal_free_s) / median(spanned.steal_free_s),
      steal_share(plain.start, plain.end));
  outcome.spans_json = tracer.spans_json();
  return outcome;
}

Outcome run_project_large(const Config& config);
Outcome run_sweep_grid(const Config& config);
Outcome run_service_mix(const Config& config);

/// Feeds each checker one corrupted output and returns the checkers that
/// failed to fire (empty when all fired).
std::vector<std::string> checker_self_test();

}  // namespace perfbench
