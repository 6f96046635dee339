#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Outcome::count_job(const std::string& failure) {
  ++attempted;
  if (!failure.empty()) fail(failure);
}

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::index(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

CpuTour::CpuTour() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuTour::~CpuTour() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) CPU_SET(cpu, &allowed);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed, &allowed);
}

void CpuTour::visit(std::size_t k) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[k % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t k) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL) ^
          (k * 0x8cb92ba72f3d8dd7ULL));
  return rng.next();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile_nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size(), std::max<std::size_t>(1, static_cast<std::size_t>(rank)));
  return values[index - 1];
}

HostSample host_sample() {
  HostSample sample;
  sample.wall = Clock::now();
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  sample.cpu_s = static_cast<double>(cpu.tv_sec) + 1e-9 * static_cast<double>(cpu.tv_nsec);
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal ..." in clock ticks, summed over every CPU.
  std::ifstream stat("/proc/stat");
  std::string label;
  double ticks[8] = {};
  stat >> label;
  for (double& field : ticks) stat >> field;
  if (stat && label == "cpu") {
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    sample.busy_s = (ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6]) / tick;
    sample.steal_s = ticks[7] / tick;
  }
  return sample;
}

double steal_share(const HostSample& from, const HostSample& to) {
  const double busy = to.busy_s - from.busy_s;
  const double steal = to.steal_s - from.steal_s;
  return busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
}

double steal_free_seconds(const HostSample& from, const HostSample& to) {
  return seconds_between(from.wall, to.wall) * (1.0 - steal_share(from, to));
}

Outcome setup_outcome(const std::vector<double>& samples) {
  Outcome outcome;
  outcome.add("setup_s", *std::min_element(samples.begin(), samples.end()),
              "s");
  return outcome;
}

void add_end_to_end(Outcome& outcome, const std::vector<double>& setup_samples,
                    const TimedPhase& phase) {
  const double jobs = static_cast<double>(phase.wall_s.size());
  outcome.add("setup_s",
              *std::min_element(setup_samples.begin(), setup_samples.end()),
              "s");
  outcome.add("jobs_per_s", jobs / steal_free_seconds(phase.start, phase.end),
              "1/s");
  outcome.add("job_p50_ms", median(phase.steal_free_s) * 1e3, "ms");
  outcome.add("job_p99_ms",
              percentile_nearest_rank(phase.steal_free_s, 0.99) * 1e3, "ms");
  outcome.add("peak_rss_mib", peak_rss_mib(), "MiB");

  char note[320];
  std::snprintf(note, sizeof note,
                "wall clock: %.6g jobs/s, p50 %.6g ms, p99 %.6g ms over %zu "
                "jobs; steal share %.2f%%; %.6g CPU-s per job; set-up median "
                "%.6g s",
                jobs / seconds_between(phase.start.wall, phase.end.wall),
                median(phase.wall_s) * 1e3,
                percentile_nearest_rank(phase.wall_s, 0.99) * 1e3,
                phase.wall_s.size(), 100.0 * steal_share(phase.start, phase.end),
                (phase.end.cpu_s - phase.start.cpu_s) / jobs,
                median(setup_samples));
  outcome.notes.push_back(note);
}

namespace {

/// A "Vm...:" field of /proc/self/status in MiB.
double status_mib(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mib() { return status_mib("VmHWM"); }

double rss_mib() { return status_mib("VmRSS"); }

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

// --- Tracer -----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  const std::int64_t parent =
      tracer.open_.empty() ? -1 : static_cast<std::int64_t>(tracer.open_.back());
  tracer.spans_.push_back({name, tracer.now(), 0.0, parent, tracer.job_});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end = tracer_.now();
  tracer_.open_.pop_back();
}

namespace {

void add_to(std::vector<std::pair<std::string, double>>& table,
            const std::string& name, double value, bool keep_max) {
  for (auto& [key, total] : table) {
    if (key == name) {
      total = keep_max ? std::max(total, value) : total + value;
      return;
    }
  }
  table.emplace_back(name, value);
}

double lookup(const std::vector<std::pair<std::string, double>>& table,
              const std::string& name) {
  for (const auto& [key, value] : table) {
    if (key == name) return value;
  }
  return 0.0;
}

}  // namespace

void Tracer::count(const char* name, double value) {
  add_to(counters_, name, value, false);
}

void Tracer::peak(const char* name, double value) {
  add_to(peaks_, name, value, true);
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    add_to(out, span.name, span.end - span.start - children[i], false);
  }
  return out;
}

void Tracer::merge(const Tracer& other) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  const double shift = seconds_between(epoch_, other.epoch_);
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    span.start += shift;
    span.end += shift;
    spans_.push_back(span);
  }
  for (const auto& [name, value] : other.counters_) {
    add_to(counters_, name, value, false);
  }
  for (const auto& [name, value] : other.peaks_) {
    add_to(peaks_, name, value, true);
  }
}

std::string Tracer::spans_json(std::size_t limit) const {
  std::ostringstream out;
  out.precision(9);
  out << '[';
  for (std::size_t i = 0; i < std::min(limit, spans_.size()); ++i) {
    const Span& span = spans_[i];
    if (i != 0) out << ",\n";
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start\":" << span.start << ",\"end\":" << span.end
        << ",\"parent\":" << span.parent << ",\"job\":" << span.job << '}';
  }
  out << ']';
  return out.str();
}

// --- per-layer metrics ----------------------------------------------------

namespace {

/// Where a per-layer metric comes from.
enum class Source {
  kSelf,     ///< summed self time of the spans named `key`, per traced job
  kCount,    ///< counter `key`, per traced job
  kPeak,     ///< largest value recorded under `key`
  kOverhead, ///< traced over untraced jobs per second
  kJobs,     ///< traced jobs in the run
  kSteal,    ///< share of the run's CPU demand the host stole
};

struct LayerMetric {
  const char* name;
  const char* unit;
  Source source;
  const char* key;
  double scale;
};

// Whole-job layers report seconds, per-document layers milliseconds.
constexpr LayerMetric kLayerMetrics[] = {
    {"explore.derive_s", "s", Source::kSelf, "explore.derive", 1.0},
    {"explore.states", "count", Source::kCount, "explore.states", 1.0},
    {"explore.transitions", "count", Source::kCount, "explore.transitions", 1.0},
    {"explore.levels", "count", Source::kCount, "explore.levels", 1.0},
    {"explore.dedup_hits", "count", Source::kCount, "explore.dedup_hits", 1.0},
    {"explore.canonical_rewrites", "count", Source::kCount,
     "explore.canonical_rewrites", 1.0},
    {"explore.peak_mib", "MiB", Source::kPeak, "explore.peak", 1.0},
    {"pepa.parse_ms", "ms", Source::kSelf, "pepa.parse", 1e3},
    {"pepa.measures_s", "s", Source::kSelf, "pepa.measures", 1.0},
    {"pepa.teardown_s", "s", Source::kSelf, "pepa.teardown", 1.0},
    {"ctmc.assemble_s", "s", Source::kSelf, "ctmc.assemble", 1.0},
    {"ctmc.assemble_peak_mib", "MiB", Source::kPeak, "ctmc.assemble_peak", 1.0},
    {"ctmc.solve_s", "s", Source::kSelf, "ctmc.solve", 1.0},
    {"ctmc.solve_iterations", "count", Source::kCount, "ctmc.solve_iterations",
     1.0},
    {"sweep.rebind_s", "s", Source::kSelf, "sweep.rebind", 1.0},
    {"sweep.points", "count", Source::kCount, "sweep.points", 1.0},
    {"chor.apply_rates_ms", "ms", Source::kSelf, "chor.apply_rates", 1e3},
    {"chor.extract_ms", "ms", Source::kSelf, "chor.extract", 1e3},
    {"chor.reflect_ms", "ms", Source::kSelf, "chor.reflect", 1e3},
    {"uml.preprocess_ms", "ms", Source::kSelf, "uml.preprocess", 1e3},
    {"uml.from_xmi_ms", "ms", Source::kSelf, "uml.from_xmi", 1e3},
    {"uml.validate_ms", "ms", Source::kSelf, "uml.validate", 1e3},
    {"uml.to_xmi_ms", "ms", Source::kSelf, "uml.to_xmi", 1e3},
    {"uml.postprocess_ms", "ms", Source::kSelf, "uml.postprocess", 1e3},
    {"xml.parse_ms", "ms", Source::kSelf, "xml.parse", 1e3},
    {"xml.write_ms", "ms", Source::kSelf, "xml.write", 1e3},
    {"service.submit_ms", "ms", Source::kSelf, "service.submit", 1e3},
    {"service.wait_ms", "ms", Source::kSelf, "service.wait", 1e3},
    {"service.queue_wait_ms", "ms", Source::kCount, "service.queue_wait_s",
     1e3},
    {"service.run_ms", "ms", Source::kCount, "service.run_s", 1e3},
    {"service.reported_extract_ms", "ms", Source::kCount,
     "service.reported_extract_s", 1e3},
    {"service.reported_derive_ms", "ms", Source::kCount,
     "service.reported_derive_s", 1e3},
    {"service.reported_solve_ms", "ms", Source::kCount,
     "service.reported_solve_s", 1e3},
    {"service.reported_reflect_ms", "ms", Source::kCount,
     "service.reported_reflect_s", 1e3},
    {"service.cache_hit_ratio", "ratio", Source::kCount, "service.cache_hits",
     1.0},
    {"service.retries", "count", Source::kCount, "service.retries", 1.0},
    {"op.remainder_ms", "ms", Source::kSelf, "op.job", 1e3},
    {"trace.overhead_ratio", "ratio", Source::kOverhead, "", 1.0},
    {"trace.jobs", "count", Source::kJobs, "", 1.0},
    {"host.steal_share", "ratio", Source::kSteal, "", 1.0},
};

}  // namespace

std::vector<Metric> layer_metrics(const Tracer& tracer, double traced_jobs,
                                  double overhead, double steal) {
  const auto self = tracer.self_seconds();
  // Dividing (not multiplying by a reciprocal) keeps a count per job
  // bit-identical however many rounds of the same jobs a run traced.
  auto per_job = [&](double total) {
    return traced_jobs > 0.0 ? total / traced_jobs : 0.0;
  };
  std::vector<Metric> out;
  for (const LayerMetric& metric : kLayerMetrics) {
    double value = 0.0;
    switch (metric.source) {
      case Source::kSelf:
        value = per_job(lookup(self, metric.key)) * metric.scale;
        break;
      case Source::kCount:
        value = per_job(lookup(tracer.counters(), metric.key)) * metric.scale;
        break;
      case Source::kPeak:
        value = lookup(tracer.peaks(), metric.key) * metric.scale;
        break;
      case Source::kOverhead:
        value = overhead;
        break;
      case Source::kJobs:
        value = traced_jobs;
        break;
      case Source::kSteal:
        value = steal;
        break;
    }
    out.push_back({metric.name, value, metric.unit});
  }
  return out;
}

}  // namespace perfbench
