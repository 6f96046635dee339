// Analysis jobs: the unit of work of the concurrent analysis service.
//
// A JobRequest wraps one Figure-4 pipeline run — a project document (or the
// path of one) plus AnalysisOptions — and a JobResult carries everything a
// client needs back: the AnalysisReport, the annotated project XMI as
// serialised bytes (so repeated runs can be compared byte-for-byte and the
// cache can replay them), the error string for failed jobs and a timing
// breakdown of the queue/run/pipeline stages.
//
// Lifecycle (JobStatus):
//
//   queued --> running --> done
//                      \-> failed      (pipeline threw; see JobResult.error)
//                      \-> timed_out   (wall-clock deadline passed)
//          \----------\-> cancelled    (JobHandle::cancel, before or during)
//
// All transitions are driven by the Scheduler; JobHandle (scheduler.hpp) is
// the client-side view.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "choreographer/pipeline.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "xml/dom.hpp"

namespace choreo::service {

enum class JobStatus {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kTimedOut,
};

const char* to_string(JobStatus status);

/// True for the four states that end a job's lifecycle.
bool is_terminal(JobStatus status);

/// A design-space sweep job: evaluate one PEPA model at every point of a
/// SweepSpec, deriving the state space once (the points share the
/// rate-stripped structure) and re-solving per point.  Submitted as
/// JobRequest::sweep; the project/XMI fields of the request are unused.
struct SweepJobRequest {
  /// The PEPA source file to sweep.
  std::string model_path;
  sweep::SweepSpec spec;
  sweep::Backend backend = sweep::Backend::kExact;
  /// Per-point evaluation lanes inside the job; 1 keeps the sweep on the
  /// job's own worker (the scheduler default, matching derive_threads).
  std::size_t threads = 1;
  /// Table serialisation when JobRequest::output_path is set.
  enum class Format { kCsv, kJson };
  Format format = Format::kCsv;
};

struct JobRequest {
  /// Display name used by reports and the batch tool; defaults to the
  /// input path or "<inline>".
  std::string name;
  /// The project document to analyse.  Ignored when `input_path` is set
  /// (the scheduler then parses the file inside the job).
  xml::Document project;
  std::optional<std::string> input_path;
  /// When set, the annotated project XMI is also written to this path.
  std::optional<std::string> output_path;
  chor::AnalysisOptions options;
  /// Wall-clock budget measured from submission, spanning queue wait,
  /// retries and backoff.  Negative means "use the scheduler default";
  /// 0 disables the deadline.
  double timeout_seconds = -1.0;
  /// When set, the job is a design-space sweep over a PEPA file instead of
  /// a Figure-4 pipeline run; `options.solver` and the fluid knobs still
  /// apply per point, and the result lands in JobResult::sweep.
  std::optional<SweepJobRequest> sweep;
};

struct JobTimings {
  /// Submission to first execution attempt.
  double queued_seconds = 0.0;
  /// Execution (including retries and backoff sleeps).
  double run_seconds = 0.0;
  /// Pipeline stage totals folded over the report's graphs (clocks and
  /// discovery counters sum, peak frontier takes the maximum).
  chor::StageTimings stages;
  /// The document path around the pipeline stages, each inside
  /// run_seconds and disjoint from `stages` and from each other.  A cache
  /// hit runs neither from_xmi nor to_xmi; a sweep job runs none of them.
  /// Reading the project: the file read and xml::parse_file, or the copy
  /// of an inline document.
  double read_seconds = 0.0;
  /// uml::preprocess, the layout split.
  double preprocess_seconds = 0.0;
  /// The cache key, the lookup and, on a miss, the store.
  double cache_seconds = 0.0;
  /// uml::from_xmi, summed over attempts.
  double from_xmi_seconds = 0.0;
  /// uml::to_xmi of the analysed model.
  double to_xmi_seconds = 0.0;
  /// uml::postprocess, the layout merge.
  double postprocess_seconds = 0.0;
  /// xml::to_string of the annotated project, plus the write to
  /// JobRequest::output_path when one is set.
  double write_seconds = 0.0;
};

struct JobResult {
  JobStatus status = JobStatus::kQueued;
  chor::AnalysisReport report;
  /// The annotated project document, serialised with the default
  /// xml::WriteOptions.  Byte-identical across cache hits.
  std::string annotated_xmi;
  /// Human-readable failure reason (failed / timed_out / cancelled).
  std::string error;
  JobTimings timings;
  /// Derivation progress reconstructed from the job's resource budget;
  /// most useful for cancelled / timed-out jobs, where it shows how far
  /// exploration got before the interruption (levels, peak frontier, and
  /// states discovered in dedup_misses).  Zeroed for cache hits and jobs
  /// that never ran.
  pepa::DeriveStats partial_derive_stats;
  /// Execution attempts (0 for cache hits and never-ran jobs).
  std::size_t attempts = 0;
  /// Aggregation level of the attempt that produced the report — deeper
  /// than the request's own level when the retry ladder downgraded the
  /// job (kNone -> kExact -> kFluid).  Cache hits report the requested
  /// level (the cache key includes it, so they always match).
  chor::Aggregation aggregation_used = chor::Aggregation::kNone;
  /// Whether the result was served from the content-addressed cache.  A
  /// sweep job sets this only when *every* point was a cache hit; partial
  /// hits are counted in sweep->points_from_cache.
  bool from_cache = false;
  /// The result table of a sweep job (JobRequest::sweep); unset otherwise.
  std::optional<sweep::SweepTable> sweep;
};

}  // namespace choreo::service
