// A small fixed-size thread pool with two loop-parallelism entry points and
// a submit() entry point for irregular, long-lived tasks.
//
// parallel_for partitions work into contiguous chunks, one per worker,
// which suits regular, memory-bound loops (the sparse CTMC kernels, the
// simulation engine's independent replications).  parallel_for_dynamic
// hands out chunks from an atomic cursor instead, so lanes that finish
// early steal the remainder — the right shape for irregular per-item cost
// like state-space frontier expansion.  Both are drain-safe: a thread that
// waits for chunks to finish helps execute queued tasks instead of
// sleeping, so nested invocations (a parallel_for inside a parallel_for
// chunk, or inside a sweep point running on the same pool) cannot
// deadlock the pool.  submit() serves the analysis service's scheduler,
// whose jobs are neither regular nor short-lived and need an individually
// waitable completion handle.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace choreo::util {

class ThreadPool {
 public:
  /// Auto-sizes: one worker per hardware thread beyond the caller's, so a
  /// parallel loop's lanes (workers + calling thread) match the cores.  On
  /// a single-core host this is a pool with no workers.
  ThreadPool();

  /// Spawns exactly `worker_count` workers.  ThreadPool(0) has none: every
  /// task runs inline on the thread that submits it.
  explicit ThreadPool(std::size_t worker_count);

  /// Drains every queued task (workers finish outstanding work before
  /// exiting), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Runs body(begin, end) over contiguous chunks of [0, count) across the
  /// pool (and the calling thread), returning once every chunk completed.
  /// Exceptions from chunks are rethrown (first one wins).  While waiting
  /// for its chunks the calling thread executes other queued tasks, so
  /// nesting parallel_for inside a chunk body is deadlock-free.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Work-stealing variant: [0, count) is split into chunks of `grain`
  /// items handed out by an atomic cursor, so up to `max_lanes` lanes (the
  /// calling thread plus pool workers; 0 sizes to the pool) pull the next
  /// chunk as they finish the last — no lane waits on a static split when
  /// per-item cost is irregular.  The chunk boundaries depend only on
  /// (count, grain), never on the interleaving, so a body that writes
  /// item-indexed slots produces identical output at every lane count.
  /// The calling thread participates and, once the cursor is exhausted,
  /// helps drain the task queue until the remaining lanes finish.
  /// Exceptions from chunks are rethrown (first one wins).
  void parallel_for_dynamic(
      std::size_t count, std::size_t grain, std::size_t max_lanes,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// Enqueues one task for asynchronous execution and returns a future that
  /// becomes ready when it completes (exceptions propagate through the
  /// future).  Unlike parallel_for, the caller does not participate: tasks
  /// may be long-lived and irregular.  On a pool with no workers the task
  /// runs inline, so submit() never deadlocks.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    enqueue([packaged] { (*packaged)(); });
    return future;
  }

  /// The process-wide pool used by library kernels by default.
  ///
  /// Static-destruction contract: the pool is a function-local static, so
  /// it is constructed on first call and destroyed during static
  /// destruction in reverse order of construction relative to other
  /// function-local statics.  Code that can run during static destruction
  /// (destructors of objects with static storage, atexit handlers) may use
  /// shared() safely provided shared() was first called before that object
  /// finished constructing/registering — the pool is then older and is
  /// destroyed later.  Constructing such an object is easiest done by
  /// touching shared() in its own constructor.  Calling shared() for the
  /// very first time during static destruction is undefined (it would
  /// construct a pool that is never destroyed before process teardown
  /// joins it).
  static ThreadPool& shared();

 private:
  void worker_loop();
  /// Pushes a type-erased task and wakes a worker (runs inline when the
  /// pool has no workers).
  void enqueue(std::function<void()> task);
  /// Pops and runs one queued task if any is available; returns whether it
  /// did.  Used by waiting threads to help drain the queue — the queued
  /// task may belong to any caller, including a nested parallel loop.
  bool run_one_queued_task();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
};

}  // namespace choreo::util
