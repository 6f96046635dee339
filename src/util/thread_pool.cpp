#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace choreo::util {

namespace {

/// Per-invocation completion latch for the parallel loops.  The pending
/// count is decremented — and the waiter notified — under the mutex, and
/// the waiter only ever reads the count under the same mutex, so a task
/// finishing last cannot touch the latch after the waiter has observed
/// zero and destroyed it.
struct CompletionLatch {
  std::size_t pending;
  std::mutex mutex;
  std::condition_variable done;

  explicit CompletionLatch(std::size_t count) : pending(count) {}

  void count_down() {
    std::lock_guard lock(mutex);
    --pending;
    done.notify_one();  // notify while holding: see the struct comment
  }

  bool drained() {
    std::lock_guard lock(mutex);
    return pending == 0;
  }

  void wait() {
    std::unique_lock lock(mutex);
    done.wait(lock, [this] { return pending == 0; });
  }
};

/// First-exception capture shared by the chunks of one parallel loop.
struct FailureSlot {
  std::exception_ptr failure;
  std::mutex mutex;

  void capture() {
    std::lock_guard lock(mutex);
    if (!failure) failure = std::current_exception();
  }

  void rethrow_if_set() {
    if (failure) std::rethrow_exception(failure);
  }
};

}  // namespace

ThreadPool::ThreadPool()
    : ThreadPool(std::max(1u, std::thread::hardware_concurrency()) - 1) {}

ThreadPool::ThreadPool(std::size_t worker_count) {
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  wake_.notify_one();
}

bool ThreadPool::run_one_queued_task() {
  std::function<void()> task;
  {
    std::lock_guard lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  return true;
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t lanes = workers_.size() + 1;
  if (lanes == 1 || count == 1) {
    body(0, count);
    return;
  }
  const std::size_t chunks = std::min(lanes, count);
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;

  CompletionLatch latch(chunks - 1);
  FailureSlot failure;
  auto run_chunk = [&](std::size_t begin, std::size_t end) {
    try {
      body(begin, end);
    } catch (...) {
      failure.capture();
    }
  };

  std::size_t begin = 0;
  for (std::size_t chunk = 0; chunk + 1 < chunks; ++chunk) {
    const std::size_t size = base + (chunk < extra ? 1 : 0);
    const std::size_t end = begin + size;
    {
      std::lock_guard lock(mutex_);
      tasks_.push([&, begin, end] {
        run_chunk(begin, end);
        latch.count_down();
      });
    }
    wake_.notify_one();
    begin = end;
  }
  run_chunk(begin, count);  // the calling thread takes the final chunk

  // Help drain while waiting: a queued chunk of this loop — or of a nested
  // parallel loop issued from inside one of our chunks — may sit behind
  // tasks whose own waiters are blocked.  Sleeping here would starve them
  // (the nested-parallel_for deadlock); running queued tasks instead
  // guarantees progress.  Once the queue is empty every chunk of this loop
  // has been claimed by some thread and will complete, so the final latch
  // wait cannot hang.
  while (!latch.drained()) {
    if (run_one_queued_task()) continue;
    latch.wait();
    break;
  }
  failure.rethrow_if_set();
}

void ThreadPool::parallel_for_dynamic(
    std::size_t count, std::size_t grain, std::size_t max_lanes,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunk_count = (count + grain - 1) / grain;
  const std::size_t lanes =
      std::min(max_lanes == 0 ? workers_.size() + 1 : max_lanes, chunk_count);
  if (lanes <= 1) {
    body(0, count);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  CompletionLatch latch(lanes - 1);
  FailureSlot failure;
  auto drain_cursor = [&] {
    for (;;) {
      const std::size_t begin = cursor.fetch_add(grain);
      if (begin >= count) return;
      try {
        body(begin, std::min(begin + grain, count));
      } catch (...) {
        failure.capture();
      }
    }
  };

  // One helper task per extra lane; each pulls chunks from the shared
  // cursor until it runs dry, so lanes that draw cheap chunks immediately
  // steal the next one instead of idling at a static split.  On a
  // workerless pool enqueue() runs the helper inline, which simply drains
  // everything before the calling thread gets its turn — still correct.
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    enqueue([&] {
      drain_cursor();
      latch.count_down();
    });
  }
  drain_cursor();  // the calling thread is a lane too

  // The latch wait: helpers may still be queued behind unrelated tasks (or
  // behind each other on a busy pool), so the calling thread executes
  // queued work while it waits — the only wait that guarantees progress.
  while (!latch.drained()) {
    if (run_one_queued_task()) continue;
    latch.wait();
    break;
  }
  failure.rethrow_if_set();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace choreo::util
