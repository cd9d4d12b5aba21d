// Fixed-size thread pool used by the multi-stream workload driver.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"

namespace recycledb {

/// A fixed-size thread pool with a FIFO task queue.
///
/// The workload driver submits one task per query stream and bounds the
/// number of concurrently *executing* queries separately (the paper's
/// "Vectorwise was set up to execute 12 queries in parallel").
///
/// The workers start on the first Submit, so a pool that never receives
/// work runs no thread.
///
/// Shutdown contract: `Shutdown()` (also run by the destructor) stops
/// accepting new work, lets the workers DRAIN every task already queued,
/// then joins them — queued work is never silently dropped. `Submit`
/// after shutdown has begun is rejected (returns false). `Shutdown` is
/// idempotent and `WaitIdle` may be called before, during, or after it.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  RDB_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  /// Enqueues a task for execution. Returns false (and does not enqueue)
  /// if Shutdown() has already begun.
  bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing. Tasks
  /// submitted concurrently with the call may or may not be covered; to
  /// quiesce, the caller must stop its submitters first (or Shutdown()).
  void WaitIdle();

  /// Drains all queued tasks, then joins the workers. Idempotent.
  void Shutdown();

  /// The configured worker count, whether or not the workers started yet.
  int num_threads() const { return num_threads_; }

 private:
  void WorkerLoop();

  const int num_threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  /// Empty until the first Submit, which starts all num_threads_ under
  /// mu_.
  std::vector<std::thread> threads_;
  int active_ = 0;
  bool stop_ = false;
};

}  // namespace recycledb
