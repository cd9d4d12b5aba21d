#include "common/thread_pool.h"

namespace recycledb {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  RDB_CHECK(num_threads > 0);
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return false;
    queue_.push_back(std::move(task));
    if (threads_.empty()) {
      threads_.reserve(num_threads_);
      for (int i = 0; i < num_threads_; ++i) {
        threads_.emplace_back([this] { WorkerLoop(); });
      }
    }
  }
  work_cv_.notify_one();
  return true;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // Workers only exit once the queue has drained (see WorkerLoop), so
  // joining here is the drain barrier.
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace recycledb
