// ThreadPool contract tests: the Shutdown()/drain guarantees and the
// WaitIdle-vs-Submit and destructor-with-queued-work edge cases the
// multi-stream workload driver depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "test_util.h"

namespace recycledb {
namespace {

using recycledb::testing::CountProcessThreads;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&done] { done.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  EXPECT_EQ(pool.num_threads(), 2);
}

TEST(ThreadPoolTest, ConcurrentFirstSubmitsStartExactlyTheConfiguredWorkers) {
  const int before = CountProcessThreads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task to count threads";
  ThreadPool pool(3);
  EXPECT_EQ(CountProcessThreads(), before);  // nothing started yet
  EXPECT_EQ(pool.num_threads(), 3);
  // Eight threads race to be the first submitter.
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> submitters;
  for (int i = 0; i < 8; ++i) {
    submitters.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      EXPECT_TRUE(pool.Submit([&done] { done.fetch_add(1); }));
    });
  }
  go = true;
  for (auto& t : submitters) t.join();
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(CountProcessThreads(), before + 3);
  EXPECT_EQ(pool.num_threads(), 3);
  pool.Shutdown();
  EXPECT_EQ(CountProcessThreads(), before);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  // One worker, many queued tasks: destruction must run every queued task
  // before joining, never drop work.
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.Submit([&done] {
        SleepMs(1);
        done.fetch_add(1);
      }));
    }
    // Destructor fires with most of the queue still pending.
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, ShutdownDrainsThenRejectsSubmit) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit([&done] {
      SleepMs(1);
      done.fetch_add(1);
    }));
  }
  pool.Shutdown();
  EXPECT_EQ(done.load(), 20);  // queued work drained, not dropped
  EXPECT_FALSE(pool.Submit([&done] { done.fetch_add(1); }));
  EXPECT_EQ(done.load(), 20);  // rejected task never ran
  pool.WaitIdle();             // idle after shutdown: returns immediately
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  ASSERT_TRUE(pool.Submit([&done] { done.fetch_add(1); }));
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op
  EXPECT_EQ(done.load(), 1);
  // Destructor after explicit Shutdown must also be safe.
}

TEST(ThreadPoolTest, WaitIdleVsConcurrentSubmit) {
  // WaitIdle racing a live submitter must neither hang nor crash; once
  // the submitter is joined, a final WaitIdle covers everything.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::atomic<bool> submitting{true};
  std::thread submitter([&] {
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    submitting.store(false);
  });
  while (submitting.load()) {
    pool.WaitIdle();  // may observe transient idle points mid-stream
  }
  submitter.join();
  pool.WaitIdle();  // submitter stopped: this one is the full barrier
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPoolTest, ConcurrentSubmittersEachTaskRunsOnce) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(pool.Submit([&done] { done.fetch_add(1); }));
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPoolTest, SubmitDuringShutdownEitherRunsOrIsRejected) {
  // A submitter racing Shutdown: every accepted task must run; rejected
  // submissions must not. The sum of accepted tasks equals executions.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::atomic<int> accepted{0};
  std::thread submitter([&] {
    for (int i = 0; i < 500; ++i) {
      if (pool.Submit([&done] { done.fetch_add(1); })) {
        accepted.fetch_add(1);
      }
    }
  });
  SleepMs(2);
  pool.Shutdown();
  submitter.join();
  EXPECT_EQ(done.load(), accepted.load());
}

}  // namespace
}  // namespace recycledb
