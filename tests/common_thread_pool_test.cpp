#include "common/thread_pool.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace qvg {
namespace {

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubrangeRespectsBounds) {
  ThreadPool pool(2);
  std::vector<int> hits(100, 0);
  std::mutex m;
  pool.parallel_for(10, 60, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(m);
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i], i >= 10 && i < 60 ? 1 : 0) << "index " << i;
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(0);  // may still spawn workers on multicore hosts
  ThreadPool serial_pool{1};
  long sum = 0;  // no synchronization: must be safe if chunks run one at a time
  std::mutex m;
  serial_pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(m);
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<double> values(10000);
  std::iota(values.begin(), values.end(), 0.0);
  std::vector<double> partial(values.size(), 0.0);
  pool.parallel_for(0, values.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) partial[i] = values[i] * 2.0;
  });
  double sum = 0.0;
  for (double v : partial) sum += v;
  EXPECT_DOUBLE_EQ(sum, 9999.0 * 10000.0);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t lo, std::size_t hi) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 16,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 0) throw Error("boom");
                        }),
      Error);
  // Pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 10, [&](std::size_t ilo, std::size_t ihi) {
        inner_total.fetch_add(static_cast<int>(ihi - ilo));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(ThreadPoolTest, PostedTaskParallelForFansOutAcrossWorkers) {
  // The cooperative-scheduler guarantee behind async-job parallelism: a
  // parallel_for issued from *inside a posted task* must fan out across the
  // pool's idle workers, not degrade to an inline serial loop on the one
  // worker running the task. Chunk 0 (claimed first, by the task's own
  // participation loop) blocks until some other thread has started a chunk —
  // impossible when the loop runs inline-serial, immediate when a second
  // worker helps. The timed wait turns a regression into a clean failure
  // instead of a hang.
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool other_chunk_started = false;
  bool fan_out_observed = false;
  std::condition_variable done_cv;
  bool task_done = false;

  pool.post([&] {
    pool.parallel_for(
        0, 2,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            std::unique_lock<std::mutex> lock(m);
            if (i == 0) {
              fan_out_observed = cv.wait_for(
                  lock, std::chrono::seconds(10),
                  [&] { return other_chunk_started; });
            } else {
              other_chunk_started = true;
              cv.notify_all();
            }
          }
        },
        /*min_chunk=*/1);
    std::lock_guard<std::mutex> lock(m);
    task_done = true;
    done_cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(done_cv.wait_for(lock, std::chrono::seconds(20),
                               [&] { return task_done; }));
  EXPECT_TRUE(fan_out_observed);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersShareThePool) {
  // Several range jobs may be active at once (concurrent callers, or posted
  // tasks fanning out); each caller participates in its own job and both
  // must cover their ranges exactly once.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits_a(500), hits_b(500);
  std::thread other([&] {
    pool.parallel_for(0, hits_b.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) hits_b[i].fetch_add(1);
    });
  });
  pool.parallel_for(0, hits_a.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits_a[i].fetch_add(1);
  });
  other.join();
  for (const auto& h : hits_a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : hits_b) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForInsideChunkOfPostedTaskRunsInline) {
  // The depth guard survives exactly where it prevents deadlock: inside a
  // running chunk. A task's parallel_for fans out; a parallel_for inside one
  // of *its chunks* runs inline on that thread.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  pool.post([&] {
    pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        pool.parallel_for(0, 10, [&](std::size_t ilo, std::size_t ihi) {
          inner_total.fetch_add(static_cast<int>(ihi - ilo));
        });
      }
    });
    std::lock_guard<std::mutex> lock(m);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(20), [&] { return done; }));
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(ThreadPoolTest, ParallelismKillSwitchForcesSerial) {
  set_parallelism_enabled(false);
  long sum = 0;  // unsynchronized on purpose: must be serial now
  parallel_for_rows(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<long>(i);
  });
  set_parallelism_enabled(true);
  EXPECT_EQ(sum, 499500);
}

TEST(ThreadPoolTest, GlobalPoolHasAtLeastOneThread) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPoolTest, QvgThreadsEnvOverridesAutoSize) {
  // QVG_THREADS names the total thread count (workers + caller), so that
  // `QVG_THREADS=4 ./build/paper_table1` means four threads regardless of
  // core count.
  ASSERT_EQ(setenv("QVG_THREADS", "3", /*overwrite=*/1), 0);
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 3u);
  }
  ASSERT_EQ(setenv("QVG_THREADS", "1", 1), 0);
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
  }
  // Malformed or non-positive values fall back to hardware sizing.
  ASSERT_EQ(setenv("QVG_THREADS", "zero", 1), 0);
  {
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
  }
  ASSERT_EQ(unsetenv("QVG_THREADS"), 0);
}

TEST(ThreadPoolTest, ExplicitCountIgnoresQvgThreadsEnv) {
  ASSERT_EQ(setenv("QVG_THREADS", "7", 1), 0);
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 3u);  // 2 workers + caller
  ASSERT_EQ(unsetenv("QVG_THREADS"), 0);
}

}  // namespace
}  // namespace qvg
