#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

namespace sans {
namespace {

TEST(ExecutionConfigTest, ValidateCatchesBadFields) {
  ExecutionConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_threads = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = ExecutionConfig();
  config.block_rows = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = ExecutionConfig();
  config.queue_depth = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ExecutionConfigTest, MaybeCreatePoolReturnsNullForSequential) {
  ExecutionConfig config;
  config.num_threads = 1;
  EXPECT_EQ(MaybeCreatePool(config), nullptr);
  config.num_threads = 3;
  auto pool = MaybeCreatePool(config);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 3);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    // Notify under the lock: once the wait below returns, no task
    // touches `cv` again, so it may go out of scope.
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (counter.fetch_add(1) + 1 == kTasks) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return counter.load() == kTasks; });
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  Status status = pool.ParallelFor(kCount, [&](int64_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  for (int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesDegenerateCounts) {
  ThreadPool pool(3);
  EXPECT_TRUE(pool.ParallelFor(0, [](int64_t) {
                    return Status::InvalidArgument("never called");
                  })
                  .ok());
  std::atomic<int> calls{0};
  EXPECT_TRUE(pool.ParallelFor(1, [&](int64_t) {
                    calls.fetch_add(1);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForReturnsLowestIndexError) {
  ThreadPool pool(4);
  // Every odd index fails; the reported error must be the one from the
  // lowest failing index regardless of execution interleaving.
  for (int trial = 0; trial < 20; ++trial) {
    Status status = pool.ParallelFor(64, [&](int64_t i) {
      if (i % 2 == 1) {
        return Status::Internal("fail@" + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "fail@1");
  }
}

TEST(ThreadPoolTest, ParallelForStopsClaimingAfterFailure) {
  ThreadPool pool(2);
  std::atomic<int64_t> max_seen{-1};
  Status status = pool.ParallelFor(1000000, [&](int64_t i) {
    int64_t prev = max_seen.load();
    while (prev < i && !max_seen.compare_exchange_weak(prev, i)) {
    }
    return Status::Internal("early");
  });
  EXPECT_FALSE(status.ok());
  // Claims are sequential, so a failure at the front keeps the
  // executed set a short prefix of the range.
  EXPECT_LT(max_seen.load(), 1000000);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossParallelForCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int64_t> sum{0};
    ASSERT_TRUE(pool.ParallelFor(100, [&](int64_t i) {
                      sum.fetch_add(i);
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(sum.load(), 4950);
  }
}

}  // namespace
}  // namespace sans
