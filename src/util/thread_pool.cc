#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace sans {

Status ExecutionConfig::Validate() const {
  if (num_threads < 1) {
    return Status::InvalidArgument("execution.num_threads must be >= 1");
  }
  if (block_rows < 1) {
    return Status::InvalidArgument("execution.block_rows must be >= 1");
  }
  if (queue_depth < 1) {
    return Status::InvalidArgument("execution.queue_depth must be >= 1");
  }
  return Status::OK();
}

ThreadPool::ThreadPool(int num_threads) {
  SANS_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SANS_CHECK(!stop_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stop_ set and queue drained
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

namespace {

// Shared state of one ParallelFor invocation. Lives on the caller's
// stack; the caller blocks until every helper task has finished, so
// reference captures in the helper lambdas stay valid.
struct ParallelForState {
  std::atomic<int64_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done_cv;
  int pending_helpers = 0;
  // Error with the lowest index seen so far (guarded by mu).
  Status error;
  int64_t error_index = -1;
};

}  // namespace

Status ThreadPool::ParallelFor(int64_t count,
                               const std::function<Status(int64_t)>& body) {
  if (count <= 0) {
    return Status::OK();
  }
  ParallelForState state;
  auto run = [count, &body, &state] {
    for (;;) {
      const int64_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || state.failed.load(std::memory_order_acquire)) {
        return;
      }
      Status status = body(i);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(state.mu);
        if (state.error_index < 0 || i < state.error_index) {
          state.error = std::move(status);
          state.error_index = i;
        }
        state.failed.store(true, std::memory_order_release);
      }
    }
  };

  // The caller participates, so at most count - 1 helpers are useful.
  const int helpers = static_cast<int>(
      std::min<int64_t>(count - 1, static_cast<int64_t>(num_threads())));
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.pending_helpers = helpers;
  }
  for (int h = 0; h < helpers; ++h) {
    Submit([&run, &state] {
      run();
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.pending_helpers == 0) {
        state.done_cv.notify_all();
      }
    });
  }
  run();
  std::unique_lock<std::mutex> lock(state.mu);
  state.done_cv.wait(lock, [&state] { return state.pending_helpers == 0; });
  if (state.error_index >= 0) {
    return state.error;
  }
  return Status::OK();
}

std::unique_ptr<ThreadPool> MaybeCreatePool(const ExecutionConfig& config) {
  if (config.num_threads <= 1) {
    return nullptr;
  }
  return std::make_unique<ThreadPool>(config.num_threads);
}

int PoolWorkers(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->num_threads();
}

Status ParallelFor(ThreadPool* pool, int64_t count,
                   const std::function<Status(int64_t)>& body) {
  if (pool != nullptr) return pool->ParallelFor(count, body);
  for (int64_t i = 0; i < count; ++i) SANS_RETURN_IF_ERROR(body(i));
  return Status::OK();
}

}  // namespace sans
