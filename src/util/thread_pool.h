// Fixed-size thread pool shared by all parallel mining phases.
//
// The pool is deliberately simple: a mutex-protected FIFO task queue
// and N worker threads, no work stealing. Mining work is coarse
// (row blocks, probe ranges, LSH bands), so queue contention is
// negligible and the simple design keeps the determinism story easy
// to audit.
//
// `ExecutionConfig` is the single knob bundle plumbed from the CLI
// through `PipelineRunner` and the miners down to the block pipeline.
// Results are bit-identical for every `num_threads` (per-worker
// partials are merged deterministically), so execution knobs are
// deliberately excluded from checkpoint fingerprints: a run
// checkpointed at one thread count may resume at another.

#ifndef SANS_UTIL_THREAD_POOL_H_
#define SANS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace sans {

// Knobs of the parallel execution engine. `num_threads == 1` is the
// engine's one-worker case: the same scan loop and accumulators run
// on the calling thread, with no pool and no queue.
struct ExecutionConfig {
  // Worker threads for the row fan-out in phases 1/3 and the probe
  // ranges / bands in phase 2.
  int num_threads = 1;
  // Rows packed into one RowBlock handed to a worker.
  int block_rows = 4096;
  // Blocks buffered between the reader and the workers. Bounds both
  // reader run-ahead (backpressure) and memory: roughly
  // queue_depth * block_rows * average row width.
  int queue_depth = 8;

  Status Validate() const;
};

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task for execution on some worker thread.
  void Submit(std::function<void()> task);

  // Runs body(i) for every i in [0, count), spread across the pool
  // plus the calling thread, and blocks until all claimed indices
  // finish. Indices are claimed in ascending order, so on failure the
  // executed set is always a prefix of [0, count) and the returned
  // error is the one with the lowest index — deterministic regardless
  // of scheduling (given a deterministic body). Remaining indices are
  // skipped once a failure is observed.
  //
  // Must not be called from inside a pool task: a task waiting on its
  // own pool can deadlock once all workers are occupied.
  Status ParallelFor(int64_t count, const std::function<Status(int64_t)>& body);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Creates a pool when `config` asks for parallelism; returns nullptr
// for num_threads <= 1, which every engine entry point treats as one
// worker on the calling thread.
std::unique_ptr<ThreadPool> MaybeCreatePool(const ExecutionConfig& config);

// Workers a pool offers: its thread count, or 1 without a pool.
int PoolWorkers(const ThreadPool* pool);

// pool->ParallelFor(count, body), or, without a pool, body(0), ...,
// body(count - 1) on the calling thread up to the first error.
Status ParallelFor(ThreadPool* pool, int64_t count,
                   const std::function<Status(int64_t)>& body);

}  // namespace sans

#endif  // SANS_UTIL_THREAD_POOL_H_
