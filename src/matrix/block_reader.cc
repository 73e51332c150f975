#include "matrix/block_reader.h"

#include <memory>
#include <utility>

namespace sans {

bool BlockQueue::Push(RowBlock&& block) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stalls_ != nullptr && !aborted_ && blocks_.size() >= capacity_) {
    stalls_->Increment();  // producer is about to wait: backpressure
  }
  not_full_.wait(lock,
                 [this] { return aborted_ || blocks_.size() < capacity_; });
  if (aborted_) {
    return false;
  }
  SANS_CHECK(!closed_);
  blocks_.push_back(std::move(block));
  if (depth_ != nullptr) depth_->Set(static_cast<int64_t>(blocks_.size()));
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool BlockQueue::Pop(RowBlock* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock,
                  [this] { return aborted_ || closed_ || !blocks_.empty(); });
  if (aborted_ || blocks_.empty()) {
    return false;  // aborted, or closed and drained
  }
  *out = std::move(blocks_.front());
  blocks_.pop_front();
  if (depth_ != nullptr) depth_->Set(static_cast<int64_t>(blocks_.size()));
  lock.unlock();
  not_full_.notify_one();
  return true;
}

void BlockQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

void BlockQueue::Abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    blocks_.clear();
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

int BlockWorkers(const ExecutionConfig& config, const ThreadPool* pool) {
  return pool == nullptr ? 1 : config.num_threads;
}

Status ScanRowBlocks(RowStream* stream, size_t block_rows,
                     const std::function<Status(RowBlock& block)>& sink) {
  // Handles resolved once per process; hot-path updates are relaxed
  // atomic adds.
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* const rows_scanned =
      registry.GetCounter("sans_scan_rows_total");
  static Counter* const blocks_produced =
      registry.GetCounter("sans_pipeline_blocks_produced_total");
  RowBlock block;
  const auto emit = [&]() -> Status {
    rows_scanned->Increment(block.size());
    blocks_produced->Increment();
    const Status status = sink(block);
    block.Clear();
    return status;
  };
  RowView view;
  while (stream->Next(&view)) {
    block.Append(view.row, view.columns);
    if (block.size() >= block_rows) SANS_RETURN_IF_ERROR(emit());
  }
  SANS_RETURN_IF_ERROR(stream->stream_status());
  return block.empty() ? Status::OK() : emit();
}

Status ForEachRowBlock(
    const RowStreamSource& source, const ExecutionConfig& config,
    ThreadPool* pool,
    const std::function<Status(int worker, const RowBlock& block)>& consume) {
  SANS_RETURN_IF_ERROR(config.Validate());
  SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
  const size_t block_rows = static_cast<size_t>(config.block_rows);
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* const blocks_consumed =
      registry.GetCounter("sans_pipeline_blocks_consumed_total");
  static Gauge* const queue_depth =
      registry.GetGauge("sans_pipeline_queue_depth");
  static Counter* const stalls =
      registry.GetCounter("sans_pipeline_backpressure_stalls_total");

  const int workers = BlockWorkers(config, pool);
  if (workers == 1) {
    return ScanRowBlocks(stream.get(), block_rows, [&](RowBlock& block) {
      blocks_consumed->Increment();
      return consume(0, block);
    });
  }

  BlockQueue queue(static_cast<size_t>(config.queue_depth));
  queue.SetInstruments(queue_depth, stalls);
  std::vector<Status> worker_status(workers);
  std::mutex done_mu;
  std::condition_variable done_cv;
  int pending = workers;
  for (int w = 0; w < workers; ++w) {
    pool->Submit([&, w] {
      RowBlock block;
      while (queue.Pop(&block)) {
        blocks_consumed->Increment();
        worker_status[w] = consume(w, block);
        if (!worker_status[w].ok()) {
          queue.Abort();
          break;
        }
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (--pending == 0) done_cv.notify_all();
    });
  }

  // The calling thread is the reader: the only thread touching the
  // stream, so the source is scanned exactly once, and its blocks come
  // from the caller's allocator arena, which the previous phase freed.
  // A failed Push means a failing worker aborted the queue; that
  // worker's error is the one to report.
  bool aborted = false;
  Status reader_status =
      ScanRowBlocks(stream.get(), block_rows, [&](RowBlock& block) {
        if (queue.Push(std::move(block))) return Status::OK();
        aborted = true;
        return Status::Internal("block queue aborted");
      });
  if (aborted) reader_status = Status::OK();
  if (reader_status.ok()) {
    queue.Close();
  } else {
    queue.Abort();
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&pending] { return pending == 0; });
  }
  SANS_RETURN_IF_ERROR(reader_status);
  for (const Status& status : worker_status) {
    SANS_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

}  // namespace sans
