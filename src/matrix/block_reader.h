// Single-scan block pipeline: one reader thread scans a
// RowStreamSource exactly once, packs rows into fixed-size RowBlocks
// (contiguous column-id storage, no per-row allocation) and hands
// them to pool workers through a bounded MPMC queue with
// backpressure. ScanRowBlocks is the only loop that turns rows into
// blocks; one worker consumes them inline, with no queue.
//
// Determinism contract: on success every row is delivered to exactly
// one worker exactly once, so any consumer that accumulates
// per-worker partials mergeable by a commutative, associative
// operation (element-wise min for min-hash signatures, bottom-k
// multiset union for K-MH sketches, additive counters for
// verification) reproduces the one-worker result bit for bit when the
// partials are merged in worker-id order.

#ifndef SANS_MATRIX_BLOCK_READER_H_
#define SANS_MATRIX_BLOCK_READER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/types.h"
#include "matrix/row_stream.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

// A packed batch of rows: row ids plus all column ids concatenated
// into one contiguous vector, sliced per row by an offset table.
class RowBlock {
 public:
  void Append(RowId row, std::span<const ColumnId> columns) {
    rows_.push_back(row);
    columns_.insert(columns_.end(), columns.begin(), columns.end());
    offsets_.push_back(columns_.size());
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  RowId row(size_t i) const { return rows_[i]; }
  std::span<const ColumnId> columns(size_t i) const {
    return std::span<const ColumnId>(columns_.data() + offsets_[i],
                                     offsets_[i + 1] - offsets_[i]);
  }

  void Clear() {
    rows_.clear();
    columns_.clear();
    offsets_.assign(1, 0);
  }

 private:
  std::vector<RowId> rows_;
  std::vector<size_t> offsets_ = {0};
  std::vector<ColumnId> columns_;
};

// Bounded MPMC queue of RowBlocks. The producer blocks while the
// queue is full (backpressure); consumers block while it is empty.
// Close() signals end of input: consumers drain the remainder and
// then Pop returns false. Abort() is the failure path: it unblocks
// everyone immediately and discards queued blocks.
class BlockQueue {
 public:
  explicit BlockQueue(size_t capacity) : capacity_(capacity) {}

  // Returns false if the queue was aborted (block dropped).
  bool Push(RowBlock&& block);
  // Returns false once the queue is closed and drained, or aborted.
  bool Pop(RowBlock* out);
  void Close();
  void Abort();

  // Optional instrumentation (either may be null): `depth` follows the
  // queued block count, `stalls` counts producer waits on a full queue
  // (backpressure events).
  void SetInstruments(Gauge* depth, Counter* stalls) {
    depth_ = depth;
    stalls_ = stalls;
  }

 private:
  const size_t capacity_;
  Gauge* depth_ = nullptr;
  Counter* stalls_ = nullptr;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<RowBlock> blocks_;
  bool closed_ = false;
  bool aborted_ = false;
};

// Workers of a ForEachRowBlock run: `config.num_threads` on a pool, 1
// without one. Size per-worker state with it.
int BlockWorkers(const ExecutionConfig& config, const ThreadPool* pool);

// Reads `stream` to its end as RowBlocks of up to `block_rows` rows
// (empty rows included) and hands each to `sink`, which may move from
// it; counts the rows and blocks. Returns the first `sink` error, else
// the stream status (a failed scan drops its last partial block).
Status ScanRowBlocks(RowStream* stream, size_t block_rows,
                     const std::function<Status(RowBlock& block)>& sink);

// Scans `source` once on the calling thread and fans the rows out to
// BlockWorkers(config, pool) consumers running on `pool`, as
// RowBlocks of up to `config.block_rows` rows. `consume(worker,
// block)` runs concurrently across workers, but each worker id sees
// its own calls sequentially, so per-worker state needs no locking.
// Empty rows are included in blocks; consumers that ignore them must
// skip them.
//
// With one worker the blocks are consumed inline on the calling
// thread with worker id 0 (no queue, no threads).
//
// Error priority is deterministic: a reader error (stream open or a
// truncated/failed scan) wins over worker errors; worker errors are
// reported in worker-id order. Any error aborts the pipeline early.
Status ForEachRowBlock(
    const RowStreamSource& source, const ExecutionConfig& config,
    ThreadPool* pool,
    const std::function<Status(int worker, const RowBlock& block)>& consume);

}  // namespace sans

#endif  // SANS_MATRIX_BLOCK_READER_H_
