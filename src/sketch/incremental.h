// Incremental and mergeable bottom-k sketching. The paper's data
// sources are growing logs (nine days of web hits, a news feed);
// bottom-k sketches absorb new rows in O(log k) per 1-entry and merge
// across disjoint row partitions (the combined bottom-k is the k
// smallest of the union, cardinalities add) — so sketches can be
// maintained online or built distributed and combined, without ever
// rescanning history. Every K-MH scan runs on it: one builder per
// pipeline worker, merged in worker-id order.

#ifndef SANS_SKETCH_INCREMENTAL_H_
#define SANS_SKETCH_INCREMENTAL_H_

#include <span>
#include <vector>

#include "core/types.h"
#include "matrix/block_reader.h"
#include "matrix/row_stream.h"
#include "sketch/k_min_hash.h"
#include "util/bounded_heap.h"
#include "util/status.h"

namespace sans {

/// Maintains per-column bottom-k heaps over an append-only row
/// stream. Thread-compatible (external synchronization required for
/// concurrent AddRow calls).
class IncrementalKMinHashBuilder {
 public:
  /// The config's seed defines the row-hash function; builders that
  /// will be merged MUST share the same config (checked by Merge).
  IncrementalKMinHashBuilder(const KMinHashConfig& config,
                             ColumnId num_cols);

  IncrementalKMinHashBuilder(const IncrementalKMinHashBuilder&) = delete;
  IncrementalKMinHashBuilder& operator=(const IncrementalKMinHashBuilder&) =
      delete;
  IncrementalKMinHashBuilder(IncrementalKMinHashBuilder&&) = default;
  IncrementalKMinHashBuilder& operator=(IncrementalKMinHashBuilder&&) =
      default;

  ColumnId num_cols() const { return static_cast<ColumnId>(heaps_.size()); }
  const KMinHashConfig& config() const { return config_; }
  /// Rows ingested so far (directly or via merges).
  uint64_t rows_ingested() const { return rows_ingested_; }

  /// Ingests one row. Row ids must be unique across the builder's
  /// lifetime (and across all builders later merged together) — the
  /// id is the hash key, so a repeated id silently double-counts
  /// cardinalities. Column ids must be < num_cols(); a row with any
  /// other id is rejected whole and leaves the builder unchanged.
  Status AddRow(RowId row, std::span<const ColumnId> columns);

  /// Ingests a block of rows: the non-empty rows' ids are hashed as one
  /// clamped batch. Column ids must be < num_cols() (unchecked; scans
  /// of a table at most this wide guarantee it).
  void Process(const RowBlock& block);

  /// Ingests an entire stream (rewound first). The stream's table
  /// must be at most num_cols() wide.
  Status AddAll(RowStream* rows);

  /// Folds another builder (over a disjoint row set) into this one,
  /// freeing the other's values as it goes and leaving it empty.
  /// Requires identical k, seed, and width; on a mismatch
  /// neither builder changes.
  Status Merge(IncrementalKMinHashBuilder& other);

  /// Materializes the current state as an immutable sketch. The
  /// builder remains usable; snapshots are O(m·k).
  KMinHashSketch Snapshot() const;

  /// Hands the state over as a sketch without copying the heaps; the
  /// builder is spent.
  KMinHashSketch Take();

 private:
  KMinHashConfig config_;
  RowHasher hasher_;
  std::vector<BoundedMaxHeap<uint64_t>> heaps_;
  std::vector<uint64_t> cardinalities_;
  uint64_t rows_ingested_ = 0;
  // Scratch: AddRow's one-row block, and the non-empty row ids of a
  // block with their hashes.
  RowBlock row_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> values_;
};

}  // namespace sans

#endif  // SANS_SKETCH_INCREMENTAL_H_
