#include "sketch/incremental.h"

#include <algorithm>
#include <utility>

#include "sketch/signature_matrix.h"
#include "sketch/sketch_kernels.h"

namespace sans {
namespace {

// The sketch of `cardinalities.size()` columns whose ascending heap
// values `values(c)` yields. Distinct rows of one column always hash to
// distinct values: splitmix64 is a bijection, and the clamp's only
// collision (UINT64_MAX onto UINT64_MAX - 1) needs two row ids
// 0xe251b3f6d18f1f94 apart, more than 32-bit RowIds can be. The dedup
// only guards against a row id that AddRow receives twice, keeping the
// "sample of distinct rows" semantics of Proposition 2.
template <typename ValuesFn>
KMinHashSketch ToSketch(int k, const std::vector<uint64_t>& cardinalities,
                        const ValuesFn& values) {
  KMinHashSketch sketch(k, static_cast<ColumnId>(cardinalities.size()));
  for (ColumnId c = 0; c < sketch.num_cols(); ++c) {
    std::vector<uint64_t> signature = values(c);
    signature.erase(std::unique(signature.begin(), signature.end()),
                    signature.end());
    SANS_CHECK(sketch.SetColumn(c, std::move(signature), cardinalities[c])
                   .ok());
  }
  return sketch;
}

}  // namespace

IncrementalKMinHashBuilder::IncrementalKMinHashBuilder(
    const KMinHashConfig& config, ColumnId num_cols)
    : config_(config), hasher_(config.seed) {
  SANS_CHECK(config.Validate().ok());
  heaps_.reserve(num_cols);
  for (ColumnId c = 0; c < num_cols; ++c) {
    heaps_.emplace_back(static_cast<size_t>(config.k));
  }
  cardinalities_.assign(num_cols, 0);
}

Status IncrementalKMinHashBuilder::AddRow(
    RowId row, std::span<const ColumnId> columns) {
  for (ColumnId c : columns) {
    if (c >= num_cols()) {
      return Status::OutOfRange("column id exceeds builder width");
    }
  }
  row_.Clear();
  row_.Append(row, columns);
  Process(row_);
  return Status::OK();
}

void IncrementalKMinHashBuilder::Process(const RowBlock& block) {
  keys_.clear();
  for (size_t i = 0; i < block.size(); ++i) {
    if (!block.columns(i).empty()) keys_.push_back(block.row(i));
  }
  HashBlockClamped(hasher_, keys_, &values_);
  size_t next = 0;
  for (size_t i = 0; i < block.size(); ++i) {
    const std::span<const ColumnId> columns = block.columns(i);
    if (columns.empty()) continue;
    const uint64_t value = values_[next++];
    for (ColumnId c : columns) {
      heaps_[c].Offer(value);
      ++cardinalities_[c];
    }
  }
  rows_ingested_ += block.size();
}

Status IncrementalKMinHashBuilder::AddAll(RowStream* rows) {
  if (rows->num_cols() > num_cols()) {
    return Status::OutOfRange("stream is wider than the builder");
  }
  SANS_RETURN_IF_ERROR(rows->Reset());
  return ScanRowBlocks(rows, ExecutionConfig().block_rows,
                       [this](RowBlock& block) {
                         Process(block);
                         return Status::OK();
                       });
}

Status IncrementalKMinHashBuilder::Merge(IncrementalKMinHashBuilder& other) {
  if (other.config_.k != config_.k || other.config_.seed != config_.seed) {
    return Status::InvalidArgument("builders must share k and seed to merge");
  }
  if (other.num_cols() != num_cols()) {
    return Status::InvalidArgument("builders must share the column width");
  }
  for (ColumnId c = 0; c < num_cols(); ++c) {
    // Ascending offers: once the heap rejects one value it rejects every
    // later one, and the heap ends with the k smallest of the multiset
    // union, the same values a single heap over both row sets keeps.
    for (uint64_t value : other.heaps_[c].TakeSortedValues()) {
      if (!heaps_[c].Offer(value)) break;
    }
    cardinalities_[c] += other.cardinalities_[c];
  }
  other.cardinalities_.assign(other.num_cols(), 0);
  rows_ingested_ += other.rows_ingested_;
  other.rows_ingested_ = 0;
  return Status::OK();
}

KMinHashSketch IncrementalKMinHashBuilder::Snapshot() const {
  return ToSketch(config_.k, cardinalities_,
                  [this](ColumnId c) { return heaps_[c].SortedValues(); });
}

KMinHashSketch IncrementalKMinHashBuilder::Take() {
  KMinHashSketch sketch =
      ToSketch(config_.k, cardinalities_,
               [this](ColumnId c) { return heaps_[c].TakeSortedValues(); });
  heaps_.clear();
  cardinalities_.clear();
  return sketch;
}

}  // namespace sans
