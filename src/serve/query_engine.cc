#include "serve/query_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sketch/estimators.h"
#include "util/bounded_heap.h"

namespace sans {

QueryEngine::QueryEngine(std::shared_ptr<const SimilarityIndex> index)
    : index_(std::move(index)) {
  SANS_CHECK(index_ != nullptr);
}

namespace {

Status ValidateColumn(const SimilarityIndex& index, ColumnId col,
                      const char* what) {
  if (col >= index.num_cols()) {
    return Status::InvalidArgument(std::string(what) + " column " +
                                   std::to_string(col) +
                                   " out of range (num_cols=" +
                                   std::to_string(index.num_cols()) + ")");
  }
  return Status::OK();
}

/// Offers `best` what a linear scan calling `consider` on every column
/// would leave in it, without the scan: the index's sketch-value
/// postings give |SIG_q ∩ SIG_c| for every column at once (Hash-Count,
/// paper Section 3.1, for one query), and only columns whose bound can
/// still enter the heap are reranked.
template <typename Consider>
void ExactSearch(const SimilarityIndex& index, ColumnId col,
                 double min_similarity, const Consider& consider,
                 BoundedMaxHeap<Neighbor>* best) {
  // Per-thread scratch: the engine is shared by server workers and
  // BatchTopK. `hits` is all zero between calls and grows to the
  // current index's column count (a reload may change it).
  thread_local std::vector<uint32_t> hits;
  thread_local std::vector<Neighbor> bounds;
  const ColumnId m = index.num_cols();
  if (hits.size() < m) hits.resize(m, 0);

  // T_c = |SIG_q ∩ SIG_c| for every column sharing a sketch value.
  const auto query_sketch = index.Sketch(col);
  bounds.clear();
  for (size_t i = 0; i < query_sketch.size(); ++i) {
    for (ColumnId other : index.Postings(col, i)) {
      if (other != col && hits[other]++ == 0) {
        bounds.push_back(Neighbor{other, 0.0});
      }
    }
  }
  // |SIG_{q∪c}| = min(k, |SIG_q| + |SIG_c| - T_c) exactly, and the
  // estimate's numerator is at most T_c, so T_c / |SIG_{q∪c}| bounds
  // the estimate from above.
  const uint64_t sketch_k = static_cast<uint64_t>(index.sketch_k());
  for (Neighbor& candidate : bounds) {
    const uint64_t shared = hits[candidate.col];
    const uint64_t union_size = std::min<uint64_t>(
        sketch_k,
        query_sketch.size() + index.Sketch(candidate.col).size() - shared);
    candidate.similarity =
        static_cast<double>(shared) / static_cast<double>(union_size);
  }

  // Rerank best bound first (Neighbor order: bound desc, column asc).
  // Stop once no later candidate can pass the threshold or enter the
  // heap: its estimate is at most its bound, and ties go to the lower
  // column, which came first.
  const auto worse = [](const Neighbor& a, const Neighbor& b) { return b < a; };
  std::make_heap(bounds.begin(), bounds.end(), worse);
  for (auto end = bounds.end(); end != bounds.begin(); --end) {
    const Neighbor& top = bounds.front();
    if (top.similarity < min_similarity) break;
    if (!best->WouldAdmit(top)) break;
    consider(top.col);
    std::pop_heap(bounds.begin(), end, worse);
  }

  // Every other non-empty column shares no sketch value, so its
  // estimate is exactly 0.0; among equal estimates the lower column
  // wins, so the first ones in id order are all that can enter.
  if (!(0.0 < min_similarity)) {
    for (ColumnId other = 0; other < m; ++other) {
      if (hits[other] != 0 || other == col ||
          index.Cardinality(other) == 0) {
        continue;
      }
      const Neighbor zero{other, 0.0};
      if (!best->WouldAdmit(zero)) break;
      best->Offer(zero);
    }
  }
  for (const Neighbor& candidate : bounds) hits[candidate.col] = 0;
}

}  // namespace

Result<std::vector<Neighbor>> QueryEngine::TopK(ColumnId col, int k,
                                                double min_similarity,
                                                TopKInfo* info) const {
  SANS_RETURN_IF_ERROR(ValidateColumn(*index_, col, "query"));
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(k));
  }
  TopKInfo local_info;
  if (info == nullptr) info = &local_info;
  *info = TopKInfo{};

  const auto query_sketch = index_->Sketch(col);
  const int sketch_k = index_->sketch_k();

  // Collect distinct bucket-mates across all l bands.
  std::vector<ColumnId> candidates;
  for (int band = 0; band < index_->num_bands(); ++band) {
    const auto bucket = index_->Bucket(band, col);
    candidates.insert(candidates.end(), bucket.begin(), bucket.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::erase(candidates, col);
  info->bucket_candidates = candidates.size();

  // When the filter yields fewer candidates than requested, widen to
  // every column so small datasets and sparse buckets still get k
  // answers. Empty columns can never be similar to anything; skip them.
  info->fallback_scan =
      candidates.size() < static_cast<size_t>(k) &&
      static_cast<uint64_t>(candidates.size()) + 1 < index_->num_cols();

  BoundedMaxHeap<Neighbor> best(static_cast<size_t>(k));
  const auto consider = [&](ColumnId other) {
    if (other == col) return;
    if (index_->Cardinality(other) == 0) return;
    ++info->reranked;
    const double similarity =
        EstimateSimilarityUnbiased(query_sketch, index_->Sketch(other),
                                   sketch_k);
    if (similarity < min_similarity) return;
    best.Offer(Neighbor{other, similarity});
  };

  if (info->fallback_scan) {
    ExactSearch(*index_, col, min_similarity, consider, &best);
  } else {
    for (ColumnId other : candidates) consider(other);
  }
  // Neighbor's operator< ranks "more similar" as smaller, so the k
  // smallest retained values come out best-first.
  return best.TakeSortedValues();
}

Result<double> QueryEngine::PairSimilarity(ColumnId a, ColumnId b) const {
  SANS_RETURN_IF_ERROR(ValidateColumn(*index_, a, "first"));
  SANS_RETURN_IF_ERROR(ValidateColumn(*index_, b, "second"));
  if (a == b) return 1.0;
  return EstimateSimilarityUnbiased(index_->Sketch(a), index_->Sketch(b),
                                    index_->sketch_k());
}

Result<std::vector<std::vector<Neighbor>>> QueryEngine::BatchTopK(
    std::span<const ColumnId> cols, int k, double min_similarity,
    ThreadPool* pool) const {
  std::vector<std::vector<Neighbor>> results(cols.size());
  const auto run_one = [&](int64_t i) -> Status {
    SANS_ASSIGN_OR_RETURN(results[i],
                          TopK(cols[i], k, min_similarity, nullptr));
    return Status::OK();
  };
  if (pool == nullptr) {
    for (int64_t i = 0; i < static_cast<int64_t>(cols.size()); ++i) {
      SANS_RETURN_IF_ERROR(run_one(i));
    }
  } else {
    SANS_RETURN_IF_ERROR(
        pool->ParallelFor(static_cast<int64_t>(cols.size()), run_one));
  }
  return results;
}

}  // namespace sans
