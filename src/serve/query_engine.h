// Query-time similarity answers over a loaded SimilarityIndex.
//
// TopK probes the query column's l band buckets (each bucket-mate is
// a candidate with the P_{r,l} collision probability of Section 4.1),
// reranks the deduplicated candidates with the Theorem 2 unbiased
// estimator over the bottom-k sketches, and keeps the k best through
// util/bounded_heap. When the buckets yield fewer candidates than
// requested — sparse buckets, tiny datasets, or k larger than the
// filter's reach — it answers over every column, exactly as a linear
// scan of all sketches would, but without one: the index's in-memory
// sketch-value postings count T_c = |SIG_q ∩ SIG_c| for every column
// sharing a value with the query (Section 3.1's Hash-Count, per
// query); T_c over the exact Theorem 2 union size bounds each
// estimate from above, so columns are reranked best bound first until
// the bound cannot enter the answer; and columns sharing no value
// estimate exactly 0. PairSimilarity is a point estimate over the two
// sketches. The engine holds only a shared_ptr to the index (the
// search's counters are per-thread scratch), so one engine per
// request (or one per server) are equally correct, and batch queries
// fan out over a ThreadPool with deterministic per-query output.

#ifndef SANS_SERVE_QUERY_ENGINE_H_
#define SANS_SERVE_QUERY_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "serve/similarity_index.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// One TopK answer entry.
struct Neighbor {
  ColumnId col = 0;
  double similarity = 0.0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
  /// Heap/result ordering: "smaller" = more similar, ties broken by
  /// lower column id — so a BoundedMaxHeap's k smallest elements are
  /// the k best neighbors and results are deterministic.
  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.col < b.col;
  }
};

/// Diagnostics of one TopK evaluation (filter efficacy monitoring).
struct TopKInfo {
  /// Distinct candidates the band buckets produced (self excluded).
  size_t bucket_candidates = 0;
  /// True when the buckets gave fewer than k candidates, so the
  /// engine searched every column (through the postings).
  bool fallback_scan = false;
  /// Theorem 2 estimator calls the evaluation made.
  size_t reranked = 0;
};

class QueryEngine {
 public:
  explicit QueryEngine(std::shared_ptr<const SimilarityIndex> index);

  const SimilarityIndex& index() const { return *index_; }

  /// Up to `k` most similar columns to `col`, descending estimated
  /// similarity (ties by column id), excluding `col` itself and
  /// neighbors below `min_similarity`. `info` (optional) receives
  /// evaluation diagnostics.
  Result<std::vector<Neighbor>> TopK(ColumnId col, int k,
                                     double min_similarity = 0.0,
                                     TopKInfo* info = nullptr) const;

  /// Estimated Jaccard similarity of two columns (exact when the
  /// union of the two columns has at most sketch_k rows).
  Result<double> PairSimilarity(ColumnId a, ColumnId b) const;

  /// TopK for every query column, fanned out over `pool` (sequential
  /// when null). Output order matches `cols`; each entry is exactly
  /// what the sequential TopK would return.
  Result<std::vector<std::vector<Neighbor>>> BatchTopK(
      std::span<const ColumnId> cols, int k, double min_similarity,
      ThreadPool* pool) const;

 private:
  std::shared_ptr<const SimilarityIndex> index_;
};

}  // namespace sans

#endif  // SANS_SERVE_QUERY_ENGINE_H_
