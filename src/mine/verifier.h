// Phase-3 candidate verification (paper Section 1): "While scanning
// the table data, maintain for each candidate column-pair (c_i, c_j)
// the counts of the number of rows having a 1 in at least one of the
// two columns and also the number of rows having a 1 in both." The
// exact similarity |C_i ∩ C_j| / |C_i ∪ C_j| then prunes every false
// positive, so miners' output contains no false positives by
// construction — only false negatives (pairs phases 1-2 missed).

#ifndef SANS_MINE_VERIFIER_H_
#define SANS_MINE_VERIFIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.h"
#include "matrix/block_reader.h"
#include "matrix/row_stream.h"
#include "util/status.h"

namespace sans {

/// Exact per-candidate counts from one verification scan.
struct VerifiedPair {
  ColumnPair pair;
  uint64_t union_count = 0;
  uint64_t intersection_count = 0;

  double similarity() const {
    return union_count == 0
               ? 0.0
               : static_cast<double>(intersection_count) / union_count;
  }
};

/// The verification accumulator: exact union/intersection counts per
/// candidate over the blocks it is given. Memory: O(#candidates)
/// counters, plus one column→candidate index shared with its forks.
class PairCounter {
 public:
  /// Fails on a pair with equal columns or a column >= num_cols.
  static Result<PairCounter> Create(const std::vector<ColumnPair>& candidates,
                                    ColumnId num_cols);

  /// A zeroed counter sharing the index, for another pipeline worker.
  PairCounter Fork() const;

  void Process(const RowBlock& block);

  /// Adds `other`'s counts to this counter's and frees them.
  void Merge(PairCounter& other);

  /// The counts, in the candidates' order; the counter is spent.
  std::vector<VerifiedPair> Take() { return std::move(counts_); }

 private:
  PairCounter() = default;

  // column -> indices of the candidates containing it.
  std::shared_ptr<const std::vector<std::vector<uint32_t>>> index_;
  std::vector<VerifiedPair> counts_;
  // Per-row scratch: how many of a candidate's two columns appear in
  // the current row (1 => union only, 2 => union + intersection), and
  // the candidates the row touched.
  std::vector<uint8_t> present_;
  std::vector<uint32_t> touched_;
};

/// Scans `rows` once and returns exact union/intersection counts for
/// every candidate, in the candidates' order.
Result<std::vector<VerifiedPair>> CountCandidatePairs(
    RowStream* rows, const std::vector<ColumnPair>& candidates);

/// Convenience: verify candidates against a fresh scan from `source`
/// and keep only pairs with exact similarity >= threshold, sorted by
/// descending similarity. VerifyCandidatesParallel (mine/parallel.h)
/// with one worker.
Result<std::vector<SimilarPair>> VerifyCandidates(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    double threshold);

}  // namespace sans

#endif  // SANS_MINE_VERIFIER_H_
