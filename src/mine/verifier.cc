#include "mine/verifier.h"

#include <utility>

#include "mine/parallel.h"
#include "obs/metrics.h"

namespace sans {

Result<PairCounter> PairCounter::Create(
    const std::vector<ColumnPair>& candidates, ColumnId num_cols) {
  PairCounter counter;
  counter.counts_.resize(candidates.size());
  counter.present_.assign(candidates.size(), 0);
  auto index = std::make_shared<std::vector<std::vector<uint32_t>>>(num_cols);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].first == candidates[i].second) {
      return Status::InvalidArgument("candidate pair with equal columns");
    }
    if (candidates[i].second >= num_cols) {
      return Status::OutOfRange("candidate column exceeds table width");
    }
    counter.counts_[i].pair = candidates[i];
    (*index)[candidates[i].first].push_back(static_cast<uint32_t>(i));
    (*index)[candidates[i].second].push_back(static_cast<uint32_t>(i));
  }
  counter.index_ = std::move(index);
  // One verification, one count, at any thread count.
  static Counter* const verified_counter =
      MetricsRegistry::Global().GetCounter("sans_verify_candidates_total");
  verified_counter->Increment(candidates.size());
  return counter;
}

PairCounter PairCounter::Fork() const {
  PairCounter fork = *this;
  for (VerifiedPair& v : fork.counts_) v.union_count = v.intersection_count = 0;
  return fork;
}

void PairCounter::Process(const RowBlock& block) {
  const std::vector<std::vector<uint32_t>>& index = *index_;
  for (size_t r = 0; r < block.size(); ++r) {
    touched_.clear();
    for (ColumnId c : block.columns(r)) {
      for (uint32_t idx : index[c]) {
        if (present_[idx] == 0) touched_.push_back(idx);
        ++present_[idx];
      }
    }
    for (uint32_t idx : touched_) {
      ++counts_[idx].union_count;
      if (present_[idx] == 2) ++counts_[idx].intersection_count;
      present_[idx] = 0;
    }
  }
}

void PairCounter::Merge(PairCounter& other) {
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i].union_count += other.counts_[i].union_count;
    counts_[i].intersection_count += other.counts_[i].intersection_count;
  }
  other.counts_ = {};
  other.present_ = {};
}

Result<std::vector<VerifiedPair>> CountCandidatePairs(
    RowStream* rows, const std::vector<ColumnPair>& candidates) {
  SANS_RETURN_IF_ERROR(rows->Reset());
  SANS_ASSIGN_OR_RETURN(PairCounter counter,
                        PairCounter::Create(candidates, rows->num_cols()));
  // Counts from a truncated verification scan would understate unions
  // and intersections; the scan's error is returned instead.
  SANS_RETURN_IF_ERROR(ScanRowBlocks(rows, ExecutionConfig().block_rows,
                                     [&counter](RowBlock& block) {
                                       counter.Process(block);
                                       return Status::OK();
                                     }));
  return counter.Take();
}

Result<std::vector<SimilarPair>> VerifyCandidates(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    double threshold) {
  return VerifyCandidatesParallel(source, candidates, threshold,
                                  ExecutionConfig(), nullptr);
}

}  // namespace sans
