#include "mine/kmh_miner.h"

#include "candgen/hash_count.h"
#include "mine/parallel.h"
#include "sketch/estimators.h"
#include "sketch/sketch_io.h"

namespace sans {

Status KmhMinerConfig::Validate() const {
  SANS_RETURN_IF_ERROR(sketch.Validate());
  if (hash_count_slack <= 0.0 || hash_count_slack > 1.0) {
    return Status::InvalidArgument("hash_count_slack must lie in (0, 1]");
  }
  if (delta < 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must lie in [0, 1)");
  }
  return Status::OK();
}

KmhMiner::KmhMiner(const KmhMinerConfig& config) : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

std::string KmhMiner::FingerprintFields() const {
  return ";k=" + std::to_string(config_.sketch.k) + ";family=0" +
         ";seed=" + std::to_string(config_.sketch.seed) +
         ";slack=" + FingerprintDouble(config_.hash_count_slack) +
         ";delta=" + FingerprintDouble(config_.delta) + ";unbiased=1";
}

Status KmhMiner::Sketch(const RowStreamSource& source,
                        const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_ASSIGN_OR_RETURN(sketch_, ComputeKMinHashParallel(
                                     source, config_.sketch, execution, pool));
  return Status::OK();
}

Status KmhMiner::WriteSketch(const std::string& path) const {
  return WriteKMinHashSketch(*sketch_, path);
}

Status KmhMiner::ReadSketch(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(sketch_, ReadKMinHashSketch(path));
  return Status::OK();
}

Result<CandidateSet> KmhMiner::Candidates(double threshold, ThreadPool* pool) {
  // Phase 2a: biased Hash-Count filter on |SIG_i ∩ SIG_j|, with the
  // adaptive Lemma-1 cut proportional to each pair's signature sizes,
  // so columns sparser than k are filtered fairly.
  SANS_ASSIGN_OR_RETURN(
      CandidateSet filtered,
      HashCountKMinHashAdaptiveParallel(
          *sketch_, config_.hash_count_slack * threshold, pool));
  // Phase 2b: unbiased Theorem-2 pruning of the survivors.
  const double prune_floor = (1.0 - config_.delta) * threshold;
  CandidateSet candidates;
  for (const auto& [pair, count] : filtered) {
    const double estimate = EstimateSimilarityUnbiased(
        sketch_->Signature(pair.first), sketch_->Signature(pair.second),
        sketch_->k());
    if (estimate >= prune_floor) candidates.Add(pair, count);
  }
  return candidates;
}

}  // namespace sans
