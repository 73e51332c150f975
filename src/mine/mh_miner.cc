#include "mine/mh_miner.h"

#include <algorithm>
#include <cmath>

#include "candgen/hash_count.h"
#include "candgen/row_sort.h"
#include "mine/parallel.h"
#include "sketch/sketch_io.h"

namespace sans {

Status MhMinerConfig::Validate() const {
  SANS_RETURN_IF_ERROR(min_hash.Validate());
  if (delta < 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must lie in [0, 1)");
  }
  return Status::OK();
}

MhMiner::MhMiner(const MhMinerConfig& config) : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

std::string MhMiner::FingerprintFields() const {
  const MinHashConfig& min_hash = config_.min_hash;
  return ";k=" + std::to_string(min_hash.num_hashes) +
         ";family=" + std::to_string(static_cast<int>(min_hash.family)) +
         ";seed=" + std::to_string(min_hash.seed) +
         ";candgen=" + std::to_string(static_cast<int>(config_.candidates)) +
         ";delta=" + FingerprintDouble(config_.delta);
}

Status MhMiner::Sketch(const RowStreamSource& source,
                       const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_ASSIGN_OR_RETURN(
      signatures_,
      ComputeMinHashParallel(source, config_.min_hash, execution, pool));
  return Status::OK();
}

Status MhMiner::WriteSketch(const std::string& path) const {
  return WriteSignatureMatrix(*signatures_, path);
}

Status MhMiner::ReadSketch(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(signatures_, ReadSignatureMatrix(path));
  return Status::OK();
}

Result<CandidateSet> MhMiner::Candidates(double threshold, ThreadPool* pool) {
  const int k = config_.min_hash.num_hashes;
  const int min_agreements = std::max(
      1, static_cast<int>(std::ceil((1.0 - config_.delta) * threshold * k)));
  switch (config_.candidates) {
    case MhCandidateAlgorithm::kRowSort:
      return RowSorter(&*signatures_).Candidates(min_agreements);
    case MhCandidateAlgorithm::kHashCount:
      return HashCountMinHashParallel(*signatures_, min_agreements, pool);
  }
  return Status::InvalidArgument("unknown MH candidate algorithm");
}

}  // namespace sans
