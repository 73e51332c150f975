#include "mine/online_mlsh.h"

#include <cmath>
#include <numeric>
#include <unordered_map>

#include "candgen/min_lsh.h"
#include "mine/miner.h"
#include "mine/verifier.h"

namespace sans {

Status OnlineMlshConfig::Validate() const {
  if (rows_per_band <= 0) {
    return Status::InvalidArgument("rows_per_band must be positive");
  }
  if (max_bands <= 0) {
    return Status::InvalidArgument("max_bands must be positive");
  }
  return Status::OK();
}

OnlineMlshMiner::OnlineMlshMiner(const OnlineMlshConfig& config)
    : config_(config), signatures_(1, 0) {
  SANS_CHECK(config.Validate().ok());
}

Status OnlineMlshMiner::Start(const RowStreamSource& source,
                              double threshold) {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must lie in (0, 1]");
  }
  MinHashConfig mh_config;
  mh_config.num_hashes = config_.rows_per_band * config_.max_bands;
  mh_config.seed = config_.seed;
  MinHashGenerator generator(mh_config);
  SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
  SANS_ASSIGN_OR_RETURN(signatures_, generator.Compute(stream.get()));

  source_ = &source;
  threshold_ = threshold;
  next_band_ = 0;
  seen_candidates_.clear();
  found_set_.clear();
  found_.clear();
  return Status::OK();
}

Result<OnlineStepResult> OnlineMlshMiner::Step() {
  if (source_ == nullptr) {
    return Status::Internal("Step() before Start()");
  }
  if (done()) {
    return Status::OutOfRange("all bands already processed");
  }
  const int band = next_band_++;
  const int r = config_.rows_per_band;

  // Bucket every non-empty column on this band's r values.
  std::vector<int> indices(r);
  std::iota(indices.begin(), indices.end(), band * r);
  std::unordered_map<uint64_t, std::vector<ColumnId>> buckets;
  for (ColumnId c = 0; c < signatures_.num_cols(); ++c) {
    if (signatures_.ColumnEmpty(c)) continue;
    buckets[BandKey(signatures_, band, indices, c)].push_back(c);
  }

  // Collect candidates not seen in earlier bands.
  std::vector<ColumnPair> fresh;
  for (const auto& [key, cols] : buckets) {
    for (size_t a = 0; a < cols.size(); ++a) {
      for (size_t b = a + 1; b < cols.size(); ++b) {
        const ColumnPair pair(cols[a], cols[b]);
        if (seen_candidates_.insert(pair).second) {
          fresh.push_back(pair);
        }
      }
    }
  }

  OnlineStepResult result;
  result.band = band;
  result.new_candidates = fresh.size();
  result.residual_fn_probability =
      std::pow(1.0 - std::pow(threshold_, r), next_band_);

  // Verify just the fresh candidates ("new false positives ... can be
  // removed at a small additional cost").
  if (!fresh.empty()) {
    SANS_ASSIGN_OR_RETURN(
        std::vector<SimilarPair> confirmed,
        VerifyCandidates(*source_, fresh, threshold_));
    for (const SimilarPair& p : confirmed) {
      if (found_set_.insert(p.pair).second) {
        result.new_pairs.push_back(p);
        found_.push_back(p);
      }
    }
    SortPairs(&result.new_pairs);
  }
  return result;
}

}  // namespace sans
