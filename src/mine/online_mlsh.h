// Online M-LSH (paper Section 4, citing the online-aggregation
// framework of Hellerstein et al. [10]): "each iteration of our
// algorithm reduces the number of false negatives by a fixed factor;
// it can also add new false positives, but they can be removed at a
// small additional cost. Thus, the user can monitor the progress of
// the algorithm and interrupt the process at any time ... Moreover,
// the higher the similarity, the earlier the pair is likely to be
// discovered."
//
// One Step() = one LSH band: bucket columns on a fresh band of r
// min-hash values, verify the new candidate pairs exactly, and hand
// back the newly confirmed pairs. The caller loops until satisfied or
// until done().

#ifndef SANS_MINE_ONLINE_MLSH_H_
#define SANS_MINE_ONLINE_MLSH_H_

#include <unordered_set>
#include <vector>

#include "core/types.h"
#include "matrix/row_stream.h"
#include "sketch/min_hash.h"
#include "sketch/signature_matrix.h"
#include "util/status.h"

namespace sans {

/// Configuration of the online miner.
struct OnlineMlshConfig {
  /// r: min-hash values per band. The per-band discovery probability
  /// of a pair with similarity s is s^r.
  int rows_per_band = 5;
  /// Maximum bands (and hence hash rows = rows_per_band * max_bands)
  /// precomputed in the single signature pass.
  int max_bands = 40;
  uint64_t seed = 0;

  Status Validate() const;
};

/// What one iteration produced.
struct OnlineStepResult {
  /// 0-based index of the band just processed.
  int band = 0;
  /// Pairs confirmed (exact similarity >= threshold) in this step,
  /// descending similarity. Never repeats a previously found pair.
  std::vector<SimilarPair> new_pairs;
  /// New candidate pairs bucketed in this step (before verification,
  /// excluding pairs already candidates in earlier steps).
  uint64_t new_candidates = 0;
  /// Residual false-negative probability bound for a pair of
  /// similarity exactly `threshold` after this many bands:
  /// (1 - threshold^r)^{bands so far}.
  double residual_fn_probability = 1.0;
};

/// Incremental three-phase miner. Usage:
///   OnlineMlshMiner miner(config);
///   SANS_RETURN_IF_ERROR(miner.Start(source, threshold));
///   while (!miner.done()) {
///     auto step = miner.Step();               // one band + verify
///     ... inspect step->new_pairs, maybe stop ...
///   }
/// The source must outlive the miner (each Step re-scans it to verify
/// new candidates).
class OnlineMlshMiner {
 public:
  explicit OnlineMlshMiner(const OnlineMlshConfig& config);

  /// Computes the signature matrix (single pass) and resets progress.
  Status Start(const RowStreamSource& source, double threshold);

  /// Processes the next band. Precondition: Start() succeeded and
  /// !done().
  Result<OnlineStepResult> Step();

  /// True once max_bands bands have been processed.
  bool done() const { return next_band_ >= config_.max_bands; }

  /// Bands processed so far.
  int bands_processed() const { return next_band_; }

  /// All pairs confirmed so far, in discovery order.
  const std::vector<SimilarPair>& found() const { return found_; }

  /// All distinct candidates bucketed so far.
  uint64_t total_candidates() const { return seen_candidates_.size(); }

  const OnlineMlshConfig& config() const { return config_; }

 private:
  OnlineMlshConfig config_;
  const RowStreamSource* source_ = nullptr;
  double threshold_ = 0.0;
  SignatureMatrix signatures_;
  int next_band_ = 0;
  std::unordered_set<ColumnPair, ColumnPairHash> seen_candidates_;
  std::unordered_set<ColumnPair, ColumnPairHash> found_set_;
  std::vector<SimilarPair> found_;
};

}  // namespace sans

#endif  // SANS_MINE_ONLINE_MLSH_H_
