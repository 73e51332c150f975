// The K-MH miner (paper Section 3.2): bottom-k sketches with a single
// hash per row. Phase 2 runs in two stages, exactly as the paper
// prescribes: a cheap biased estimate via Hash-Count on
// |SIG_i ∩ SIG_j| filters the pair space, then the unbiased
// Theorem-2 estimator (merge-join on SIG_{i∪j}) prunes in main
// memory before the exact verification scan.

#ifndef SANS_MINE_KMH_MINER_H_
#define SANS_MINE_KMH_MINER_H_

#include <optional>

#include "mine/miner.h"
#include "sketch/k_min_hash.h"
#include "util/status.h"

namespace sans {

/// Configuration of the K-MH miner.
struct KmhMinerConfig {
  KMinHashConfig sketch;
  /// Slack on the Hash-Count threshold (fraction of the expected
  /// |SIG_i ∩ SIG_j| at similarity s* a pair must reach). Lower slack
  /// admits more candidates into the unbiased pruning stage.
  double hash_count_slack = 0.5;
  /// δ applied to the unbiased estimator: pairs below (1-δ)·s* are
  /// pruned before verification.
  double delta = 0.2;

  Status Validate() const;
};

/// K-Min-Hash miner. Phase-1 artifact: the bottom-k sketch.
class KmhMiner final : public Miner {
 public:
  explicit KmhMiner(const KmhMinerConfig& config);

  std::string name() const override { return "K-MH"; }
  std::string tag() const override { return "kmh"; }
  std::string FingerprintFields() const override;
  Status Sketch(const RowStreamSource& source,
                const ExecutionConfig& execution, ThreadPool* pool) override;
  Status WriteSketch(const std::string& path) const override;
  Status ReadSketch(const std::string& path) override;
  /// Survivors of both stages, keeping their Hash-Count counts. The
  /// estimator uses the sketch's own k.
  Result<CandidateSet> Candidates(double threshold, ThreadPool* pool) override;

  const KmhMinerConfig& config() const { return config_; }
  /// The phase-1 sketch; set after Sketch() or ReadSketch().
  const KMinHashSketch& sketch() const { return *sketch_; }

 private:
  KmhMinerConfig config_;
  std::optional<KMinHashSketch> sketch_;
};

}  // namespace sans

#endif  // SANS_MINE_KMH_MINER_H_
