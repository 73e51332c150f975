// The M-LSH miner (paper Section 4.1): min-hash signatures fed to
// banded locality-sensitive hashing. Candidate generation is linear
// in m (bucket scan) instead of quadratic, making this the fastest of
// the four schemes in the paper's Fig. 9. Parameters (r, l) may be
// given directly or derived from a similarity-distribution estimate
// via OptimizeLshParameters.

#ifndef SANS_MINE_MLSH_MINER_H_
#define SANS_MINE_MLSH_MINER_H_

#include <optional>

#include "candgen/min_lsh.h"
#include "lsh/parameter_optimizer.h"
#include "mine/miner.h"
#include "sketch/min_hash.h"
#include "util/status.h"

namespace sans {

/// Configuration of the M-LSH miner.
struct MlshMinerConfig {
  /// Band shape. In banded mode the signature matrix is computed with
  /// exactly rows_per_band * num_bands hash functions; in sampled
  /// mode `num_hashes` functions are computed and every band draws
  /// rows_per_band of them.
  MinLshConfig lsh;
  /// Hash rows computed in sampled mode (ignored in banded mode,
  /// where k = r·l).
  int num_hashes = 40;
  HashFamily family = HashFamily::kSplitMix64;
  uint64_t seed = 0;

  Status Validate() const;
};

/// Min-LSH miner. Phase-1 artifact: the signature matrix sized for
/// the band layout.
class MlshMiner final : public Miner {
 public:
  explicit MlshMiner(const MlshMinerConfig& config);

  /// Convenience: derive (r, l) from a similarity distribution via the
  /// Section 4.1 optimization, then construct the miner in banded
  /// mode. Returns the infeasibility as a Status.
  static Result<MlshMiner> FromDistribution(
      const SimilarityDistribution& distr, const LshOptimizerOptions& options,
      HashFamily family, uint64_t seed);

  std::string name() const override { return "M-LSH"; }
  std::string tag() const override { return "mlsh"; }
  std::string FingerprintFields() const override;
  Status Sketch(const RowStreamSource& source,
                const ExecutionConfig& execution, ThreadPool* pool) override;
  Status WriteSketch(const std::string& path) const override;
  Status ReadSketch(const std::string& path) override;
  Result<CandidateSet> Candidates(double threshold, ThreadPool* pool) override;

  const MlshMinerConfig& config() const { return config_; }
  /// Set when the miner came from FromDistribution.
  const std::optional<LshParameters>& optimized_parameters() const {
    return optimized_;
  }

 private:
  MlshMinerConfig config_;
  std::optional<LshParameters> optimized_;
  std::optional<SignatureMatrix> signatures_;
};

}  // namespace sans

#endif  // SANS_MINE_MLSH_MINER_H_
