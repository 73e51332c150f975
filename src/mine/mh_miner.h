// The MH miner (paper Sections 3, 3.1, 5): Min-Hash signatures with k
// independent permutations; candidates are pairs agreeing on at least
// a (1-δ)·s* fraction of min-hash values, found by row-sorting or
// hash-counting; exact verification removes false positives.

#ifndef SANS_MINE_MH_MINER_H_
#define SANS_MINE_MH_MINER_H_

#include <optional>

#include "mine/miner.h"
#include "sketch/min_hash.h"
#include "util/status.h"

namespace sans {

/// Which Section 3.1 candidate-generation algorithm to run (identical
/// output, different constants; see bench/micro_candgen).
enum class MhCandidateAlgorithm {
  kRowSort,
  kHashCount,
};

/// Configuration of the MH miner.
struct MhMinerConfig {
  MinHashConfig min_hash;
  MhCandidateAlgorithm candidates = MhCandidateAlgorithm::kRowSort;
  /// δ of Theorem 1: candidates must agree on >= (1-δ)·s*·k values.
  /// Larger δ admits more candidates (fewer false negatives, more
  /// verification work).
  double delta = 0.2;

  Status Validate() const;
};

/// Min-Hash miner. Phase-1 artifact: the k × m signature matrix.
class MhMiner final : public Miner {
 public:
  explicit MhMiner(const MhMinerConfig& config);

  std::string name() const override { return "MH"; }
  std::string tag() const override { return "mh"; }
  std::string FingerprintFields() const override;
  Status Sketch(const RowStreamSource& source,
                const ExecutionConfig& execution, ThreadPool* pool) override;
  Status WriteSketch(const std::string& path) const override;
  Status ReadSketch(const std::string& path) override;
  Result<CandidateSet> Candidates(double threshold, ThreadPool* pool) override;

  const MhMinerConfig& config() const { return config_; }

 private:
  MhMinerConfig config_;
  std::optional<SignatureMatrix> signatures_;
};

}  // namespace sans

#endif  // SANS_MINE_MH_MINER_H_
