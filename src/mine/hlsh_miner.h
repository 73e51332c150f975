// The H-LSH miner (paper Section 4.2): Hamming-distance LSH directly
// on the data via the OR-fold pyramid and density bands. Unlike the
// min-hash schemes it needs random row access at every pyramid level,
// so phase 1 materializes the table in memory (the paper also
// operates on the actual data here). Verification still runs as a
// stream scan, keeping the output free of false positives.

#ifndef SANS_MINE_HLSH_MINER_H_
#define SANS_MINE_HLSH_MINER_H_

#include <optional>
#include <vector>

#include "candgen/hamming_lsh.h"
#include "mine/miner.h"
#include "util/status.h"

namespace sans {

/// Configuration of the H-LSH miner.
struct HlshMinerConfig {
  HammingLshConfig lsh;

  Status Validate() const { return lsh.Validate(); }
};

/// Hamming-LSH miner. Phase-1 artifact: the materialized table. Only
/// the verification scan parallelizes: the pyramid needs random row
/// access and stays sequential.
class HlshMiner final : public Miner {
 public:
  explicit HlshMiner(const HlshMinerConfig& config);

  std::string name() const override { return "H-LSH"; }
  std::string tag() const override { return "hlsh"; }
  std::string FingerprintFields() const override;
  Status Sketch(const RowStreamSource& source,
                const ExecutionConfig& execution, ThreadPool* pool) override;
  Status WriteSketch(const std::string& path) const override;
  Status ReadSketch(const std::string& path) override;
  Result<CandidateSet> Candidates(double threshold, ThreadPool* pool) override;

  /// Per-level statistics of the last Candidates() call.
  const std::vector<HammingLshLevelStats>& last_level_stats() const {
    return level_stats_;
  }

  const HlshMinerConfig& config() const { return config_; }

 private:
  HlshMinerConfig config_;
  std::optional<BinaryMatrix> table_;
  std::vector<HammingLshLevelStats> level_stats_;
};

}  // namespace sans

#endif  // SANS_MINE_HLSH_MINER_H_
