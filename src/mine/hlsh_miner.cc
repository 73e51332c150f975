#include "mine/hlsh_miner.h"

#include "matrix/table_file.h"

namespace sans {

HlshMiner::HlshMiner(const HlshMinerConfig& config) : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

std::string HlshMiner::FingerprintFields() const {
  const HammingLshConfig& lsh = config_.lsh;
  return ";r=" + std::to_string(lsh.rows_per_run) +
         ";runs=" + std::to_string(lsh.num_runs) +
         ";band=" + std::to_string(lsh.density_band) +
         ";min_rows=" + std::to_string(lsh.min_rows) +
         ";max_levels=" + std::to_string(lsh.max_levels) +
         ";skip_zero=" + (lsh.skip_zero_keys ? "1" : "0") +
         ";seed=" + std::to_string(lsh.seed);
}

Status HlshMiner::Sketch(const RowStreamSource& source,
                         const ExecutionConfig& /*execution*/,
                         ThreadPool* /*pool*/) {
  SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
  SANS_ASSIGN_OR_RETURN(table_, MaterializeStream(stream.get()));
  return Status::OK();
}

Status HlshMiner::WriteSketch(const std::string& path) const {
  return WriteTableFile(*table_, path);
}

Status HlshMiner::ReadSketch(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(table_, ReadTableFile(path));
  return Status::OK();
}

Result<CandidateSet> HlshMiner::Candidates(double /*threshold*/,
                                           ThreadPool* /*pool*/) {
  // Pyramid + density-banded bucketing.
  level_stats_.clear();
  return HammingLshCandidateGenerator(config_.lsh)
      .GenerateWithStats(*table_, &level_stats_);
}

}  // namespace sans
