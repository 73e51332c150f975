#include "mine/mlsh_miner.h"

#include "mine/parallel.h"
#include "sketch/sketch_io.h"

namespace sans {

Status MlshMinerConfig::Validate() const {
  SANS_RETURN_IF_ERROR(lsh.Validate());
  if (lsh.sampled && num_hashes <= 0) {
    return Status::InvalidArgument(
        "sampled mode requires positive num_hashes");
  }
  return Status::OK();
}

MlshMiner::MlshMiner(const MlshMinerConfig& config) : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Result<MlshMiner> MlshMiner::FromDistribution(
    const SimilarityDistribution& distr, const LshOptimizerOptions& options,
    uint64_t seed) {
  const LshParameters params = OptimizeLshParameters(distr, options);
  if (!params.feasible) {
    return Status::NotFound(
        "no (r, l) in the search space meets the FP/FN constraints");
  }
  MlshMinerConfig config;
  config.lsh.rows_per_band = params.r;
  config.lsh.num_bands = params.l;
  config.lsh.sampled = false;
  config.seed = seed;
  MlshMiner miner(config);
  miner.optimized_ = params;
  return miner;
}

std::string MlshMiner::FingerprintFields() const {
  return ";r=" + std::to_string(config_.lsh.rows_per_band) +
         ";l=" + std::to_string(config_.lsh.num_bands) +
         ";sampled=" + (config_.lsh.sampled ? "1" : "0") +
         ";num_hashes=" + std::to_string(config_.num_hashes) +
         ";family=0;seed=" + std::to_string(config_.seed);
}

Status MlshMiner::Sketch(const RowStreamSource& source,
                         const ExecutionConfig& execution, ThreadPool* pool) {
  MinHashConfig mh_config;
  const MinLshConfig& lsh = config_.lsh;
  mh_config.num_hashes =
      lsh.sampled ? config_.num_hashes : lsh.rows_per_band * lsh.num_bands;
  mh_config.seed = config_.seed;
  SANS_ASSIGN_OR_RETURN(
      signatures_, ComputeMinHashParallel(source, mh_config, execution, pool));
  return Status::OK();
}

Status MlshMiner::WriteSketch(const std::string& path) const {
  return WriteSignatureMatrix(*signatures_, path);
}

Status MlshMiner::ReadSketch(const std::string& path) {
  SANS_ASSIGN_OR_RETURN(signatures_, ReadSignatureMatrix(path));
  return Status::OK();
}

Result<CandidateSet> MlshMiner::Candidates(double /*threshold*/,
                                           ThreadPool* pool) {
  // Banded LSH bucketing, parallel per band.
  MinLshConfig lsh = config_.lsh;
  lsh.seed = config_.seed;
  return MinLshCandidateGenerator(lsh).Generate(*signatures_, pool);
}

}  // namespace sans
