#include "sketch/min_hash.h"

#include <cmath>
#include <vector>

#include "matrix/block_reader.h"
#include "sketch/sketch_kernels.h"

namespace sans {

Status MinHashConfig::Validate() const {
  if (num_hashes <= 0) {
    return Status::InvalidArgument("num_hashes must be positive");
  }
  return Status::OK();
}

int RecommendedNumHashes(double delta, double epsilon, double c) {
  SANS_CHECK_GT(delta, 0.0);
  SANS_CHECK_LT(delta, 1.0);
  SANS_CHECK_GT(epsilon, 0.0);
  SANS_CHECK_LT(epsilon, 1.0);
  SANS_CHECK_GT(c, 0.0);
  const double k = 2.0 / (delta * delta * c) * std::log(1.0 / epsilon);
  return static_cast<int>(std::ceil(k));
}

MinHashGenerator::MinHashGenerator(const MinHashConfig& config)
    : config_(config),
      bank_(config.num_hashes, config.seed) {
  SANS_CHECK(config.Validate().ok());
}

Result<SignatureMatrix> MinHashGenerator::Compute(
    RowStream* rows, std::vector<uint64_t>* cardinalities) const {
  SANS_RETURN_IF_ERROR(rows->Reset());
  if (cardinalities != nullptr) {
    cardinalities->assign(rows->num_cols(), 0);
  }
  MinHashBlockKernel kernel(&bank_, rows->num_cols());
  // A truncated scan fails here: its signatures would be silently
  // biased.
  SANS_RETURN_IF_ERROR(ScanRowBlocks(
      rows, ExecutionConfig().block_rows, [&](RowBlock& block) {
        if (cardinalities != nullptr) {
          for (size_t i = 0; i < block.size(); ++i) {
            for (ColumnId c : block.columns(i)) ++(*cardinalities)[c];
          }
        }
        kernel.Process(block);
        return Status::OK();
      }));
  return kernel.TakeSignatures();
}

}  // namespace sans
