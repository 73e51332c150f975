#include "sketch/min_hash.h"

#include <cmath>
#include <vector>

#include "matrix/block_reader.h"
#include "obs/metrics.h"
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
      bank_(config.family, config.num_hashes, config.seed) {
  SANS_CHECK(config.Validate().ok());
}

Result<SignatureMatrix> MinHashGenerator::Compute(
    RowStream* rows, std::vector<uint64_t>* cardinalities) const {
  SANS_RETURN_IF_ERROR(rows->Reset());
  if (cardinalities != nullptr) {
    cardinalities->assign(rows->num_cols(), 0);
  }
  // This sequential scan bypasses the block pipeline, so it feeds the
  // shared rows-scanned counter itself (one add at scan end).
  static Counter* const rows_scanned =
      MetricsRegistry::Global().GetCounter("sans_scan_rows_total");
  uint64_t rows_seen = 0;
  // Rows are copied into a RowBlock (the RowView span dies on the next
  // Next() call) and handed to the blocked kernel, which batch-hashes
  // the row ids under all k functions and applies the clamp and the
  // lane-interleaved min-update (see sketch_kernels.h).
  MinHashBlockKernel kernel(&bank_, rows->num_cols());
  RowBlock block;
  RowView view;
  while (rows->Next(&view)) {
    ++rows_seen;
    if (view.columns.empty()) continue;
    if (cardinalities != nullptr) {
      for (ColumnId c : view.columns) ++(*cardinalities)[c];
    }
    block.Append(view.row, view.columns);
    if (block.size() >= kSketchBlockRows) {
      kernel.Process(block);
      block.Clear();
    }
  }
  kernel.Process(block);
  rows_scanned->Increment(rows_seen);
  // Signatures over a truncated scan are silently biased — fail the
  // pass instead of ending it "cleanly".
  SANS_RETURN_IF_ERROR(rows->stream_status());
  return kernel.TakeSignatures();
}

}  // namespace sans
