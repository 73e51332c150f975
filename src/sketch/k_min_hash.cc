#include "sketch/k_min_hash.h"

#include <algorithm>

#include "sketch/incremental.h"

namespace sans {

Status KMinHashConfig::Validate() const {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  return Status::OK();
}

KMinHashSketch::KMinHashSketch(int k, ColumnId num_cols)
    : k_(k),
      num_cols_(num_cols),
      signatures_(num_cols),
      cardinalities_(num_cols, 0) {
  SANS_CHECK_GT(k, 0);
}

Status KMinHashSketch::SetColumn(ColumnId col,
                                 std::vector<uint64_t> signature,
                                 uint64_t cardinality) {
  if (col >= num_cols_) {
    return Status::OutOfRange("column id exceeds sketch width");
  }
  if (signature.size() > static_cast<size_t>(k_)) {
    return Status::InvalidArgument("signature larger than k");
  }
  for (size_t i = 1; i < signature.size(); ++i) {
    if (signature[i] <= signature[i - 1]) {
      return Status::InvalidArgument(
          "signature values must be strictly ascending");
    }
  }
  if (cardinality < signature.size()) {
    return Status::InvalidArgument(
        "cardinality smaller than signature size");
  }
  signatures_[col] = std::move(signature);
  cardinalities_[col] = cardinality;
  return Status::OK();
}

uint64_t KMinHashSketch::TotalSignatureSize() const {
  uint64_t total = 0;
  for (const auto& sig : signatures_) total += sig.size();
  return total;
}

KMinHashGenerator::KMinHashGenerator(const KMinHashConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Result<KMinHashSketch> KMinHashGenerator::Compute(RowStream* rows) const {
  IncrementalKMinHashBuilder builder(config_, rows->num_cols());
  SANS_RETURN_IF_ERROR(builder.AddAll(rows));
  return builder.Take();
}

std::vector<uint64_t> MergeSignatures(std::span<const uint64_t> sig_a,
                                      std::span<const uint64_t> sig_b,
                                      int k) {
  std::vector<uint64_t> merged;
  merged.reserve(std::min<size_t>(k, sig_a.size() + sig_b.size()));
  size_t i = 0;
  size_t j = 0;
  while (merged.size() < static_cast<size_t>(k) &&
         (i < sig_a.size() || j < sig_b.size())) {
    uint64_t next;
    if (j >= sig_b.size() || (i < sig_a.size() && sig_a[i] < sig_b[j])) {
      next = sig_a[i++];
    } else if (i >= sig_a.size() || sig_b[j] < sig_a[i]) {
      next = sig_b[j++];
    } else {  // equal: consume both, emit once
      next = sig_a[i];
      ++i;
      ++j;
    }
    merged.push_back(next);
  }
  return merged;
}

}  // namespace sans
