#include "sketch/signature_matrix.h"

#include <utility>

namespace sans {

SignatureMatrix::SignatureMatrix(int num_hashes, ColumnId num_cols)
    : num_hashes_(num_hashes), num_cols_(num_cols) {
  SANS_CHECK_GT(num_hashes, 0);
  values_.assign(static_cast<size_t>(num_hashes) * num_cols,
                 kEmptyMinHash);
}

SignatureMatrix::SignatureMatrix(int num_hashes, ColumnId num_cols,
                                 CacheAlignedVector<uint64_t> values)
    : num_hashes_(num_hashes),
      num_cols_(num_cols),
      values_(std::move(values)) {
  SANS_CHECK_GT(num_hashes, 0);
  SANS_CHECK_EQ(values_.size(), static_cast<size_t>(num_hashes) * num_cols);
}

void SignatureMatrix::ColumnSignature(ColumnId col,
                                      std::vector<uint64_t>* out) const {
  out->resize(num_hashes_);
  for (int l = 0; l < num_hashes_; ++l) {
    (*out)[l] = Value(l, col);
  }
}

double SignatureMatrix::FractionEqual(ColumnId a, ColumnId b) const {
  if (ColumnEmpty(a) || ColumnEmpty(b)) return 0.0;
  int equal = 0;
  for (int l = 0; l < num_hashes_; ++l) {
    if (Value(l, a) == Value(l, b)) ++equal;
  }
  return static_cast<double>(equal) / num_hashes_;
}

double SignatureMatrix::FractionLessOrEqual(ColumnId a, ColumnId b) const {
  if (ColumnEmpty(a) || ColumnEmpty(b)) return 0.0;
  int leq = 0;
  for (int l = 0; l < num_hashes_; ++l) {
    if (Value(l, a) <= Value(l, b)) ++leq;
  }
  return static_cast<double>(leq) / num_hashes_;
}

}  // namespace sans
