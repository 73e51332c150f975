// K-Min-Hash (bottom-k) sketches (paper Section 3.2): a single hash
// function over rows; each column's signature SIG_i is the set of the
// k smallest hash values among the rows of C_i (all of them if
// |C_i| < k). By Proposition 2, SIG_i is a uniform random sample of
// distinct rows of C_i. Signature generation costs one hash per row
// plus O(log k) per admitted value — much cheaper than Min-Hash's k
// hashes per row, and sublinear in k on sparse data (Fig. 6b).

#ifndef SANS_SKETCH_K_MIN_HASH_H_
#define SANS_SKETCH_K_MIN_HASH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "matrix/row_stream.h"
#include "util/hashing.h"
#include "util/status.h"

namespace sans {

/// Configuration for K-Min-Hash sketch generation.
struct KMinHashConfig {
  /// k: signature capacity per column.
  int k = 100;
  uint64_t seed = 0;

  Status Validate() const;
};

/// All columns' bottom-k signatures plus the exact column
/// cardinalities |C_i| observed during the scan (the biased estimator
/// needs them; the paper assumes they are known, and the single pass
/// provides them for free).
class KMinHashSketch {
 public:
  KMinHashSketch(int k, ColumnId num_cols);

  int k() const { return k_; }
  ColumnId num_cols() const { return num_cols_; }

  /// SIG_i: ascending distinct hash values, size min(k, |C_i|).
  std::span<const uint64_t> Signature(ColumnId col) const {
    return signatures_[col];
  }

  /// |C_i| counted exactly during the generating scan.
  uint64_t ColumnCardinality(ColumnId col) const {
    return cardinalities_[col];
  }

  /// Total stored hash values across columns (memory diagnostics; the
  /// sublinearity shown in Fig. 6b is visible here).
  uint64_t TotalSignatureSize() const;

  /// Installs a column's signature directly (deserialization and
  /// derived-column construction). The values must be strictly
  /// ascending with at most k entries, and the cardinality must be at
  /// least the signature size (a bottom-k sample cannot exceed its
  /// population).
  Status SetColumn(ColumnId col, std::vector<uint64_t> signature,
                   uint64_t cardinality);

 private:
  friend class BooleanColumnOps;  // builds derived (OR) signatures

  int k_;
  ColumnId num_cols_;
  std::vector<std::vector<uint64_t>> signatures_;
  std::vector<uint64_t> cardinalities_;
};

/// Single-pass generator: hashes each row once (batched per block of
/// rows, no virtual dispatch) and offers the value to every column
/// with a 1 in that row via a bounded max-heap — one
/// IncrementalKMinHashBuilder (sketch/incremental.h) over the scan.
class KMinHashGenerator {
 public:
  explicit KMinHashGenerator(const KMinHashConfig& config);

  Result<KMinHashSketch> Compute(RowStream* rows) const;

  const KMinHashConfig& config() const { return config_; }

 private:
  KMinHashConfig config_;
};

/// SIG_{i∪j}: the k smallest elements of SIG_i ∪ SIG_j (all of them if
/// fewer than k) — the signature the union column would have had
/// (paper Section 3.2). O(k) merge.
std::vector<uint64_t> MergeSignatures(std::span<const uint64_t> sig_a,
                                      std::span<const uint64_t> sig_b,
                                      int k);

}  // namespace sans

#endif  // SANS_SKETCH_K_MIN_HASH_H_
