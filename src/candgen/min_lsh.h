// Min-LSH candidate generation (paper Section 4.1): split the k × m
// signature matrix into l bands of r rows; within each band, hash
// every column on the concatenation of its r min-hash values; columns
// sharing a bucket in any band become candidates. Collision
// probability for a pair of similarity s is P_{r,l}(s) = 1-(1-s^r)^l.
//
// The sampled variant approximates P_{r,l} when l·r exceeds the k
// values available: each band draws r random indices from the k
// min-hash values (indices may repeat across bands), achieving
// Q_{r,l,k}(s) of Section 4.1.

#ifndef SANS_CANDGEN_MIN_LSH_H_
#define SANS_CANDGEN_MIN_LSH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "candgen/candidate_set.h"
#include "sketch/signature_matrix.h"
#include "util/hashing.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Parameters of a Min-LSH run.
struct MinLshConfig {
  /// r: min-hash values concatenated into one band key.
  int rows_per_band = 10;
  /// l: number of bands / hashing repetitions.
  int num_bands = 10;
  /// When false (banded mode), the signature matrix must have exactly
  /// rows_per_band * num_bands hash rows and bands are disjoint
  /// slices. When true (sampled mode), each band samples
  /// rows_per_band indices uniformly from the available k rows.
  bool sampled = false;
  /// Seed for sampled-mode index selection.
  uint64_t seed = 0;

  Status Validate() const;
};

/// Bucket key of column `c` in band `band`: an order-sensitive
/// combination of the column's values at hash rows `indices`, seeded
/// by the band id so identical values in different bands land in
/// independent bucket spaces. Min-LSH, the similarity index's
/// persisted buckets and the online miner all bucket on this key.
inline uint64_t BandKey(const SignatureMatrix& signatures, int band,
                        std::span<const int> indices, ColumnId c) {
  uint64_t key = Mix64(0xb5ad4eceda1ce2a9ULL + band);
  for (int idx : indices) key = CombineHashes(key, signatures.Value(idx, c));
  return key;
}

/// Runs Min-LSH over a signature matrix and reports all bucket-mate
/// pairs. Evidence counts record in how many bands a pair collided.
class MinLshCandidateGenerator {
 public:
  explicit MinLshCandidateGenerator(const MinLshConfig& config);

  /// Generates candidates. Returns InvalidArgument in banded mode if
  /// signatures.num_hashes() != rows_per_band * num_bands, or in
  /// sampled mode if the matrix has no hash rows. The bands are spread
  /// over the pool's threads (one worker without a pool): each worker
  /// collects its bands into one CandidateSet, and the sets merge in
  /// worker order, so counts sum to the number of bands a pair
  /// collided in. Output is identical for any thread count.
  Result<CandidateSet> Generate(const SignatureMatrix& signatures,
                                ThreadPool* pool = nullptr) const;

  /// The r hash-row indices band `band` uses against a matrix with
  /// `available` rows (banded: a contiguous slice; sampled: seeded
  /// draws). Exposed for tests.
  std::vector<int> BandIndices(int band, int available) const;

  const MinLshConfig& config() const { return config_; }

 private:
  /// Buckets one band and adds its bucket-mate pairs to `out`.
  void CollectBandCandidates(const SignatureMatrix& signatures, int band,
                             CandidateSet* out) const;

  MinLshConfig config_;
};

}  // namespace sans

#endif  // SANS_CANDGEN_MIN_LSH_H_
