// Slow, obviously-correct references for the scan phases, written
// straight from the paper's definitions over a BinaryMatrix. They
// share no code with the block pipeline or the sketch accumulators,
// so tests can hold every execution setting of those against them.
// The bottom-k and count references read columns, so they need the
// matrix's column-major view (BinaryMatrix::EnsureColumnMajor).

#ifndef SANS_TESTS_NAIVE_REFERENCE_H_
#define SANS_TESTS_NAIVE_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "matrix/binary_matrix.h"
#include "mine/verifier.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"
#include "sketch/signature_matrix.h"
#include "sketch/sketch_kernels.h"
#include "util/hashing.h"

namespace sans {

/// Min-Hash signatures: per row, per column, per hash, through the
/// checked MinUpdate, with the clamp applied per value.
inline SignatureMatrix NaiveMinHash(const BinaryMatrix& m,
                                    const MinHashConfig& config) {
  HashFunctionBank bank(config.num_hashes, config.seed);
  SignatureMatrix naive(config.num_hashes, m.num_cols());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    for (ColumnId c : m.Row(r)) {
      for (int l = 0; l < config.num_hashes; ++l) {
        naive.MinUpdate(l, c, ClampRowHash(bank.Hash(l, r)));
      }
    }
  }
  return naive;
}

/// Bottom-k signature of one column: the clamped hashes of all its
/// rows, sorted and truncated to k (Proposition 2's sample of the k
/// smallest values). Distinct rows hash to distinct values.
inline std::vector<uint64_t> NaiveBottomK(const BinaryMatrix& m,
                                          const KMinHashConfig& config,
                                          ColumnId col) {
  const RowHasher hasher(config.seed);
  std::vector<uint64_t> values;
  for (RowId r : m.Column(col)) values.push_back(HashRowClamped(hasher, r));
  std::sort(values.begin(), values.end());
  if (values.size() > static_cast<size_t>(config.k)) {
    values.resize(static_cast<size_t>(config.k));
  }
  return values;
}

/// Exact union and intersection counts from the two column sets.
inline VerifiedPair NaiveCounts(const BinaryMatrix& m, ColumnPair pair) {
  const auto a = m.Column(pair.first);
  const auto b = m.Column(pair.second);
  std::vector<RowId> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  VerifiedPair v;
  v.pair = pair;
  v.intersection_count = both.size();
  v.union_count = a.size() + b.size() - both.size();
  return v;
}

}  // namespace sans

#endif  // SANS_TESTS_NAIVE_REFERENCE_H_
