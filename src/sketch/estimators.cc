#include "sketch/estimators.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace sans {

uint64_t SignatureIntersectionSize(std::span<const uint64_t> sig_a,
                                   std::span<const uint64_t> sig_b) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < sig_a.size() && j < sig_b.size()) {
    if (sig_a[i] < sig_b[j]) {
      ++i;
    } else if (sig_b[j] < sig_a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double EstimateSimilarityUnbiased(std::span<const uint64_t> sig_a,
                                  std::span<const uint64_t> sig_b, int k) {
  SANS_CHECK_GT(k, 0);
  // One merge step per member of SIG_{i∪j} (the k smallest of the
  // union), counting the steps where both signatures hold the value.
  // Nothing is materialised; the count and the union size are the
  // ones MergeSignatures would give, so the quotient is the same.
  const size_t limit = static_cast<size_t>(k);
  const size_t size_a = sig_a.size();
  const size_t size_b = sig_b.size();
  size_t i = 0;
  size_t j = 0;
  size_t union_size = 0;
  uint64_t in_both = 0;
  while (i < size_a && j < size_b && union_size < limit) {
    const uint64_t a = sig_a[i];
    const uint64_t b = sig_b[j];
    in_both += a == b;
    i += a <= b;
    j += b <= a;
    ++union_size;
  }
  // One side is used up (or the union is full): the rest of the other
  // side extends the union with values the used-up side lacks.
  union_size += std::min(limit - union_size, (size_a - i) + (size_b - j));
  if (union_size == 0) return 0.0;
  return static_cast<double>(in_both) / union_size;
}

double EstimateSimilarityBiased(uint64_t signature_intersection,
                                uint64_t card_a, uint64_t card_b, int k) {
  SANS_CHECK_GT(k, 0);
  if (card_a == 0 || card_b == 0) return 0.0;
  const uint64_t larger = std::max(card_a, card_b);
  const uint64_t smaller = std::min(card_a, card_b);
  const double k_eff =
      static_cast<double>(std::min<uint64_t>(k, larger));
  // E[|SIG_i ∩ SIG_j|] ≈ k_eff · |C_ij| / |C_i| with C_i the larger
  // column; invert for |C_ij| and cap at the smaller cardinality.
  double inter_est =
      static_cast<double>(signature_intersection) * larger / k_eff;
  inter_est = std::min(inter_est, static_cast<double>(smaller));
  const double union_est = card_a + card_b - inter_est;
  if (union_est <= 0.0) return 1.0;
  return std::clamp(inter_est / union_est, 0.0, 1.0);
}

SimilarityBounds Lemma1Bounds(uint64_t signature_intersection,
                              uint64_t union_size, int k) {
  SANS_CHECK_GT(k, 0);
  SimilarityBounds bounds;
  if (union_size == 0) return bounds;
  const double t = static_cast<double>(signature_intersection);
  const double lo_denom = static_cast<double>(
      std::min<uint64_t>(2 * static_cast<uint64_t>(k), union_size));
  const double hi_denom = static_cast<double>(
      std::min<uint64_t>(static_cast<uint64_t>(k), union_size));
  bounds.lower = std::clamp(t / lo_denom, 0.0, 1.0);
  bounds.upper = std::clamp(t / hi_denom, 0.0, 1.0);
  return bounds;
}

uint64_t BiasedCandidateThreshold(double s_star, int k, double slack) {
  SANS_CHECK_GT(k, 0);
  SANS_CHECK_GT(slack, 0.0);
  SANS_CHECK_LE(slack, 1.0);
  SANS_CHECK_GE(s_star, 0.0);
  SANS_CHECK_LE(s_star, 1.0);
  const double expected = s_star * k * slack;
  const uint64_t threshold = static_cast<uint64_t>(std::floor(expected));
  return std::max<uint64_t>(threshold, 1);
}

}  // namespace sans
