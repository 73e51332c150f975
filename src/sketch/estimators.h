// Similarity estimators over sketches.
//
//  * Min-Hash fraction-equal (Definition 1 / Theorem 1) lives on
//    SignatureMatrix::FractionEqual.
//  * K-Min-Hash unbiased estimator (Theorem 2):
//        |SIG_{i∪j} ∩ SIG_i ∩ SIG_j| / |SIG_{i∪j}|.
//  * K-Min-Hash biased estimator (Lemma 1 and the E[|SIG_i ∩ SIG_j|]
//    ≈ k·|C_ij|/|C_i| analysis): cheap enough to drive Hash-Count
//    candidate generation, corrected by the unbiased estimator during
//    main-memory pruning.

#ifndef SANS_SKETCH_ESTIMATORS_H_
#define SANS_SKETCH_ESTIMATORS_H_

#include <cstdint>
#include <span>

#include "sketch/k_min_hash.h"

namespace sans {

/// |SIG_i ∩ SIG_j| for sorted signatures. O(|SIG_i| + |SIG_j|).
uint64_t SignatureIntersectionSize(std::span<const uint64_t> sig_a,
                                   std::span<const uint64_t> sig_b);

/// Theorem 2 unbiased estimator: merge to SIG_{i∪j} (k smallest of the
/// union), count members present in both SIG_i and SIG_j, divide by
/// |SIG_{i∪j}|. Returns 0 for two empty signatures. Both signatures
/// are ascending and distinct. One allocation-free merge pass that
/// stops after k union members; the result equals the quotient over
/// MergeSignatures bit for bit. The one Theorem 2 implementation:
/// TopK, PairSimilarity, the K-MH prune and `sans pairs` all call it.
double EstimateSimilarityUnbiased(std::span<const uint64_t> sig_a,
                                  std::span<const uint64_t> sig_b, int k);

/// Biased estimator from the Section 3.2 analysis: with
/// |C_i| >= |C_j|, E[|SIG_i ∩ SIG_j|] ≈ k_eff·|C_ij|/|C_i| where
/// k_eff = min(k, |C_i|). Solves for |C_ij| given the observed
/// intersection size, then returns the implied Jaccard similarity
/// |C_ij| / (|C_i| + |C_j| - |C_ij|), clamped to [0, 1].
double EstimateSimilarityBiased(uint64_t signature_intersection,
                                uint64_t card_a, uint64_t card_b, int k);

/// Lemma 1 bounds on S(c_i, c_j) given t = E[|SIG_i ∩ SIG_j|]:
///   t / min(2k, |C_i ∪ C_j|)  <=  S  <=  t / min(k, |C_i ∪ C_j|).
/// `union_size` is |C_i ∪ C_j|. Used to pick the Hash-Count
/// candidate threshold conservatively (lower bound side).
struct SimilarityBounds {
  double lower = 0.0;
  double upper = 0.0;
};
SimilarityBounds Lemma1Bounds(uint64_t signature_intersection,
                              uint64_t union_size, int k);

/// Absolute threshold on |SIG_i ∩ SIG_j| below which a pair cannot
/// (in expectation) have similarity >= s_star WHEN both columns have
/// at least k rows: from Lemma 1, such a pair has E[t] >= s*·k.
/// `slack` in (0, 1] loosens the cut to absorb sampling noise. Never
/// returns below 1. For data with columns sparser than k, prefer the
/// adaptive per-pair cut in HashCountKMinHashAdaptive (which the K-MH
/// miner uses) — this absolute form starves sparse columns.
uint64_t BiasedCandidateThreshold(double s_star, int k, double slack);

}  // namespace sans

#endif  // SANS_SKETCH_ESTIMATORS_H_
