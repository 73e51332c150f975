// Hash-Count candidate generation (paper Section 3.1): buckets keyed
// by min-hash value store the columns seen so far that carry the
// value; columns are processed in order, and for column c_i each
// bucket visit increments a reused counter for every earlier column
// sharing the value. Costs O(k·S̄·m²) expected counter increments.
//
// Two variants, as in the paper:
//  * K-Min-Hash: one bucket table over all signature values; the
//    per-pair count is |SIG_i ∩ SIG_j|.
//  * Min-Hash: one bucket table per row of M̂; the per-pair count is
//    the number of rows on which the columns agree (same quantity
//    row-sorting computes).
//
// All variants and thread counts run one engine (see hash_count.cc):
// the bucket tables are built once, sequentially, with columns
// appended in ascending id so every bucket is sorted. Column ranges
// then probe in parallel: column i counts only its lower-id
// bucket-mates, so each pair's count is complete when i finishes and
// the variant's threshold applies inline. The ranges' matches are
// concatenated in column order, so the output is the same for every
// thread count, and memory is the tables plus one counter array per
// worker thread. `sans_candgen_pairs_counted_total` counts the
// distinct pairs whose counter was touched; it too is the same for
// every thread count.
//
// Uniform empty-column rule: a column that contributes no bucket keys
// — an empty K-MH signature, or an all-sentinel min-hash column — is
// skipped entirely and never becomes a candidate. (Without the
// min-hash skip, two empty columns would "agree" on the sentinel in
// every row of M̂.)

#ifndef SANS_CANDGEN_HASH_COUNT_H_
#define SANS_CANDGEN_HASH_COUNT_H_

#include <cstdint>

#include "candgen/candidate_set.h"
#include "sketch/k_min_hash.h"
#include "sketch/signature_matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Pairs with |SIG_i ∩ SIG_j| >= min_intersection, evidence = the
/// intersection size. min_intersection must be >= 1.
CandidateSet HashCountKMinHash(const KMinHashSketch& sketch,
                               uint64_t min_intersection);

/// Adaptive-threshold variant for sparse data, following Lemma 1: a
/// pair with similarity >= s* has E[|SIG_i ∩ SIG_j|] >=
/// s*·min(k, |C_i ∪ C_j|), and min(k, |C_i ∪ C_j|) >=
/// max(|SIG_i|, |SIG_j|). A pair is kept when
///   |SIG_i ∩ SIG_j| >= max(1, floor(fraction · max(|SIG_i|, |SIG_j|)))
/// so columns far sparser than k (whose intersections can never reach
/// an absolute k-based cut) are filtered proportionally instead.
CandidateSet HashCountKMinHashAdaptive(const KMinHashSketch& sketch,
                                       double fraction);

/// Pairs agreeing on at least `min_agreements` of the k min-hash rows,
/// evidence = the agreement count. Identical output to
/// RowSorter::Candidates — kept as an independent implementation and
/// cross-checked in tests (and raced in bench/micro_candgen).
CandidateSet HashCountMinHash(const SignatureMatrix& signatures,
                              int min_agreements);

/// The same counts with the probe spread over `pool`. A null or
/// 1-thread pool probes inline; the sequential functions above are
/// these with a null pool. Output is identical for every pool.
Result<CandidateSet> HashCountKMinHashParallel(const KMinHashSketch& sketch,
                                               uint64_t min_intersection,
                                               ThreadPool* pool);

Result<CandidateSet> HashCountKMinHashAdaptiveParallel(
    const KMinHashSketch& sketch, double fraction, ThreadPool* pool);

Result<CandidateSet> HashCountMinHashParallel(
    const SignatureMatrix& signatures, int min_agreements, ThreadPool* pool);

}  // namespace sans

#endif  // SANS_CANDGEN_HASH_COUNT_H_
