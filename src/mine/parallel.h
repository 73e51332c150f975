// Phase-1/phase-3 scans on the single-scan block pipeline
// (matrix/block_reader.h), at every thread count: each of the
// BlockWorkers(execution, pool) workers feeds its own accumulator
// (MinHashBlockKernel, IncrementalKMinHashBuilder, PairCounter), and
// the accumulators merge in worker-id order — element-wise min,
// bottom-k union, additive counts — so every result is bit-identical
// for any thread count, block size, or scheduling. One worker runs
// inline on the calling thread.

#ifndef SANS_MINE_PARALLEL_H_
#define SANS_MINE_PARALLEL_H_

#include <vector>

#include "matrix/row_stream.h"
#include "mine/verifier.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Computes min-hash signatures over one scan of `source`.
Result<SignatureMatrix> ComputeMinHashParallel(const RowStreamSource& source,
                                               const MinHashConfig& config,
                                               const ExecutionConfig& execution,
                                               ThreadPool* pool);

/// Computes bottom-k sketches (plus exact cardinalities) over one
/// scan. Per-worker memory is one k-bounded heap per column; the
/// merged column signature is the k smallest values across workers,
/// which is exactly what one heap over the whole scan retains.
Result<KMinHashSketch> ComputeKMinHashParallel(const RowStreamSource& source,
                                               const KMinHashConfig& config,
                                               const ExecutionConfig& execution,
                                               ThreadPool* pool);

/// Verifies candidates over one scan; per-worker counters are summed
/// in worker-id order. Output order matches `candidates`.
Result<std::vector<VerifiedPair>> CountCandidatePairsParallel(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    const ExecutionConfig& execution, ThreadPool* pool);

/// Counts via CountCandidatePairsParallel, then keeps pairs with exact
/// similarity >= threshold, sorted by descending similarity.
Result<std::vector<SimilarPair>> VerifyCandidatesParallel(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    double threshold, const ExecutionConfig& execution, ThreadPool* pool);

}  // namespace sans

#endif  // SANS_MINE_PARALLEL_H_
