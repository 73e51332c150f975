#include "mine/parallel.h"

#include <utility>

#include "matrix/block_reader.h"
#include "mine/miner.h"
#include "obs/metrics.h"
#include "sketch/incremental.h"
#include "sketch/sketch_kernels.h"

namespace sans {

Result<SignatureMatrix> ComputeMinHashParallel(
    const RowStreamSource& source, const MinHashConfig& config,
    const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_RETURN_IF_ERROR(config.Validate());
  SANS_RETURN_IF_ERROR(execution.Validate());
  // The bank is read-only after construction and shared across
  // workers; each worker owns a blocked kernel, whose lane-interleaved
  // accumulator is its partial result.
  const int workers = BlockWorkers(execution, pool);
  HashFunctionBank bank(config.num_hashes, config.seed);
  std::vector<MinHashBlockKernel> kernels;
  kernels.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    kernels.emplace_back(&bank, source.num_cols());
  }
  SANS_RETURN_IF_ERROR(ForEachRowBlock(
      source, execution, pool,
      [&](int worker, const RowBlock& block) -> Status {
        kernels[worker].Process(block);
        return Status::OK();
      }));
  // Lane-wise min merge in worker-id order (min is commutative and
  // associative, so any order gives the same matrix; a fixed order
  // keeps the procedure auditable). Each merged accumulator is freed
  // at once, and worker 0's becomes the matrix in place.
  for (int w = 1; w < workers; ++w) kernels[0].Merge(kernels[w]);
  return kernels[0].TakeSignatures();
}

Result<KMinHashSketch> ComputeKMinHashParallel(
    const RowStreamSource& source, const KMinHashConfig& config,
    const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_RETURN_IF_ERROR(config.Validate());
  SANS_RETURN_IF_ERROR(execution.Validate());
  const int workers = BlockWorkers(execution, pool);
  std::vector<IncrementalKMinHashBuilder> builders;
  builders.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    builders.emplace_back(config, source.num_cols());
  }
  SANS_RETURN_IF_ERROR(ForEachRowBlock(
      source, execution, pool,
      [&](int worker, const RowBlock& block) -> Status {
        builders[worker].Process(block);
        return Status::OK();
      }));
  // Each merge keeps the k smallest values of the union and frees the
  // merged-in heaps, so the sketch is the same at every thread count.
  for (int w = 1; w < workers; ++w) {
    SANS_RETURN_IF_ERROR(builders[0].Merge(builders[w]));
  }
  return builders[0].Take();
}

Result<std::vector<VerifiedPair>> CountCandidatePairsParallel(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_RETURN_IF_ERROR(execution.Validate());
  SANS_ASSIGN_OR_RETURN(PairCounter first,
                        PairCounter::Create(candidates, source.num_cols()));
  const int workers = BlockWorkers(execution, pool);
  std::vector<PairCounter> counters;
  counters.reserve(workers);
  counters.push_back(std::move(first));
  for (int w = 1; w < workers; ++w) counters.push_back(counters[0].Fork());
  SANS_RETURN_IF_ERROR(ForEachRowBlock(
      source, execution, pool,
      [&](int worker, const RowBlock& block) -> Status {
        counters[worker].Process(block);
        return Status::OK();
      }));
  // Additive merge in worker-id order; worker 0's counts are the
  // output.
  for (int w = 1; w < workers; ++w) counters[0].Merge(counters[w]);
  return counters[0].Take();
}

Result<std::vector<SimilarPair>> VerifyCandidatesParallel(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    double threshold, const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_ASSIGN_OR_RETURN(
      std::vector<VerifiedPair> verified,
      CountCandidatePairsParallel(source, candidates, execution, pool));
  static Counter* const true_positives =
      MetricsRegistry::Global().GetCounter("sans_verify_true_positives_total");
  static Counter* const false_positives =
      MetricsRegistry::Global().GetCounter("sans_verify_false_positives_total");
  std::vector<SimilarPair> pairs;
  for (const VerifiedPair& v : verified) {
    const double s = v.similarity();
    if (s >= threshold) {
      pairs.push_back(SimilarPair{v.pair, s});
    }
  }
  true_positives->Increment(pairs.size());
  false_positives->Increment(verified.size() - pairs.size());
  SortPairs(&pairs);
  return pairs;
}

}  // namespace sans
