#include "mine/parallel.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "matrix/block_reader.h"
#include "mine/miner.h"
#include "obs/metrics.h"
#include "sketch/sketch_kernels.h"
#include "util/bounded_heap.h"

namespace sans {

Result<SignatureMatrix> ComputeMinHashParallel(
    const RowStreamSource& source, const MinHashConfig& config,
    const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_RETURN_IF_ERROR(config.Validate());
  SANS_RETURN_IF_ERROR(execution.Validate());
  if (pool == nullptr || execution.num_threads <= 1) {
    MinHashGenerator generator(config);
    SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
    return generator.Compute(stream.get());
  }

  // The bank is read-only after construction and shared across
  // workers; each worker owns a blocked kernel, whose lane-interleaved
  // accumulator is its partial result.
  const int workers = execution.num_threads;
  HashFunctionBank bank(config.family, config.num_hashes, config.seed);
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
  // associative, so any order gives the sequential matrix; a fixed
  // order keeps the procedure auditable). Each merged accumulator is
  // freed at once, and worker 0's becomes the matrix in place.
  for (int w = 1; w < workers; ++w) kernels[0].Merge(kernels[w]);
  return kernels[0].TakeSignatures();
}

Result<KMinHashSketch> ComputeKMinHashParallel(
    const RowStreamSource& source, const KMinHashConfig& config,
    const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_RETURN_IF_ERROR(config.Validate());
  SANS_RETURN_IF_ERROR(execution.Validate());
  if (pool == nullptr || execution.num_threads <= 1) {
    KMinHashGenerator generator(config);
    SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
    return generator.Compute(stream.get());
  }

  const int workers = execution.num_threads;
  const ColumnId m = source.num_cols();
  struct Partial {
    std::vector<BoundedMaxHeap<uint64_t>> heaps;
    std::vector<uint64_t> cardinalities;
  };
  std::vector<Partial> partials(workers);
  for (Partial& partial : partials) {
    partial.heaps.reserve(m);
    for (ColumnId c = 0; c < m; ++c) {
      partial.heaps.emplace_back(static_cast<size_t>(config.k));
    }
    partial.cardinalities.assign(m, 0);
  }
  const RowHasher hasher(config.family, config.seed);
  struct Scratch {
    std::vector<uint64_t> keys;
    std::vector<uint64_t> values;
  };
  std::vector<Scratch> scratch(workers);

  SANS_RETURN_IF_ERROR(ForEachRowBlock(
      source, execution, pool,
      [&](int worker, const RowBlock& block) -> Status {
        Partial& partial = partials[worker];
        Scratch& s = scratch[worker];
        // One flat clamped batch per block (sketch_kernels.h) keeps
        // the empty-column sentinel unreachable, exactly as the
        // sequential generator does.
        s.keys.clear();
        for (size_t r = 0; r < block.size(); ++r) {
          s.keys.push_back(block.row(r));
        }
        HashBlockClamped(hasher, s.keys, &s.values);
        for (size_t r = 0; r < block.size(); ++r) {
          const uint64_t value = s.values[r];
          for (ColumnId c : block.columns(r)) {
            partial.heaps[c].Offer(value);
            ++partial.cardinalities[c];
          }
        }
        return Status::OK();
      }));

  // Merge: each worker's heap holds the k smallest values of its row
  // subset (as a multiset), and the global k smallest values are a
  // sub-multiset of the per-worker unions, so sorting the
  // concatenation and truncating to k reproduces exactly the multiset
  // the sequential single heap would hold. Deduplicate only after the
  // truncation, as the sequential generator does (tabulation hashing
  // can collide; deduping per worker first would diverge).
  KMinHashSketch sketch(config.k, m);
  std::vector<std::vector<uint64_t>> sorted_per_worker(workers);
  for (ColumnId c = 0; c < m; ++c) {
    std::vector<uint64_t> merged;
    uint64_t cardinality = 0;
    for (int w = 0; w < workers; ++w) {
      sorted_per_worker[w] = partials[w].heaps[c].TakeSortedValues();
      merged.insert(merged.end(), sorted_per_worker[w].begin(),
                    sorted_per_worker[w].end());
      cardinality += partials[w].cardinalities[c];
    }
    std::sort(merged.begin(), merged.end());
    if (merged.size() > static_cast<size_t>(config.k)) {
      merged.resize(static_cast<size_t>(config.k));
    }
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    SANS_RETURN_IF_ERROR(sketch.SetColumn(c, std::move(merged), cardinality));
  }
  return sketch;
}

Result<std::vector<VerifiedPair>> CountCandidatePairsParallel(
    const RowStreamSource& source, const std::vector<ColumnPair>& candidates,
    const ExecutionConfig& execution, ThreadPool* pool) {
  SANS_RETURN_IF_ERROR(execution.Validate());
  if (pool == nullptr || execution.num_threads <= 1) {
    SANS_ASSIGN_OR_RETURN(std::unique_ptr<RowStream> stream, source.Open());
    return CountCandidatePairs(stream.get(), candidates);
  }

  const ColumnId m = source.num_cols();
  for (const ColumnPair& pair : candidates) {
    if (pair.first == pair.second) {
      return Status::InvalidArgument("candidate pair with equal columns");
    }
    if (pair.second >= m) {
      return Status::OutOfRange("candidate column exceeds table width");
    }
  }

  // Shared read-only column -> candidate index.
  std::vector<std::vector<uint32_t>> column_to_candidates(m);
  for (size_t i = 0; i < candidates.size(); ++i) {
    column_to_candidates[candidates[i].first].push_back(
        static_cast<uint32_t>(i));
    column_to_candidates[candidates[i].second].push_back(
        static_cast<uint32_t>(i));
  }

  // The sequential fallback above counts inside CountCandidatePairs;
  // this parallel path counts here, so each call counts once.
  static Counter* const verified_counter =
      MetricsRegistry::Global().GetCounter("sans_verify_candidates_total");
  verified_counter->Increment(candidates.size());

  const int workers = execution.num_threads;
  struct Partial {
    std::vector<uint64_t> unions;
    std::vector<uint64_t> intersections;
    std::vector<uint8_t> present;
    std::vector<uint32_t> touched;
  };
  std::vector<Partial> partials(workers);
  for (Partial& partial : partials) {
    partial.unions.assign(candidates.size(), 0);
    partial.intersections.assign(candidates.size(), 0);
    partial.present.assign(candidates.size(), 0);
  }

  SANS_RETURN_IF_ERROR(ForEachRowBlock(
      source, execution, pool,
      [&](int worker, const RowBlock& block) -> Status {
        Partial& partial = partials[worker];
        for (size_t r = 0; r < block.size(); ++r) {
          partial.touched.clear();
          for (ColumnId c : block.columns(r)) {
            for (uint32_t idx : column_to_candidates[c]) {
              if (partial.present[idx] == 0) partial.touched.push_back(idx);
              ++partial.present[idx];
            }
          }
          for (uint32_t idx : partial.touched) {
            ++partial.unions[idx];
            if (partial.present[idx] == 2) ++partial.intersections[idx];
            partial.present[idx] = 0;
          }
        }
        return Status::OK();
      }));

  // Additive merge in worker-id order.
  std::vector<VerifiedPair> verified(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    verified[i].pair = candidates[i];
    for (const Partial& partial : partials) {
      verified[i].union_count += partial.unions[i];
      verified[i].intersection_count += partial.intersections[i];
    }
  }
  return verified;
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
