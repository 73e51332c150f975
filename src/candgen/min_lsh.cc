#include "candgen/min_lsh.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "util/hashing.h"
#include "util/random.h"

namespace sans {

Status MinLshConfig::Validate() const {
  if (rows_per_band <= 0) {
    return Status::InvalidArgument("rows_per_band must be positive");
  }
  if (num_bands <= 0) {
    return Status::InvalidArgument("num_bands must be positive");
  }
  return Status::OK();
}

MinLshCandidateGenerator::MinLshCandidateGenerator(const MinLshConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

std::vector<int> MinLshCandidateGenerator::BandIndices(int band,
                                                       int available) const {
  SANS_CHECK_GE(band, 0);
  SANS_CHECK_LT(band, config_.num_bands);
  SANS_CHECK_GT(available, 0);
  std::vector<int> indices(config_.rows_per_band);
  if (!config_.sampled) {
    for (int i = 0; i < config_.rows_per_band; ++i) {
      indices[i] = band * config_.rows_per_band + i;
      SANS_CHECK_LT(indices[i], available);
    }
    return indices;
  }
  // Sampled mode: deterministic per (seed, band) so Generate() and
  // tests agree. Sampling is with replacement across and within
  // bands, matching the Q_{r,l,k} analysis where "some of the k
  // Min-Hash values can participate in more than one hashing key".
  Xoshiro256 rng(Mix64(config_.seed) ^ (0x9e3779b97f4a7c15ULL * (band + 1)));
  for (int i = 0; i < config_.rows_per_band; ++i) {
    indices[i] = static_cast<int>(rng.NextBounded(available));
  }
  return indices;
}

void MinLshCandidateGenerator::CollectBandCandidates(
    const SignatureMatrix& signatures, int band, CandidateSet* out) const {
  const int k = signatures.num_hashes();
  const ColumnId m = signatures.num_cols();
  const std::vector<int> indices = BandIndices(band, k);
  std::unordered_map<uint64_t, std::vector<ColumnId>> buckets;
  buckets.reserve(m);
  for (ColumnId c = 0; c < m; ++c) {
    if (signatures.ColumnEmpty(c)) continue;
    buckets[BandKey(signatures, band, indices, c)].push_back(c);
  }
  uint64_t emitted = 0;
  for (const auto& [key, cols] : buckets) {
    // All pairs within a bucket are candidates (paper: "all columns
    // that hash into the same bucket are pairwise declared
    // candidates").
    for (size_t a = 0; a < cols.size(); ++a) {
      for (size_t b = a + 1; b < cols.size(); ++b) {
        out->Add(ColumnPair(cols[a], cols[b]));
        ++emitted;
      }
    }
  }
  // The counters are atomic, so concurrent workers add up correctly.
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* const bands_counter =
      registry.GetCounter("sans_candgen_bands_total");
  static Counter* const buckets_counter =
      registry.GetCounter("sans_candgen_buckets_total");
  static Counter* const bucket_pairs_counter =
      registry.GetCounter("sans_candgen_bucket_pairs_total");
  bands_counter->Increment();
  buckets_counter->Increment(buckets.size());
  bucket_pairs_counter->Increment(emitted);
}

Result<CandidateSet> MinLshCandidateGenerator::Generate(
    const SignatureMatrix& signatures, ThreadPool* pool) const {
  const int k = signatures.num_hashes();
  if (!config_.sampled &&
      k != config_.rows_per_band * config_.num_bands) {
    return Status::InvalidArgument(
        "banded Min-LSH requires num_hashes == rows_per_band * num_bands");
  }
  if (k <= 0) {
    return Status::InvalidArgument("signature matrix has no hash rows");
  }

  // Worker w owns one candidate set and takes bands w, w + W, ...; the
  // sets merge in worker order, so each count is the number of bands
  // the pair collided in. One worker is the plain band loop.
  const int workers = std::min(PoolWorkers(pool), config_.num_bands);
  std::vector<CandidateSet> per_worker(workers);
  SANS_RETURN_IF_ERROR(ParallelFor(pool, workers, [&](int64_t w) -> Status {
    for (int band = static_cast<int>(w); band < config_.num_bands;
         band += workers) {
      CollectBandCandidates(signatures, band, &per_worker[w]);
    }
    return Status::OK();
  }));
  CandidateSet candidates = std::move(per_worker[0]);
  for (int w = 1; w < workers; ++w) {
    candidates.Merge(per_worker[w]);
    per_worker[w] = CandidateSet();
  }
  MetricsRegistry::Global()
      .GetCounter("sans_candgen_candidates_total")
      ->Increment(candidates.size());
  return candidates;
}

}  // namespace sans
