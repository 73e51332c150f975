#include "candgen/hash_count.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace sans {
namespace {

// One bucket key contributed by a column: which table it probes
// (min-hash row l; always 0 for K-MH's single table) and the value.
struct BucketKey {
  int table;
  uint64_t value;
};

// A column's entry in one of its buckets: the bucket, and how many
// lower-id columns the bucket already held when the column was
// appended. Those are exactly the columns the column probes.
struct BucketRef {
  uint32_t bucket;
  uint32_t prefix;
};

// Every bucket of every table, built once before any probing and
// read-only afterwards. Columns are appended in ascending id, so each
// bucket's ids ascend and a column's lower-id bucket-mates are the
// bucket's first `prefix` entries.
struct BucketTables {
  // Column i's refs are refs[column_begin[i], column_begin[i + 1]).
  std::vector<size_t> column_begin;
  std::vector<BucketRef> refs;
  // Bucket b's ids are ids[bucket_begin[b], bucket_begin[b + 1]).
  std::vector<size_t> bucket_begin;
  std::vector<ColumnId> ids;
};

template <typename KeysFn>
BucketTables BuildBucketTables(ColumnId num_cols, int num_tables,
                               const KeysFn& keys) {
  BucketTables tables;
  std::vector<std::unordered_map<uint64_t, uint32_t>> bucket_of(num_tables);
  std::vector<size_t> bucket_size;
  std::vector<BucketKey> column_keys;
  tables.column_begin.reserve(static_cast<size_t>(num_cols) + 1);
  tables.column_begin.push_back(0);
  for (ColumnId i = 0; i < num_cols; ++i) {
    column_keys.clear();
    keys(i, &column_keys);
    for (const BucketKey& key : column_keys) {
      const auto [it, inserted] = bucket_of[key.table].try_emplace(
          key.value, static_cast<uint32_t>(bucket_size.size()));
      if (inserted) {
        SANS_CHECK_LT(bucket_size.size(), size_t{UINT32_MAX});
        bucket_size.push_back(0);
      }
      tables.refs.push_back(BucketRef{
          it->second, static_cast<uint32_t>(bucket_size[it->second]++)});
    }
    tables.column_begin.push_back(tables.refs.size());
  }
  tables.bucket_begin.assign(bucket_size.size() + 1, 0);
  for (size_t b = 0; b < bucket_size.size(); ++b) {
    tables.bucket_begin[b + 1] = tables.bucket_begin[b] + bucket_size[b];
  }
  tables.ids.resize(tables.refs.size());
  for (ColumnId i = 0; i < num_cols; ++i) {
    for (size_t r = tables.column_begin[i]; r < tables.column_begin[i + 1];
         ++r) {
      const BucketRef& ref = tables.refs[r];
      tables.ids[tables.bucket_begin[ref.bucket] + ref.prefix] = i;
    }
  }
  return tables;
}

// Splits [0, num_cols) into `num_ranges` contiguous column ranges of
// about equal probe work. Column i's work is its bucket prefixes
// (which grow with i), plus one per key for the lookup itself.
std::vector<ColumnId> SplitByWork(const BucketTables& tables,
                                  ColumnId num_cols, uint64_t num_ranges) {
  uint64_t total = 0;
  for (const BucketRef& ref : tables.refs) total += ref.prefix + 1;
  std::vector<ColumnId> bounds = {0};
  uint64_t done = 0;
  for (ColumnId i = 0; i < num_cols; ++i) {
    for (size_t r = tables.column_begin[i]; r < tables.column_begin[i + 1];
         ++r) {
      done += tables.refs[r].prefix + 1;
    }
    while (bounds.size() < num_ranges &&
           done * num_ranges >= total * bounds.size()) {
      bounds.push_back(i + 1);
    }
  }
  bounds.resize(num_ranges + 1, num_cols);
  return bounds;
}

// Probe ranges per worker thread: enough that a slow range does not
// leave the other workers idle at the end.
constexpr int kRangesPerWorker = 4;

// The one Hash-Count engine behind every variant and thread count.
// Builds the bucket tables once, then probes contiguous column ranges
// on the pool (inline for a null pool, which is one worker and one
// range). Column i adds one to a per-worker counter for every
// lower-id column it shares a bucket with, so a pair's count is
// complete when i finishes, and `keep(j, i, count)` applies the
// variant's threshold inline. Each range's matches are kept in column
// order and the ranges are concatenated in order, so the output is the
// same for every thread count. Memory is the tables, one counter
// array per worker and the kept matches.
//
// Uniform empty-column rule: a column whose `keys` callback produces
// nothing is in no bucket and probes nothing, so it can never become
// a candidate. The Min-Hash keys callback returns nothing for
// all-sentinel (empty) columns; empty K-MH signatures produce nothing
// naturally.
template <typename KeysFn, typename KeepFn>
CandidateSet CountBucketCollisions(ColumnId num_cols, int num_tables,
                                   ThreadPool* pool, const KeysFn& keys,
                                   const KeepFn& keep) {
  const BucketTables tables = BuildBucketTables(num_cols, num_tables, keys);
  const int workers = PoolWorkers(pool);
  const std::vector<ColumnId> bounds = SplitByWork(
      tables, num_cols, workers == 1 ? 1 : workers * kRangesPerWorker);
  const int64_t num_ranges = static_cast<int64_t>(bounds.size()) - 1;

  struct Match {
    ColumnPair pair;
    uint64_t count;
  };
  std::vector<std::vector<Match>> matches(num_ranges);
  std::atomic<int64_t> next_range{0};
  static Counter* const pairs_counted = MetricsRegistry::Global().GetCounter(
      "sans_candgen_pairs_counted_total");
  const auto worker = [&](int64_t /*worker*/) -> Status {
    std::vector<uint32_t> counter(num_cols, 0);
    // The first touched[0, num_touched) are column i's distinct
    // bucket-mates in first-touch order.
    std::vector<ColumnId> touched(num_cols);
    uint64_t counted = 0;
    for (int64_t r = next_range++; r < num_ranges; r = next_range++) {
      for (ColumnId i = bounds[r]; i < bounds[r + 1]; ++i) {
        size_t num_touched = 0;
        for (size_t k = tables.column_begin[i]; k < tables.column_begin[i + 1];
             ++k) {
          const BucketRef& ref = tables.refs[k];
          const ColumnId* mates = &tables.ids[tables.bucket_begin[ref.bucket]];
          for (uint32_t p = 0; p < ref.prefix; ++p) {
            // Branch-free: the slot is always written, and only a first
            // touch keeps it. First touches are common, so a branch
            // here would often mispredict.
            touched[num_touched] = mates[p];
            num_touched += counter[mates[p]]++ == 0;
          }
        }
        counted += num_touched;
        for (size_t t = 0; t < num_touched; ++t) {
          const ColumnId j = touched[t];
          if (keep(j, i, counter[j])) {
            matches[r].push_back(Match{ColumnPair(j, i), counter[j]});
          }
          counter[j] = 0;
        }
      }
    }
    pairs_counted->Increment(counted);
    return Status::OK();
  };
  // Workers cannot fail; a null pool runs the one worker inline.
  SANS_CHECK(ParallelFor(pool, workers, worker).ok());

  CandidateSet candidates;
  for (const std::vector<Match>& range : matches) {
    for (const Match& match : range) candidates.Add(match.pair, match.count);
  }
  // Reported into the same counter the Min-LSH and Hamming-LSH
  // generators use.
  static Counter* const num_candidates =
      MetricsRegistry::Global().GetCounter("sans_candgen_candidates_total");
  num_candidates->Increment(candidates.size());
  return candidates;
}

void KMinHashKeys(const KMinHashSketch& sketch, ColumnId i,
                  std::vector<BucketKey>* out) {
  for (uint64_t value : sketch.Signature(i)) {
    out->push_back(BucketKey{0, value});
  }
}

// Per-pair threshold of the adaptive K-MH variant (Lemma 1; see
// header): max(1, floor(fraction * max(|SIG_i|, |SIG_j|))).
uint64_t AdaptiveThreshold(const KMinHashSketch& sketch, ColumnId i,
                           ColumnId j, double fraction) {
  const size_t larger_sig =
      std::max(sketch.Signature(i).size(), sketch.Signature(j).size());
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(fraction * static_cast<double>(larger_sig)));
}

}  // namespace

CandidateSet HashCountKMinHash(const KMinHashSketch& sketch,
                               uint64_t min_intersection) {
  return HashCountKMinHashParallel(sketch, min_intersection, nullptr).value();
}

CandidateSet HashCountKMinHashAdaptive(const KMinHashSketch& sketch,
                                       double fraction) {
  return HashCountKMinHashAdaptiveParallel(sketch, fraction, nullptr).value();
}

CandidateSet HashCountMinHash(const SignatureMatrix& signatures,
                              int min_agreements) {
  return HashCountMinHashParallel(signatures, min_agreements, nullptr).value();
}

Result<CandidateSet> HashCountKMinHashParallel(const KMinHashSketch& sketch,
                                               uint64_t min_intersection,
                                               ThreadPool* pool) {
  SANS_CHECK_GE(min_intersection, 1u);
  return CountBucketCollisions(
      sketch.num_cols(), /*num_tables=*/1, pool,
      [&](ColumnId i, std::vector<BucketKey>* out) {
        KMinHashKeys(sketch, i, out);
      },
      [&](ColumnId /*j*/, ColumnId /*i*/, uint64_t count) {
        return count >= min_intersection;
      });
}

Result<CandidateSet> HashCountKMinHashAdaptiveParallel(
    const KMinHashSketch& sketch, double fraction, ThreadPool* pool) {
  SANS_CHECK_GE(fraction, 0.0);
  SANS_CHECK_LE(fraction, 1.0);
  return CountBucketCollisions(
      sketch.num_cols(), /*num_tables=*/1, pool,
      [&](ColumnId i, std::vector<BucketKey>* out) {
        KMinHashKeys(sketch, i, out);
      },
      [&](ColumnId j, ColumnId i, uint64_t count) {
        return count >= AdaptiveThreshold(sketch, i, j, fraction);
      });
}

Result<CandidateSet> HashCountMinHashParallel(
    const SignatureMatrix& signatures, int min_agreements, ThreadPool* pool) {
  SANS_CHECK_GE(min_agreements, 1);
  // One bucket table per row of M̂ (paper: "we use a different hash
  // table (and set of buckets) for each row").
  return CountBucketCollisions(
      signatures.num_cols(), signatures.num_hashes(), pool,
      [&](ColumnId i, std::vector<BucketKey>* out) {
        if (signatures.ColumnEmpty(i)) return;  // uniform empty-column rule
        for (int l = 0; l < signatures.num_hashes(); ++l) {
          out->push_back(BucketKey{l, signatures.Value(l, i)});
        }
      },
      [&](ColumnId /*j*/, ColumnId /*i*/, uint64_t count) {
        return count >= static_cast<uint64_t>(min_agreements);
      });
}

}  // namespace sans
