#include "candgen/hash_count.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "candgen/row_sort.h"
#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "obs/metrics.h"
#include "sketch/estimators.h"
#include "sketch/min_hash.h"

namespace sans {
namespace {

KMinHashSketch SketchOf(const BinaryMatrix& matrix, int k, uint64_t seed) {
  KMinHashConfig config;
  config.k = k;
  config.seed = seed;
  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&matrix);
  auto sketch = generator.Compute(&stream);
  EXPECT_TRUE(sketch.ok());
  return std::move(sketch).value();
}

TEST(HashCountKMinHashTest, CountsEqualSignatureIntersections) {
  auto m = BinaryMatrix::FromRows(6, 3,
                                  {{0, 1}, {0, 1}, {0, 1}, {1, 2}, {2}, {0}});
  ASSERT_TRUE(m.ok());
  const KMinHashSketch sketch = SketchOf(*m, 4, 3);
  const CandidateSet candidates = HashCountKMinHash(sketch, 1);
  for (ColumnId i = 0; i < 3; ++i) {
    for (ColumnId j = i + 1; j < 3; ++j) {
      const uint64_t expected = SignatureIntersectionSize(
          sketch.Signature(i), sketch.Signature(j));
      EXPECT_EQ(candidates.Count(ColumnPair(i, j)), expected);
    }
  }
}

TEST(HashCountKMinHashTest, ThresholdFilters) {
  auto m = BinaryMatrix::FromRows(6, 3,
                                  {{0, 1}, {0, 1}, {0, 1}, {1, 2}, {2}, {0}});
  ASSERT_TRUE(m.ok());
  const KMinHashSketch sketch = SketchOf(*m, 6, 3);
  // (0,1) share 3 rows, (1,2) share 1, (0,2) share 0.
  const CandidateSet at2 = HashCountKMinHash(sketch, 2);
  EXPECT_TRUE(at2.Contains(ColumnPair(0, 1)));
  EXPECT_FALSE(at2.Contains(ColumnPair(1, 2)));
  EXPECT_FALSE(at2.Contains(ColumnPair(0, 2)));
  const CandidateSet at1 = HashCountKMinHash(sketch, 1);
  EXPECT_TRUE(at1.Contains(ColumnPair(1, 2)));
}

TEST(HashCountMinHashTest, AgreesWithRowSorterExactly) {
  // The paper presents row-sorting and hash-count as interchangeable
  // implementations of the same candidate generation; their outputs
  // must match pair-for-pair and count-for-count.
  SyntheticConfig config;
  config.num_rows = 300;
  config.num_cols = 50;
  config.bands = {{2, 55.0, 90.0}};
  config.spread_pairs = false;
  config.min_density = 0.05;
  config.max_density = 0.12;
  config.seed = 41;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());

  MinHashConfig mh;
  mh.num_hashes = 20;
  mh.seed = 6;
  MinHashGenerator generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());

  for (int min_agreements : {1, 3, 8, 15}) {
    RowSorter sorter(&*sig);
    const CandidateSet via_sort = sorter.Candidates(min_agreements);
    const CandidateSet via_hash = HashCountMinHash(*sig, min_agreements);
    EXPECT_EQ(via_sort.size(), via_hash.size())
        << "min_agreements=" << min_agreements;
    for (const auto& [pair, count] : via_sort) {
      EXPECT_EQ(via_hash.Count(pair), count);
    }
  }
}

TEST(HashCountMinHashTest, SkipsEmptyColumns) {
  SignatureMatrix sig(2, 3);
  sig.SetValue(0, 0, 1);
  sig.SetValue(1, 0, 2);
  // Columns 1, 2 empty.
  const CandidateSet candidates = HashCountMinHash(sig, 1);
  EXPECT_TRUE(candidates.empty());
}

TEST(HashCountKMinHashTest, EmptySketchYieldsNothing) {
  KMinHashConfig config;
  config.k = 4;
  KMinHashGenerator generator(config);
  BinaryMatrix empty(5, 4);
  InMemoryRowStream stream(&empty);
  auto sketch = generator.Compute(&stream);
  ASSERT_TRUE(sketch.ok());
  EXPECT_TRUE(HashCountKMinHash(*sketch, 1).empty());
}

TEST(HashCountParallelTest, ThreadCountsMatchSequential) {
  // The parallel variants split the probe into column ranges; the
  // concatenated ranges must equal the one-range count exactly, for
  // odd thread counts too.
  SyntheticConfig config;
  config.num_rows = 400;
  config.num_cols = 60;
  config.bands = {{3, 55.0, 90.0}};
  config.spread_pairs = false;
  config.min_density = 0.05;
  config.max_density = 0.12;
  config.seed = 23;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());

  MinHashConfig mh;
  mh.num_hashes = 24;
  mh.seed = 6;
  MinHashGenerator generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());
  const KMinHashSketch sketch = SketchOf(dataset->matrix, 30, 19);

  for (int threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    for (int min_agreements : {1, 4, 12}) {
      auto parallel = HashCountMinHashParallel(*sig, min_agreements, &pool);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->SortedEntries(),
                HashCountMinHash(*sig, min_agreements).SortedEntries())
          << "threads=" << threads
          << " min_agreements=" << min_agreements;
    }
    for (uint64_t min_intersection : {1, 3, 10}) {
      auto parallel =
          HashCountKMinHashParallel(sketch, min_intersection, &pool);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->SortedEntries(),
                HashCountKMinHash(sketch, min_intersection).SortedEntries())
          << "threads=" << threads
          << " min_intersection=" << min_intersection;
    }
    for (double fraction : {0.05, 0.3, 0.9}) {
      auto parallel =
          HashCountKMinHashAdaptiveParallel(sketch, fraction, &pool);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(
          parallel->SortedEntries(),
          HashCountKMinHashAdaptive(sketch, fraction).SortedEntries())
          << "threads=" << threads << " fraction=" << fraction;
    }
  }
}

TEST(HashCountParallelTest, NullPoolRunsInline) {
  // A null pool and a 1-thread pool both probe inline as one range.
  auto m = BinaryMatrix::FromRows(6, 3,
                                  {{0, 1}, {0, 1}, {0, 1}, {1, 2}, {2}, {0}});
  ASSERT_TRUE(m.ok());
  const KMinHashSketch sketch = SketchOf(*m, 4, 3);
  ThreadPool one_thread(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one_thread}) {
    auto parallel = HashCountKMinHashParallel(sketch, 1, pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->SortedEntries(),
              HashCountKMinHash(sketch, 1).SortedEntries());
  }
}

TEST(HashCountParallelTest, EmptyColumnsSkippedUniformly) {
  // Two all-empty min-hash columns must never collide with each other
  // — a non-uniform skip rule would pair them k times. The rule holds
  // at every thread count.
  SignatureMatrix sig(3, 4);
  sig.SetValue(0, 1, 7);
  sig.SetValue(1, 1, 8);
  sig.SetValue(2, 1, 9);
  sig.SetValue(0, 3, 7);
  sig.SetValue(1, 3, 8);
  sig.SetValue(2, 3, 11);
  // Columns 0 and 2 are empty; 1 and 3 agree on two of three hashes.
  const CandidateSet sequential = HashCountMinHash(sig, 2);
  EXPECT_EQ(sequential.size(), 1u);
  EXPECT_EQ(sequential.Count(ColumnPair(1, 3)), 2u);
  ThreadPool pool(3);
  auto parallel = HashCountMinHashParallel(sig, 2, &pool);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->SortedEntries(), sequential.SortedEntries());
}

// Thread invariance of output and work. The table's columns are dense
// enough that nearly every pair shares some bucket, while the strict
// thresholds keep only a few of those pairs: a design that stores
// every colliding pair before thresholding holds far more pairs than
// it returns, and at more threads it would store them more than once.
class HashCountThreadInvarianceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticConfig config;
    config.num_rows = 500;
    config.num_cols = 300;
    config.bands = {{3, 60.0, 90.0}};
    config.min_density = 0.05;
    config.max_density = 0.12;
    config.seed = 71;
    auto dataset = GenerateSynthetic(config);
    ASSERT_TRUE(dataset.ok());
    MinHashConfig mh;
    mh.num_hashes = 24;
    mh.seed = 8;
    MinHashGenerator generator(mh);
    InMemoryRowStream stream(&dataset->matrix);
    auto sig = generator.Compute(&stream);
    ASSERT_TRUE(sig.ok());
    signatures_ = new SignatureMatrix(std::move(sig).value());
    sketch_ = new KMinHashSketch(SketchOf(dataset->matrix, 30, 17));
  }
  static void TearDownTestSuite() {
    delete signatures_;
    delete sketch_;
  }

  struct Work {
    size_t candidates = 0;
    uint64_t pairs_counted = 0;
  };

  // Runs `count(pool)` at 1, 2, 4 and 8 threads. Asserts that the
  // entries and the sans_candgen_pairs_counted_total delta equal the
  // 1-thread ones, and returns the 1-thread figures.
  template <typename CountFn>
  static Work ExpectSameAtEveryThreadCount(const CountFn& count) {
    Counter* const pairs_counted = MetricsRegistry::Global().GetCounter(
        "sans_candgen_pairs_counted_total");
    std::vector<std::pair<ColumnPair, uint64_t>> reference;
    Work work;
    for (int threads : {1, 2, 4, 8}) {
      ExecutionConfig execution;
      execution.num_threads = threads;
      const std::unique_ptr<ThreadPool> pool = MaybeCreatePool(execution);
      const uint64_t before = pairs_counted->Value();
      const Result<CandidateSet> result = count(pool.get());
      EXPECT_TRUE(result.ok());
      if (!result.ok()) return work;
      const uint64_t counted = pairs_counted->Value() - before;
      if (threads == 1) {
        reference = result->SortedEntries();
        work = Work{reference.size(), counted};
        continue;
      }
      EXPECT_EQ(result->SortedEntries(), reference) << "threads=" << threads;
      EXPECT_EQ(counted, work.pairs_counted) << "threads=" << threads;
    }
    return work;
  }

  static SignatureMatrix* signatures_;
  static KMinHashSketch* sketch_;
};

SignatureMatrix* HashCountThreadInvarianceTest::signatures_ = nullptr;
KMinHashSketch* HashCountThreadInvarianceTest::sketch_ = nullptr;

TEST_F(HashCountThreadInvarianceTest, KMinHashAbsolute) {
  for (uint64_t min_intersection : {1, 6}) {
    const Work work = ExpectSameAtEveryThreadCount([&](ThreadPool* pool) {
      return HashCountKMinHashParallel(*sketch_, min_intersection, pool);
    });
    // Every counted pair shares a bucket, so at a cut of 1 all of them
    // are kept.
    if (min_intersection == 1) {
      EXPECT_EQ(work.pairs_counted, work.candidates);
    }
  }
  const Work strict = ExpectSameAtEveryThreadCount([&](ThreadPool* pool) {
    return HashCountKMinHashParallel(*sketch_, 15, pool);
  });
  EXPECT_GT(strict.candidates, 0u);
  EXPECT_GT(strict.pairs_counted, 20 * strict.candidates);
}

TEST_F(HashCountThreadInvarianceTest, KMinHashAdaptive) {
  for (double fraction : {0.1, 0.5}) {
    ExpectSameAtEveryThreadCount([&](ThreadPool* pool) {
      return HashCountKMinHashAdaptiveParallel(*sketch_, fraction, pool);
    });
  }
  const Work strict = ExpectSameAtEveryThreadCount([&](ThreadPool* pool) {
    return HashCountKMinHashAdaptiveParallel(*sketch_, 0.3, pool);
  });
  EXPECT_GT(strict.candidates, 0u);
  EXPECT_GT(strict.pairs_counted, 20 * strict.candidates);
}

TEST_F(HashCountThreadInvarianceTest, MinHash) {
  for (int min_agreements : {1, 4}) {
    ExpectSameAtEveryThreadCount([&](ThreadPool* pool) {
      return HashCountMinHashParallel(*signatures_, min_agreements, pool);
    });
  }
  const Work strict = ExpectSameAtEveryThreadCount([&](ThreadPool* pool) {
    return HashCountMinHashParallel(*signatures_, 12, pool);
  });
  EXPECT_GT(strict.candidates, 0u);
  EXPECT_GT(strict.pairs_counted, 20 * strict.candidates);
}

}  // namespace
}  // namespace sans
