#include "serve/query_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/synthetic_generator.h"
#include "lsh/filter_functions.h"
#include "matrix/row_stream.h"
#include "mine/brute_force.h"
#include "serve/similarity_index.h"
#include "sketch/k_min_hash.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace sans {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_serve_engine_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Builds an index over `matrix` and loads it back.
  std::shared_ptr<const SimilarityIndex> BuildIndex(
      const BinaryMatrix& matrix, const SimilarityIndexConfig& config) {
    const std::string path = Path("engine.sidx");
    const Status built =
        IndexBuilder(config).Build(InMemorySource(&matrix), path);
    EXPECT_TRUE(built.ok()) << built.ToString();
    auto index = SimilarityIndex::Load(path);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return std::make_shared<const SimilarityIndex>(std::move(*index));
  }

  static int counter_;
  std::filesystem::path dir_;
};

int QueryEngineTest::counter_ = 0;

BinaryMatrix PlantedMatrix(uint64_t seed) {
  SyntheticConfig config;
  config.num_rows = 600;
  config.num_cols = 200;
  config.bands = {{4, 80.0, 95.0}, {4, 60.0, 80.0}};
  config.spread_pairs = false;
  config.seed = seed;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d->matrix);
}

SimilarityIndexConfig EngineConfig() {
  SimilarityIndexConfig config;
  config.sketch_k = 128;
  config.rows_per_band = 4;
  config.num_bands = 16;
  config.seed = 5;
  return config;
}

TEST_F(QueryEngineTest, TopKRanksPlantedPartnerFirst) {
  const BinaryMatrix matrix = PlantedMatrix(13);
  const QueryEngine engine(BuildIndex(matrix, EngineConfig()));
  // Planted pairs occupy consecutive slots from column 0: (0,1),
  // (2,3), ... with similarity >= 0.6 while background pairs sit near
  // 0.02, so each planted column's nearest neighbor is its partner.
  for (ColumnId c = 0; c < 8; ++c) {
    const ColumnId partner = (c % 2 == 0) ? c + 1 : c - 1;
    auto neighbors = engine.TopK(c, 3);
    ASSERT_TRUE(neighbors.ok()) << neighbors.status().ToString();
    ASSERT_FALSE(neighbors->empty());
    EXPECT_EQ(neighbors->front().col, partner)
        << "column " << c << " did not rank its planted partner first";
    EXPECT_GT(neighbors->front().similarity, 0.4);
  }
}

TEST_F(QueryEngineTest, TopKIsSortedAndRespectsKAndThreshold) {
  const BinaryMatrix matrix = PlantedMatrix(29);
  const QueryEngine engine(BuildIndex(matrix, EngineConfig()));
  auto neighbors = engine.TopK(0, 5, 0.01);
  ASSERT_TRUE(neighbors.ok());
  EXPECT_LE(neighbors->size(), 5u);
  for (size_t i = 1; i < neighbors->size(); ++i) {
    EXPECT_GE((*neighbors)[i - 1].similarity, (*neighbors)[i].similarity);
  }
  for (const Neighbor& n : *neighbors) {
    EXPECT_GE(n.similarity, 0.01);
    EXPECT_NE(n.col, 0u);
  }
}

TEST_F(QueryEngineTest, RecallMatchesBandCollisionPrediction) {
  // Acceptance criterion: querying every left column of a true similar
  // pair recovers the right column at a rate no worse than the
  // P_{r,l}(s) prediction at the pairs' minimum similarity (the
  // fallback scan is disabled by querying with small k over a dataset
  // with enough bucket traffic; any fallback only raises recall).
  const BinaryMatrix matrix = PlantedMatrix(47);
  const SimilarityIndexConfig config = EngineConfig();
  const QueryEngine engine(BuildIndex(matrix, config));

  auto truth = BruteForceSimilarPairs(matrix, 0.55);
  ASSERT_TRUE(truth.ok());
  ASSERT_GE(truth->size(), 4u);

  double min_similarity = 1.0;
  int recovered = 0;
  for (const SimilarPair& pair : *truth) {
    min_similarity = std::min(min_similarity, pair.similarity);
    auto neighbors = engine.TopK(pair.pair.first, 5);
    ASSERT_TRUE(neighbors.ok());
    for (const Neighbor& n : *neighbors) {
      if (n.col == pair.pair.second) {
        ++recovered;
        break;
      }
    }
  }
  const double recall =
      static_cast<double>(recovered) / static_cast<double>(truth->size());
  const double predicted = BandCollisionProbability(
      min_similarity, config.rows_per_band, config.num_bands);
  // The prediction is a lower bound per pair at its own (higher)
  // similarity; allow a small slack for sketch-estimator noise at the
  // rerank stage.
  EXPECT_GE(recall, predicted - 0.05)
      << "recall " << recall << " vs predicted " << predicted << " at s="
      << min_similarity;
}

TEST_F(QueryEngineTest, FallbackScanFillsSmallDatasets) {
  // 6 columns, k=5: buckets cannot supply 5 candidates, so the engine
  // must widen to a scan and return every non-empty other column.
  std::vector<std::vector<ColumnId>> rows(40);
  for (RowId r = 0; r < 40; ++r) {
    for (ColumnId c = 0; c < 6; ++c) {
      if ((r * 7 + c * 3) % 4 == 0) rows[r].push_back(c);
    }
  }
  auto built = BinaryMatrix::FromRows(40, 6, rows);
  ASSERT_TRUE(built.ok());
  SimilarityIndexConfig config = EngineConfig();
  config.sketch_k = 64;
  const QueryEngine engine(BuildIndex(*built, config));
  TopKInfo info;
  auto neighbors = engine.TopK(0, 5, 0.0, &info);
  ASSERT_TRUE(neighbors.ok());
  EXPECT_TRUE(info.fallback_scan);
  EXPECT_EQ(neighbors->size(), 5u);
}

/// Theorem 2 as the paper states it: merge to SIG_{i∪j}, count the
/// members present in both signatures, divide by |SIG_{i∪j}|.
double Theorem2(std::span<const uint64_t> a, std::span<const uint64_t> b,
                int k) {
  const std::vector<uint64_t> merged = MergeSignatures(a, b, k);
  if (merged.empty()) return 0.0;
  uint64_t in_both = 0;
  for (uint64_t v : merged) {
    in_both += std::binary_search(a.begin(), a.end(), v) &&
               std::binary_search(b.begin(), b.end(), v);
  }
  return static_cast<double>(in_both) / merged.size();
}

/// The TopK answer defined by a linear scan: the bucket-mates when the
/// band buckets supply at least k of them, otherwise every column;
/// empty columns and the query itself excluded; the k best by
/// (similarity desc, column asc).
std::vector<Neighbor> ScanTopK(const SimilarityIndex& index, ColumnId col,
                               int k, double min_similarity,
                               bool* bucket_path) {
  std::vector<ColumnId> candidates;
  for (int band = 0; band < index.num_bands(); ++band) {
    for (ColumnId other : index.Bucket(band, col)) {
      if (other != col) candidates.push_back(other);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  *bucket_path = candidates.size() >= static_cast<size_t>(k) ||
                 candidates.size() + 1 >= index.num_cols();
  if (!*bucket_path) {
    candidates.clear();
    for (ColumnId other = 0; other < index.num_cols(); ++other) {
      if (other != col) candidates.push_back(other);
    }
  }
  std::vector<Neighbor> all;
  for (ColumnId other : candidates) {
    if (index.Cardinality(other) == 0) continue;
    const double similarity =
        Theorem2(index.Sketch(col), index.Sketch(other), index.sketch_k());
    if (similarity < min_similarity) continue;
    all.push_back(Neighbor{other, similarity});
  }
  std::sort(all.begin(), all.end());
  if (all.size() > static_cast<size_t>(k)) all.resize(k);
  return all;
}

/// Columns of every kind TopK must rank: empty ones, exact duplicates
/// (similarity ties), columns larger and smaller than a sketch of 32,
/// and a block of 12 identical columns whose buckets hold 11 mates.
BinaryMatrix MixedMatrix(uint64_t seed) {
  constexpr RowId kRows = 240;
  constexpr ColumnId kBase = 48;
  constexpr ColumnId kCols = kBase + 12;
  Xoshiro256 rng(seed);
  std::vector<std::vector<RowId>> columns(kCols);
  for (ColumnId c = 0; c < kBase; ++c) {
    if (c % 12 == 5) continue;  // empty
    if (c % 12 == 7 || c % 12 == 8) {
      columns[c] = columns[c - (c % 12 == 7 ? 1 : 2)];  // duplicates
      continue;
    }
    const double density = c % 3 == 0 ? 0.4 : c % 3 == 1 ? 0.03 : 0.12;
    for (RowId r = 0; r < kRows; ++r) {
      if (rng.NextBernoulli(density)) columns[c].push_back(r);
    }
  }
  for (ColumnId c = kBase; c < kCols; ++c) columns[c] = columns[3];
  std::vector<std::vector<ColumnId>> rows(kRows);
  for (ColumnId c = 0; c < kCols; ++c) {
    for (RowId r : columns[c]) rows[r].push_back(c);
  }
  auto built = BinaryMatrix::FromRows(kRows, kCols, rows);
  EXPECT_TRUE(built.ok());
  return std::move(*built);
}

/// Sparse random columns with no planted structure.
BinaryMatrix RandomMatrix(uint64_t seed) {
  constexpr RowId kRows = 400;
  constexpr ColumnId kCols = 80;
  Xoshiro256 rng(seed);
  std::vector<std::vector<ColumnId>> rows(kRows);
  for (RowId r = 0; r < kRows; ++r) {
    for (ColumnId c = 0; c < kCols; ++c) {
      if (rng.NextBernoulli(0.1)) rows[r].push_back(c);
    }
  }
  auto built = BinaryMatrix::FromRows(kRows, kCols, rows);
  EXPECT_TRUE(built.ok());
  return std::move(*built);
}

TEST_F(QueryEngineTest, TopKMatchesLinearScan) {
  struct Case {
    const char* name;
    BinaryMatrix matrix;
    SimilarityIndexConfig config;
    bool singleton_buckets = false;
  };
  std::vector<Case> cases;
  {
    SimilarityIndexConfig config = EngineConfig();
    config.sketch_k = 32;
    cases.push_back({"mixed", MixedMatrix(7), config});
  }
  {
    // r = 32 over low-similarity columns: every bucket is a singleton,
    // so every query leaves the bucket path.
    SimilarityIndexConfig config = EngineConfig();
    config.sketch_k = 16;
    config.rows_per_band = 32;
    config.num_bands = 2;
    cases.push_back({"singleton buckets", RandomMatrix(9), config, true});
  }
  {
    // r = 1: loose buckets, so small k is served from bucket-mates.
    SimilarityIndexConfig config = EngineConfig();
    config.sketch_k = 64;
    config.rows_per_band = 1;
    config.num_bands = 16;
    cases.push_back({"loose buckets", PlantedMatrix(101), config});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto index = BuildIndex(c.matrix, c.config);
    const QueryEngine engine(index);
    const ColumnId m = index->num_cols();
    if (c.singleton_buckets) {
      for (int band = 0; band < index->num_bands(); ++band) {
        for (ColumnId col = 0; col < m; ++col) {
          ASSERT_EQ(index->Bucket(band, col).size(), 1u);
        }
      }
    }
    int bucket_queries = 0;
    int scan_queries = 0;
    for (const int k : {1, 10, static_cast<int>(m) + 5}) {
      for (const double min_similarity : {0.0, 0.25, 0.9}) {
        for (ColumnId col = 0; col < m; ++col) {
          bool bucket_path = false;
          const std::vector<Neighbor> expected =
              ScanTopK(*index, col, k, min_similarity, &bucket_path);
          TopKInfo info;
          auto got = engine.TopK(col, k, min_similarity, &info);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(*got, expected)
              << "col " << col << " k " << k << " min " << min_similarity;
          EXPECT_EQ(info.fallback_scan, !bucket_path) << "col " << col;
          (bucket_path ? bucket_queries : scan_queries) += 1;
        }
      }
    }
    EXPECT_GT(scan_queries, 0);
    if (c.singleton_buckets) {
      EXPECT_EQ(bucket_queries, 0);
    } else {
      EXPECT_GT(bucket_queries, 0);
    }
  }
}

TEST_F(QueryEngineTest, ExactWhenSketchCoversUnion) {
  // sketch_k >= |C_i ∪ C_j| for every pair makes the Theorem 2
  // estimator exact, so PairSimilarity must equal the true Jaccard.
  const BinaryMatrix matrix = PlantedMatrix(61);
  SimilarityIndexConfig config = EngineConfig();
  config.sketch_k = 2048;  // far above any union size at 600 rows
  const QueryEngine engine(BuildIndex(matrix, config));
  for (ColumnId a = 0; a < 10; ++a) {
    for (ColumnId b = a + 1; b < 10; ++b) {
      auto estimate = engine.PairSimilarity(a, b);
      ASSERT_TRUE(estimate.ok());
      BinaryMatrix copy = matrix;
      copy.EnsureColumnMajor();
      EXPECT_NEAR(*estimate, copy.Similarity(a, b), 1e-12);
    }
  }
}

TEST_F(QueryEngineTest, PairSimilarityHandlesEdgeCases) {
  const BinaryMatrix matrix = PlantedMatrix(71);
  const QueryEngine engine(BuildIndex(matrix, EngineConfig()));
  auto self = engine.PairSimilarity(3, 3);
  ASSERT_TRUE(self.ok());
  EXPECT_DOUBLE_EQ(*self, 1.0);

  auto out_of_range = engine.PairSimilarity(0, matrix.num_cols());
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  auto bad_query = engine.TopK(matrix.num_cols(), 3);
  ASSERT_FALSE(bad_query.ok());
  auto bad_k = engine.TopK(0, 0);
  ASSERT_FALSE(bad_k.ok());
}

TEST_F(QueryEngineTest, BatchMatchesSequentialOnAnyPool) {
  const BinaryMatrix matrix = PlantedMatrix(83);
  const QueryEngine engine(BuildIndex(matrix, EngineConfig()));
  std::vector<ColumnId> cols;
  for (ColumnId c = 0; c < matrix.num_cols(); c += 7) cols.push_back(c);

  auto sequential = engine.BatchTopK(cols, 4, 0.0, nullptr);
  ASSERT_TRUE(sequential.ok());
  ASSERT_EQ(sequential->size(), cols.size());

  ThreadPool pool(4);
  auto parallel = engine.BatchTopK(cols, 4, 0.0, &pool);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->size(), cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ((*sequential)[i], (*parallel)[i]) << "query " << cols[i];
  }
}

}  // namespace
}  // namespace sans
