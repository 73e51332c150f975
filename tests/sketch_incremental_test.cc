#include "sketch/incremental.h"

#include <gtest/gtest.h>

#include "data/weblog_generator.h"
#include "matrix/row_stream.h"
#include "sketch/estimators.h"

namespace sans {
namespace {

WeblogDataset TestData() {
  WeblogConfig config;
  config.num_clients = 3000;
  config.num_urls = 200;
  config.num_bundles = 10;
  config.seed = 13;
  auto d = GenerateWeblog(config);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

/// Asserts two sketches are identical.
void ExpectSameSketch(const KMinHashSketch& a, const KMinHashSketch& b) {
  ASSERT_EQ(a.k(), b.k());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (ColumnId c = 0; c < a.num_cols(); ++c) {
    const auto sa = a.Signature(c);
    const auto sb = b.Signature(c);
    ASSERT_EQ(std::vector<uint64_t>(sa.begin(), sa.end()),
              std::vector<uint64_t>(sb.begin(), sb.end()))
        << "column " << c;
    ASSERT_EQ(a.ColumnCardinality(c), b.ColumnCardinality(c))
        << "column " << c;
  }
}

TEST(IncrementalKMinHashTest, AddAllMatchesBatchGenerator) {
  const WeblogDataset data = TestData();
  KMinHashConfig config;
  config.k = 32;
  config.seed = 5;

  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&data.matrix);
  auto batch = generator.Compute(&stream);
  ASSERT_TRUE(batch.ok());

  IncrementalKMinHashBuilder builder(config, data.matrix.num_cols());
  InMemoryRowStream stream2(&data.matrix);
  ASSERT_TRUE(builder.AddAll(&stream2).ok());
  ExpectSameSketch(builder.Snapshot(), *batch);
  EXPECT_EQ(builder.rows_ingested(), data.matrix.num_rows());
}

TEST(IncrementalKMinHashTest, RowAtATimeMatchesBatch) {
  const WeblogDataset data = TestData();
  KMinHashConfig config;
  config.k = 16;
  config.seed = 7;

  IncrementalKMinHashBuilder builder(config, data.matrix.num_cols());
  for (RowId r = 0; r < data.matrix.num_rows(); ++r) {
    ASSERT_TRUE(builder.AddRow(r, data.matrix.Row(r)).ok());
  }

  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&data.matrix);
  auto batch = generator.Compute(&stream);
  ASSERT_TRUE(batch.ok());
  ExpectSameSketch(builder.Snapshot(), *batch);
}

TEST(IncrementalKMinHashTest, SnapshotsAreUsableMidStream) {
  // The growing-log scenario: estimates from a half-time snapshot are
  // already meaningful and the builder keeps working afterwards.
  const WeblogDataset data = TestData();
  KMinHashConfig config;
  config.k = 64;
  config.seed = 9;
  IncrementalKMinHashBuilder builder(config, data.matrix.num_cols());
  const RowId half = data.matrix.num_rows() / 2;
  for (RowId r = 0; r < half; ++r) {
    ASSERT_TRUE(builder.AddRow(r, data.matrix.Row(r)).ok());
  }
  const KMinHashSketch early = builder.Snapshot();
  for (RowId r = half; r < data.matrix.num_rows(); ++r) {
    ASSERT_TRUE(builder.AddRow(r, data.matrix.Row(r)).ok());
  }
  const KMinHashSketch late = builder.Snapshot();

  // Pick the densest bundle pair and require the late estimate to be
  // at least as informed (both should be near the true similarity).
  const UrlBundle& bundle = data.bundles[0];
  ASSERT_FALSE(bundle.resources.empty());
  const ColumnId a = bundle.parent;
  const ColumnId b = bundle.resources[0];
  const double truth = data.matrix.Similarity(a, b);
  const double late_estimate = EstimateSimilarityUnbiased(
      late.Signature(a), late.Signature(b), config.k);
  EXPECT_NEAR(late_estimate, truth, 0.2);
  // The early snapshot is internally consistent (cardinalities count
  // only ingested rows).
  EXPECT_LE(early.ColumnCardinality(a), late.ColumnCardinality(a));
}

TEST(IncrementalKMinHashTest, MergeOfPartitionsMatchesBatch) {
  const WeblogDataset data = TestData();
  KMinHashConfig config;
  config.k = 32;
  config.seed = 11;

  // Three builders over striped row partitions.
  std::vector<IncrementalKMinHashBuilder> parts;
  for (int p = 0; p < 3; ++p) {
    parts.emplace_back(config, data.matrix.num_cols());
  }
  for (RowId r = 0; r < data.matrix.num_rows(); ++r) {
    ASSERT_TRUE(parts[r % 3].AddRow(r, data.matrix.Row(r)).ok());
  }
  ASSERT_TRUE(parts[0].Merge(parts[1]).ok());
  ASSERT_TRUE(parts[0].Merge(parts[2]).ok());

  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&data.matrix);
  auto batch = generator.Compute(&stream);
  ASSERT_TRUE(batch.ok());
  ExpectSameSketch(parts[0].Snapshot(), *batch);
  EXPECT_EQ(parts[0].rows_ingested(), data.matrix.num_rows());
}

TEST(IncrementalKMinHashTest, MergeRejectsMismatchedConfigs) {
  KMinHashConfig a;
  a.k = 8;
  a.seed = 1;
  KMinHashConfig b = a;
  b.seed = 2;
  IncrementalKMinHashBuilder builder_a(a, 4);
  IncrementalKMinHashBuilder builder_b(b, 4);
  EXPECT_FALSE(builder_a.Merge(builder_b).ok());

  KMinHashConfig c = a;
  c.k = 16;
  IncrementalKMinHashBuilder builder_c(c, 4);
  EXPECT_FALSE(builder_a.Merge(builder_c).ok());

  IncrementalKMinHashBuilder builder_wide(a, 8);
  EXPECT_FALSE(builder_a.Merge(builder_wide).ok());
}

TEST(IncrementalKMinHashTest, RejectsOutOfRangeColumns) {
  KMinHashConfig config;
  config.k = 4;
  IncrementalKMinHashBuilder builder(config, 3);
  const ColumnId bad[] = {5};
  EXPECT_EQ(builder.AddRow(0, bad).code(), StatusCode::kOutOfRange);

  // A row whose bad column follows a good one is rejected whole: the
  // good column gets neither the row's hash nor a cardinality bump.
  const ColumnId good[] = {1, 2};
  ASSERT_TRUE(builder.AddRow(1, good).ok());
  const KMinHashSketch before = builder.Snapshot();
  const uint64_t rows_before = builder.rows_ingested();
  const ColumnId half_bad[] = {0, 5};
  EXPECT_EQ(builder.AddRow(2, half_bad).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(builder.rows_ingested(), rows_before);
  ExpectSameSketch(builder.Snapshot(), before);
  EXPECT_EQ(builder.Snapshot().ColumnCardinality(0), 0u);
}

TEST(IncrementalKMinHashTest, EmptyRowsCountOnlyIngestion) {
  KMinHashConfig config;
  config.k = 4;
  IncrementalKMinHashBuilder builder(config, 2);
  ASSERT_TRUE(builder.AddRow(0, {}).ok());
  EXPECT_EQ(builder.rows_ingested(), 1u);
  const KMinHashSketch sketch = builder.Snapshot();
  EXPECT_TRUE(sketch.Signature(0).empty());
  EXPECT_EQ(sketch.ColumnCardinality(0), 0u);
}

}  // namespace
}  // namespace sans
