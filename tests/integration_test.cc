// Cross-module integration: disk-resident pipeline end to end, miner
// agreement with a-priori (the Section 5 claim), and the optimizer →
// M-LSH → verification chain.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "data/news_generator.h"
#include "data/weblog_generator.h"
#include "eval/metrics.h"
#include "lsh/distribution_estimator.h"
#include "matrix/table_file.h"
#include "mine/apriori.h"
#include "mine/brute_force.h"
#include "mine/kmh_miner.h"
#include "mine/mh_miner.h"
#include "mine/mlsh_miner.h"

namespace sans {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process unique dir: ctest runs each test case as its own
    // process, so a static counter alone would collide in parallel.
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_integration_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static int counter_;
  std::filesystem::path dir_;
};

int IntegrationTest::counter_ = 0;

TEST_F(IntegrationTest, DiskResidentPipelineMatchesInMemory) {
  // Generate → write table file → mine from disk → compare against
  // mining from memory. The two paths must agree bit-for-bit because
  // all randomness is seeded and rows stream in the same order.
  WeblogConfig config;
  config.num_clients = 4000;
  config.num_urls = 300;
  config.num_bundles = 15;
  config.seed = 31;
  auto dataset = GenerateWeblog(config);
  ASSERT_TRUE(dataset.ok());

  const std::string path = Path("weblog.sans");
  ASSERT_TRUE(WriteTableFile(dataset->matrix, path).ok());
  auto file_source = TableFileSource::Create(path);
  ASSERT_TRUE(file_source.ok());
  InMemorySource memory_source(&dataset->matrix);

  MhMinerConfig miner_config;
  miner_config.min_hash.num_hashes = 80;
  miner_config.min_hash.seed = 17;
  MhMiner from_disk(miner_config);
  MhMiner from_memory(miner_config);

  auto disk_report = from_disk.Mine(*file_source, 0.5);
  auto memory_report = from_memory.Mine(memory_source, 0.5);
  ASSERT_TRUE(disk_report.ok());
  ASSERT_TRUE(memory_report.ok());
  EXPECT_EQ(disk_report->num_candidates, memory_report->num_candidates);
  ASSERT_EQ(disk_report->pairs.size(), memory_report->pairs.size());
  for (size_t i = 0; i < disk_report->pairs.size(); ++i) {
    EXPECT_EQ(disk_report->pairs[i].pair, memory_report->pairs[i].pair);
    EXPECT_DOUBLE_EQ(disk_report->pairs[i].similarity,
                     memory_report->pairs[i].similarity);
  }
}

TEST_F(IntegrationTest, MinersReportSamePairsAsApriori) {
  // Section 5: "although our algorithms are probabilistic, they
  // report the same set of pairs as that reported by a priori." At a
  // support threshold low enough to keep every column, a-priori's
  // similar pairs are the complete answer; MH with generous k must
  // match it exactly.
  NewsConfig config;
  config.num_docs = 3000;
  config.vocab_size = 400;
  config.num_collocations = 8;
  config.collocation_docs = 20;
  config.num_clusters = 1;
  config.seed = 41;
  auto dataset = GenerateNews(config);
  ASSERT_TRUE(dataset.ok());

  const double threshold = 0.6;
  auto apriori = AprioriSimilarPairs(dataset->matrix, 1e-4, threshold);
  ASSERT_TRUE(apriori.ok());
  ASSERT_GT(apriori->pairs.size(), 0u);

  InMemorySource source(&dataset->matrix);
  MhMinerConfig miner_config;
  miner_config.min_hash.num_hashes = 300;
  miner_config.min_hash.seed = 19;
  miner_config.delta = 0.4;
  MhMiner miner(miner_config);
  auto report = miner.Mine(source, threshold);
  ASSERT_TRUE(report.ok());

  ASSERT_EQ(report->pairs.size(), apriori->pairs.size());
  for (size_t i = 0; i < report->pairs.size(); ++i) {
    EXPECT_EQ(report->pairs[i].pair, apriori->pairs[i].pair);
  }
}

TEST_F(IntegrationTest, OptimizerDrivenMlshMeetsItsBudget) {
  // Estimate the similarity distribution by sampling, optimize (r, l)
  // for a false-negative budget, run M-LSH, and check the realized
  // false negatives respect the budget (with sampling slack).
  WeblogConfig config;
  config.num_clients = 6000;
  config.num_urls = 400;
  config.num_bundles = 25;
  config.seed = 51;
  auto dataset = GenerateWeblog(config);
  ASSERT_TRUE(dataset.ok());

  auto truth_pairs = BruteForceAllNonzeroPairs(dataset->matrix);
  ASSERT_TRUE(truth_pairs.ok());
  const GroundTruth truth(*truth_pairs);
  const double threshold = 0.5;
  const uint64_t total_true = truth.CountAtOrAbove(threshold);
  ASSERT_GT(total_true, 0u);

  DistributionEstimatorOptions est_options;
  est_options.sample_columns = 200;
  est_options.seed = 7;
  auto distr = EstimateSimilarityDistribution(dataset->matrix, est_options);
  ASSERT_TRUE(distr.ok());

  LshOptimizerOptions opt_options;
  opt_options.s0 = threshold;
  opt_options.max_false_negatives =
      std::max(1.0, 0.05 * static_cast<double>(total_true));
  opt_options.max_false_positives = 1e6;
  auto miner = MlshMiner::FromDistribution(*distr, opt_options, 3);
  ASSERT_TRUE(miner.ok());

  InMemorySource source(&dataset->matrix);
  auto report = miner->Mine(source, threshold);
  ASSERT_TRUE(report.ok());
  const PairMetrics metrics = ScorePairs(
      truth,
      [&] {
        std::vector<ColumnPair> found;
        for (const SimilarPair& p : report->pairs) found.push_back(p.pair);
        return found;
      }(),
      threshold);
  // Budget 5%; allow 3x slack for the sampled distribution estimate.
  EXPECT_LE(metrics.false_negatives,
            std::max<uint64_t>(3, total_true * 15 / 100));
}

TEST_F(IntegrationTest, KmhPipelineOnDiskData) {
  WeblogConfig config;
  config.num_clients = 3000;
  config.num_urls = 250;
  config.num_bundles = 12;
  config.seed = 61;
  auto dataset = GenerateWeblog(config);
  ASSERT_TRUE(dataset.ok());

  const std::string path = Path("weblog2.sans");
  ASSERT_TRUE(WriteTableFile(dataset->matrix, path).ok());
  auto source = TableFileSource::Create(path);
  ASSERT_TRUE(source.ok());

  KmhMinerConfig miner_config;
  miner_config.sketch.k = 100;
  miner_config.sketch.seed = 23;
  miner_config.hash_count_slack = 0.4;
  KmhMiner miner(miner_config);
  auto report = miner.Mine(*source, 0.6);
  ASSERT_TRUE(report.ok());
  // Output correctness against brute force: no false positives, and
  // exact similarity values.
  for (const SimilarPair& p : report->pairs) {
    EXPECT_GE(dataset->matrix.Similarity(p.pair.first, p.pair.second),
              0.6);
  }
  // Bundles of near-1.0 pairs must be found.
  uint64_t very_similar_found = 0;
  for (const SimilarPair& p : report->pairs) {
    if (p.similarity >= 0.9) ++very_similar_found;
  }
  auto truth = BruteForceSimilarPairs(dataset->matrix, 0.9);
  ASSERT_TRUE(truth.ok());
  EXPECT_GE(very_similar_found + 1, truth->size());  // at most 1 miss
}

}  // namespace
}  // namespace sans
