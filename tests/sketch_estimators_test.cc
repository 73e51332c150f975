#include "sketch/estimators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "util/random.h"

namespace sans {
namespace {

TEST(SignatureIntersectionSizeTest, CountsCommonValues) {
  const std::vector<uint64_t> a = {1, 3, 5, 7};
  const std::vector<uint64_t> b = {2, 3, 7, 9};
  EXPECT_EQ(SignatureIntersectionSize(a, b), 2u);
  EXPECT_EQ(SignatureIntersectionSize(a, a), 4u);
  EXPECT_EQ(SignatureIntersectionSize(a, {}), 0u);
}

TEST(EstimateSimilarityUnbiasedTest, ExactOnFullSignatures) {
  // When k covers the whole union the estimator is exact Jaccard.
  // Sets {1,2,3,4} and {3,4,5,6}: J = 2/6.
  const std::vector<uint64_t> a = {1, 2, 3, 4};
  const std::vector<uint64_t> b = {3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased(a, b, 10), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased(a, a, 10), 1.0);
}

TEST(EstimateSimilarityUnbiasedTest, TruncatedUnionCountsCorrectly) {
  // k = 3: SIG_{a∪b} = {1,2,3}; of these, only 3 is in both.
  const std::vector<uint64_t> a = {1, 2, 3};
  const std::vector<uint64_t> b = {3, 4, 5};
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased(a, b, 3), 1.0 / 3.0);
}

TEST(EstimateSimilarityUnbiasedTest, EmptySignaturesGiveZero) {
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased({}, {}, 5), 0.0);
  const std::vector<uint64_t> a = {1};
  EXPECT_DOUBLE_EQ(EstimateSimilarityUnbiased(a, {}, 5), 0.0);
}

/// Theorem 2 over a materialised SIG_{i∪j}: MergeSignatures, then a
/// triple scan counting the union members present in both signatures.
double MergedTheorem2(const std::vector<uint64_t>& a,
                      const std::vector<uint64_t>& b, int k) {
  const std::vector<uint64_t> merged = MergeSignatures(a, b, k);
  if (merged.empty()) return 0.0;
  uint64_t in_both = 0;
  size_t i = 0;
  size_t j = 0;
  for (uint64_t v : merged) {
    while (i < a.size() && a[i] < v) ++i;
    while (j < b.size() && b[j] < v) ++j;
    in_both += i < a.size() && a[i] == v && j < b.size() && b[j] == v;
  }
  return static_cast<double>(in_both) / merged.size();
}

/// Ascending distinct values: each of [0, universe) kept with
/// probability p.
std::vector<uint64_t> RandomSignature(Xoshiro256& rng, uint64_t universe,
                                      double p) {
  std::vector<uint64_t> sig;
  for (uint64_t v = 0; v < universe; ++v) {
    if (rng.NextBernoulli(p)) sig.push_back(v * 7 + 3);
  }
  return sig;
}

TEST(EstimateSimilarityUnbiasedTest, MatchesMergedReferenceBitForBit) {
  const std::vector<uint64_t> empty;
  const std::vector<uint64_t> low = {1, 2, 3, 4, 5, 6};
  const std::vector<uint64_t> high = {10, 20, 30};
  const std::vector<uint64_t> interleaved = {0, 2, 4, 6, 8};
  std::vector<std::pair<std::vector<uint64_t>, std::vector<uint64_t>>> pairs =
      {{empty, empty},   {low, empty},  {empty, high}, {low, high},
       {high, low},      {low, low},    {high, high},  {low, interleaved},
       {interleaved, low}};
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 400; ++trial) {
    const uint64_t universe = 1 + rng.NextBounded(120);
    const double pa = rng.NextDouble();
    const double pb = rng.NextDouble();
    pairs.emplace_back(RandomSignature(rng, universe, pa),
                       RandomSignature(rng, universe, pb));
  }
  for (const auto& [a, b] : pairs) {
    // k from 1 (every union truncated) to far above any union size.
    for (const int k : {1, 2, 3, 5, 8, 16, 40, 64, 1000}) {
      const double expected = MergedTheorem2(a, b, k);
      const double got = EstimateSimilarityUnbiased(a, b, k);
      // Exact double equality: the same count over the same union size.
      EXPECT_EQ(got, expected) << "k=" << k << " |a|=" << a.size()
                               << " |b|=" << b.size();
      EXPECT_EQ(EstimateSimilarityUnbiased(b, a, k), expected);
    }
  }
}

TEST(EstimateSimilarityBiasedTest, ZeroCardinalityGivesZero) {
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(0, 0, 10, 5), 0.0);
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(0, 10, 0, 5), 0.0);
}

TEST(EstimateSimilarityBiasedTest, FullOverlapEstimatesOne) {
  // Identical columns of cardinality 100 at k = 20: expected
  // intersection is 20, implying |C_ij| = 100 and similarity 1.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(20, 100, 100, 20), 1.0);
}

TEST(EstimateSimilarityBiasedTest, SmallColumnsAreExact) {
  // Cardinalities below k: signatures are the full sets, so the
  // intersection count is exact. |C_a| = 4, |C_b| = 6, t = 2:
  // similarity = 2 / (4 + 6 - 2) = 0.25.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(2, 4, 6, 50), 0.25);
}

TEST(EstimateSimilarityBiasedTest, ClampsToValidRange) {
  // Noisy over-count cannot push the estimate above 1.
  const double s = EstimateSimilarityBiased(20, 100, 20, 20);
  EXPECT_LE(s, 1.0);
  EXPECT_GE(s, 0.0);
}

TEST(EstimateSimilarityBiasedTest, EqualCardinalitiesNeitherSideFavored) {
  // card_a == card_b: the larger/smaller split is degenerate and must
  // not bias the estimate. |C_a| = |C_b| = 200, k = 50, t = 25:
  // |C_ij| = 25 * 200 / 50 = 100, similarity = 100 / 300 = 1/3.
  const double s = EstimateSimilarityBiased(25, 200, 200, 50);
  EXPECT_DOUBLE_EQ(s, 100.0 / 300.0);
  // Symmetric by construction.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(25, 200, 200, 50),
                   EstimateSimilarityBiased(25, 200, 200, 50));
}

TEST(EstimateSimilarityBiasedTest, IntersectionAboveKEffIsCapped) {
  // t > k_eff is impossible in expectation but reachable through
  // noise; the implied |C_ij| must cap at the smaller cardinality so
  // the similarity stays in range. k_eff = min(20, 100) = 20, t = 40
  // implies |C_ij| = 200 > |C_b| = 50 -> capped at 50.
  const double s = EstimateSimilarityBiased(40, 100, 50, 20);
  EXPECT_DOUBLE_EQ(s, 50.0 / (100.0 + 50.0 - 50.0));
  EXPECT_LE(s, 1.0);
}

TEST(EstimateSimilarityBiasedTest, KLargerThanBothCardinalities) {
  // k > |C_a| and k > |C_b|: k_eff collapses to the larger
  // cardinality and the estimator is exact. |C_a| = 3, |C_b| = 5,
  // t = 3 (one column contained in the other): similarity = 3/5.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(3, 3, 5, 1000), 0.6);
  // Disjoint small columns: zero intersection, zero similarity.
  EXPECT_DOUBLE_EQ(EstimateSimilarityBiased(0, 3, 5, 1000), 0.0);
}

TEST(EstimateSimilarityBiasedTest, TracksTruthOnRandomData) {
  SyntheticConfig config;
  config.num_rows = 4000;
  config.num_cols = 10;
  config.bands = {{1, 50.0, 51.0}};
  config.spread_pairs = false;
  config.min_density = 0.08;
  config.max_density = 0.12;
  config.seed = 17;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());
  const ColumnPair planted = dataset->planted[0].pair;
  const double truth =
      dataset->matrix.Similarity(planted.first, planted.second);

  KMinHashConfig sketch_config;
  sketch_config.k = 256;
  sketch_config.seed = 23;
  KMinHashGenerator generator(sketch_config);
  InMemoryRowStream stream(&dataset->matrix);
  auto sketch = generator.Compute(&stream);
  ASSERT_TRUE(sketch.ok());

  const uint64_t t = SignatureIntersectionSize(
      sketch->Signature(planted.first), sketch->Signature(planted.second));
  const double estimate = EstimateSimilarityBiased(
      t, sketch->ColumnCardinality(planted.first),
      sketch->ColumnCardinality(planted.second), sketch_config.k);
  EXPECT_NEAR(estimate, truth, 0.12);
}

TEST(Lemma1BoundsTest, BracketsTrueSimilarity) {
  // t / min(2k, |union|) <= S <= t / min(k, |union|).
  const SimilarityBounds bounds = Lemma1Bounds(10, 200, 20);
  EXPECT_DOUBLE_EQ(bounds.lower, 10.0 / 40.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 10.0 / 20.0);
  EXPECT_LE(bounds.lower, bounds.upper);
}

TEST(Lemma1BoundsTest, SmallUnionUsesUnionSize) {
  const SimilarityBounds bounds = Lemma1Bounds(3, 8, 20);
  EXPECT_DOUBLE_EQ(bounds.lower, 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 3.0 / 8.0);
}

TEST(Lemma1BoundsTest, EmptyUnionGivesZeros) {
  const SimilarityBounds bounds = Lemma1Bounds(0, 0, 20);
  EXPECT_DOUBLE_EQ(bounds.lower, 0.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 0.0);
}

TEST(BiasedCandidateThresholdTest, ScalesWithParameters) {
  EXPECT_EQ(BiasedCandidateThreshold(0.5, 100, 1.0), 50u);
  EXPECT_EQ(BiasedCandidateThreshold(0.5, 100, 0.5), 25u);
  // Never below 1.
  EXPECT_EQ(BiasedCandidateThreshold(0.01, 10, 0.5), 1u);
  EXPECT_EQ(BiasedCandidateThreshold(0.0, 100, 1.0), 1u);
}

}  // namespace
}  // namespace sans
