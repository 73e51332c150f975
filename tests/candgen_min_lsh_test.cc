#include "candgen/min_lsh.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "sketch/min_hash.h"

namespace sans {
namespace {

TEST(MinLshConfigTest, Validation) {
  MinLshConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.rows_per_band = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.rows_per_band = 2;
  config.num_bands = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(MinLshTest, IdenticalColumnsAlwaysCollide) {
  SignatureMatrix sig(6, 3);
  for (int l = 0; l < 6; ++l) {
    sig.SetValue(l, 0, 100 + l);
    sig.SetValue(l, 1, 100 + l);  // identical to column 0
    sig.SetValue(l, 2, 900 + l);  // disjoint
  }
  MinLshConfig config;
  config.rows_per_band = 2;
  config.num_bands = 3;
  MinLshCandidateGenerator generator(config);
  auto candidates = generator.Generate(sig);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE(candidates->Contains(ColumnPair(0, 1)));
  // Identical columns collide in every band.
  EXPECT_EQ(candidates->Count(ColumnPair(0, 1)), 3u);
  EXPECT_FALSE(candidates->Contains(ColumnPair(0, 2)));
  EXPECT_FALSE(candidates->Contains(ColumnPair(1, 2)));
}

TEST(MinLshTest, BandedModeRequiresMatchingK) {
  SignatureMatrix sig(5, 2);
  MinLshConfig config;
  config.rows_per_band = 2;
  config.num_bands = 3;  // needs k = 6
  MinLshCandidateGenerator generator(config);
  auto candidates = generator.Generate(sig);
  EXPECT_FALSE(candidates.ok());
  EXPECT_EQ(candidates.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinLshTest, BandIndicesBandedAreDisjointSlices) {
  MinLshConfig config;
  config.rows_per_band = 3;
  config.num_bands = 4;
  MinLshCandidateGenerator generator(config);
  const auto band0 = generator.BandIndices(0, 12);
  const auto band2 = generator.BandIndices(2, 12);
  EXPECT_EQ(band0, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(band2, (std::vector<int>{6, 7, 8}));
}

TEST(MinLshTest, BandIndicesSampledAreDeterministicAndInRange) {
  MinLshConfig config;
  config.rows_per_band = 5;
  config.num_bands = 3;
  config.sampled = true;
  config.seed = 9;
  MinLshCandidateGenerator g1(config);
  MinLshCandidateGenerator g2(config);
  for (int band = 0; band < 3; ++band) {
    const auto i1 = g1.BandIndices(band, 10);
    const auto i2 = g2.BandIndices(band, 10);
    EXPECT_EQ(i1, i2);
    for (int idx : i1) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, 10);
    }
  }
  // Different bands draw different index sets (w.h.p.).
  EXPECT_NE(g1.BandIndices(0, 10), g1.BandIndices(1, 10));
}

TEST(MinLshTest, SampledModeWorksWithFewerHashes) {
  SignatureMatrix sig(4, 2);
  for (int l = 0; l < 4; ++l) {
    sig.SetValue(l, 0, 7 + l);
    sig.SetValue(l, 1, 7 + l);
  }
  MinLshConfig config;
  config.rows_per_band = 3;
  config.num_bands = 10;  // r*l = 30 > k = 4: only legal when sampled
  config.sampled = true;
  MinLshCandidateGenerator generator(config);
  auto candidates = generator.Generate(sig);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->Count(ColumnPair(0, 1)), 10u);
}

TEST(MinLshTest, EmptyColumnsAreNeverBucketed) {
  SignatureMatrix sig(4, 3);
  for (int l = 0; l < 4; ++l) {
    sig.SetValue(l, 0, 3 + l);
  }
  // Columns 1 and 2 stay empty (all-sentinel): they must not collide
  // with each other despite identical (sentinel) signatures.
  MinLshConfig config;
  config.rows_per_band = 2;
  config.num_bands = 2;
  MinLshCandidateGenerator generator(config);
  auto candidates = generator.Generate(sig);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE(candidates->empty());
}

TEST(MinLshTest, RecallGrowsWithBandsAndShrinksWithRows) {
  // On generated data with planted pairs at ~0.7 similarity, more
  // bands must not lose pairs and more rows per band must not gain
  // spurious ones — the Fig. 8 monotonicity.
  SyntheticConfig data;
  data.num_rows = 1500;
  data.num_cols = 60;
  data.bands = {{6, 68.0, 72.0}};
  data.spread_pairs = false;
  data.min_density = 0.05;
  data.max_density = 0.1;
  data.seed = 77;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());

  MinHashConfig mh;
  mh.num_hashes = 60;
  mh.seed = 10;
  MinHashGenerator generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());

  const auto recall_at = [&](int r, int l) {
    MinLshConfig config;
    config.rows_per_band = r;
    config.num_bands = l;
    config.sampled = true;
    config.seed = 5;
    MinLshCandidateGenerator g(config);
    auto candidates = g.Generate(*sig);
    EXPECT_TRUE(candidates.ok());
    int found = 0;
    for (const PlantedPair& p : dataset->planted) {
      if (candidates->Contains(p.pair)) ++found;
    }
    return static_cast<double>(found) / dataset->planted.size();
  };

  // l sweep at fixed r: recall non-decreasing in expectation; allow
  // tiny slack for sampling noise.
  EXPECT_LE(recall_at(4, 1), recall_at(4, 12) + 0.17);
  EXPECT_GE(recall_at(4, 12), recall_at(4, 1));
  // r sweep at fixed l: recall non-increasing (sharper filter).
  EXPECT_GE(recall_at(2, 4) + 0.17, recall_at(10, 4));
}

TEST(MinLshTest, ParallelGenerateMatchesSequential) {
  // Per-band parallel banding merged in band order must reproduce the
  // sequential candidate multiset exactly, in both banded and sampled
  // modes.
  SyntheticConfig data;
  data.num_rows = 800;
  data.num_cols = 50;
  data.bands = {{5, 55.0, 85.0}};
  data.spread_pairs = false;
  data.min_density = 0.05;
  data.max_density = 0.1;
  data.seed = 31;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());

  MinHashConfig mh;
  mh.num_hashes = 24;
  mh.seed = 4;
  MinHashGenerator mh_generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = mh_generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());

  for (bool sampled : {false, true}) {
    MinLshConfig config;
    config.rows_per_band = 4;
    config.num_bands = 6;
    config.sampled = sampled;
    config.seed = 9;
    MinLshCandidateGenerator generator(config);
    auto sequential = generator.Generate(*sig);
    ASSERT_TRUE(sequential.ok());
    for (int threads : {2, 3, 8}) {
      ThreadPool pool(threads);
      auto parallel = generator.Generate(*sig, &pool);
      ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
      EXPECT_EQ(parallel->SortedEntries(), sequential->SortedEntries())
          << "sampled=" << sampled << " threads=" << threads;
    }
  }
}

// Naive banding: for every band, group the non-empty columns by the
// tuple of their r band values (no key hashing) and count each
// bucket-mate pair once per band.
std::vector<std::pair<ColumnPair, uint64_t>> NaiveBanding(
    const MinLshCandidateGenerator& generator, const SignatureMatrix& sig) {
  std::map<ColumnPair, uint64_t> counts;
  for (int band = 0; band < generator.config().num_bands; ++band) {
    const std::vector<int> indices =
        generator.BandIndices(band, sig.num_hashes());
    std::map<std::vector<uint64_t>, std::vector<ColumnId>> buckets;
    for (ColumnId c = 0; c < sig.num_cols(); ++c) {
      if (sig.ColumnEmpty(c)) continue;
      std::vector<uint64_t> key;
      for (int idx : indices) key.push_back(sig.Value(idx, c));
      buckets[key].push_back(c);
    }
    for (const auto& [key, cols] : buckets) {
      for (size_t a = 0; a < cols.size(); ++a) {
        for (size_t b = a + 1; b < cols.size(); ++b) {
          ++counts[ColumnPair(cols[a], cols[b])];
        }
      }
    }
  }
  return {counts.begin(), counts.end()};
}

TEST(MinLshTest, EveryThreadCountMatchesNaiveBanding) {
  // Seven bands: not a multiple of 2, 3 or 8 workers, so the last
  // worker's band stride is short.
  SyntheticConfig data;
  data.num_rows = 800;
  data.num_cols = 60;
  data.bands = {{6, 55.0, 85.0}};
  data.spread_pairs = false;
  data.min_density = 0.05;
  data.max_density = 0.1;
  data.seed = 37;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());

  MinHashConfig mh;
  mh.num_hashes = 21;
  mh.seed = 8;
  MinHashGenerator mh_generator(mh);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = mh_generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());

  for (bool sampled : {false, true}) {
    MinLshConfig config;
    config.rows_per_band = 3;
    config.num_bands = 7;
    config.sampled = sampled;
    config.seed = 2;
    MinLshCandidateGenerator generator(config);
    const auto expected = NaiveBanding(generator, *sig);
    ASSERT_FALSE(expected.empty());
    auto unpooled = generator.Generate(*sig, nullptr);
    ASSERT_TRUE(unpooled.ok());
    EXPECT_EQ(unpooled->SortedEntries(), expected) << "sampled=" << sampled;
    for (int threads : {1, 2, 3, 8}) {
      ThreadPool pool(threads);
      auto candidates = generator.Generate(*sig, &pool);
      ASSERT_TRUE(candidates.ok()) << "threads=" << threads;
      EXPECT_EQ(candidates->SortedEntries(), expected)
          << "sampled=" << sampled << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace sans
