#include "sketch/min_hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "mine/parallel.h"
#include "seed_param.h"
#include "util/crc32c.h"

namespace sans {
namespace {

BinaryMatrix PaperExample() {
  auto m = BinaryMatrix::FromRows(4, 3, {{0, 1}, {0, 1}, {1, 2}, {2}});
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST(MinHashConfigTest, Validation) {
  MinHashConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_hashes = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(RecommendedNumHashesTest, MatchesTheoremFormula) {
  // k = ceil(2 δ⁻² c⁻¹ ln ε⁻¹).
  const double delta = 0.2;
  const double epsilon = 0.05;
  const double c = 0.5;
  const double expected =
      std::ceil(2.0 / (delta * delta * c) * std::log(1.0 / epsilon));
  EXPECT_EQ(RecommendedNumHashes(delta, epsilon, c),
            static_cast<int>(expected));
  // Tighter accuracy and rarer failure need more hashes.
  EXPECT_GT(RecommendedNumHashes(0.1, epsilon, c),
            RecommendedNumHashes(0.2, epsilon, c));
  EXPECT_GT(RecommendedNumHashes(delta, 0.01, c),
            RecommendedNumHashes(delta, 0.1, c));
}

TEST(MinHashGeneratorTest, SignatureShape) {
  const BinaryMatrix m = PaperExample();
  MinHashConfig config;
  config.num_hashes = 16;
  config.seed = 1;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());
  EXPECT_EQ(signatures->num_hashes(), 16);
  EXPECT_EQ(signatures->num_cols(), 3u);
  for (ColumnId c = 0; c < 3; ++c) {
    EXPECT_FALSE(signatures->ColumnEmpty(c));
  }
}

TEST(MinHashGeneratorTest, DeterministicFromSeed) {
  const BinaryMatrix m = PaperExample();
  MinHashConfig config;
  config.num_hashes = 8;
  config.seed = 7;
  MinHashGenerator g1(config);
  MinHashGenerator g2(config);
  InMemoryRowStream s1(&m);
  InMemoryRowStream s2(&m);
  auto sig1 = g1.Compute(&s1);
  auto sig2 = g2.Compute(&s2);
  ASSERT_TRUE(sig1.ok());
  ASSERT_TRUE(sig2.ok());
  for (int l = 0; l < 8; ++l) {
    for (ColumnId c = 0; c < 3; ++c) {
      EXPECT_EQ(sig1->Value(l, c), sig2->Value(l, c));
    }
  }
}

TEST(MinHashGeneratorTest, MinHashValueIsMinOverColumnRows) {
  // For every hash function, the column's signature must equal the
  // min of the row hashes over the rows containing a 1 — checked by
  // recomputing with the same bank seedings via a 1-hash generator per
  // index is impractical, so instead validate the defining property:
  // the signature of a column equals the min over singleton columns of
  // its rows. Construct a matrix where each row has its own witness
  // column plus a shared column.
  // Columns: 0 = rows {0,1,2}; 1..3 = singleton rows {0},{1},{2}.
  auto m = BinaryMatrix::FromRows(3, 4, {{0, 1}, {0, 2}, {0, 3}});
  ASSERT_TRUE(m.ok());
  MinHashConfig config;
  config.num_hashes = 12;
  config.seed = 3;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&*m);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());
  for (int l = 0; l < 12; ++l) {
    const uint64_t shared = sig->Value(l, 0);
    const uint64_t min_single =
        std::min({sig->Value(l, 1), sig->Value(l, 2), sig->Value(l, 3)});
    EXPECT_EQ(shared, min_single);
  }
}

TEST(MinHashGeneratorTest, EmptyColumnStaysSentinel) {
  auto m = BinaryMatrix::FromRows(2, 2, {{0}, {0}});
  ASSERT_TRUE(m.ok());
  MinHashConfig config;
  config.num_hashes = 4;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&*m);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(sig->ColumnEmpty(1));
  EXPECT_FALSE(sig->ColumnEmpty(0));
}

TEST(MinHashGeneratorTest, ReportsCardinalities) {
  const BinaryMatrix m = PaperExample();
  MinHashConfig config;
  config.num_hashes = 4;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  std::vector<uint64_t> cards;
  auto sig = generator.Compute(&stream, &cards);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(cards, (std::vector<uint64_t>{2, 3, 2}));
}

TEST(MinHashGeneratorTest, Proposition1EstimateConverges) {
  // Prob[h(c_i) = h(c_j)] = S(c_i, c_j): with k = 2000 functions the
  // fraction-equal estimate lands within ~3 standard deviations of
  // the true similarity 2/3 and 1/4 of the paper example.
  const BinaryMatrix m = PaperExample();
  MinHashConfig config;
  config.num_hashes = 2000;
  config.seed = 11;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());
  // sigma = sqrt(s(1-s)/k) ~ 0.0105 for s = 2/3.
  EXPECT_NEAR(sig->FractionEqual(0, 1), 2.0 / 3.0, 0.04);
  EXPECT_NEAR(sig->FractionEqual(1, 2), 0.25, 0.04);
  EXPECT_DOUBLE_EQ(sig->FractionEqual(0, 2), 0.0);
}

class MinHashFamilyTest : public ::testing::TestWithParam<SeedParam> {};

TEST_P(MinHashFamilyTest, AllFamiliesEstimateSimilarity) {
  SyntheticConfig data_config;
  data_config.num_rows = 2000;
  data_config.num_cols = 10;
  data_config.bands = {{1, 70.0, 71.0}};
  data_config.spread_pairs = false;
  data_config.min_density = 0.1;
  data_config.max_density = 0.2;
  data_config.seed = 5;
  auto dataset = GenerateSynthetic(data_config);
  ASSERT_TRUE(dataset.ok());
  const ColumnPair planted = dataset->planted[0].pair;
  const double truth =
      dataset->matrix.Similarity(planted.first, planted.second);

  MinHashConfig config;
  config.num_hashes = 800;
  config.seed = 21 + GetParam().offset;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&dataset->matrix);
  auto sig = generator.Compute(&stream);
  ASSERT_TRUE(sig.ok());
  EXPECT_NEAR(sig->FractionEqual(planted.first, planted.second), truth,
              0.07);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, MinHashFamilyTest,
                         ::testing::ValuesIn(kSeedOffsets));

// ---- Byte identity across thread counts, and pinned output bytes ----

// Deterministic table built from Mix64 alone (no generator), so its
// bytes cannot drift with the data generators: 3000 rows, 70 columns
// of densities from 1% to 35%, columns 13 and 69 never set, every
// 10th row empty.
BinaryMatrix PinnedMatrix() {
  const RowId num_rows = 3000;
  const ColumnId num_cols = 70;
  std::vector<std::vector<ColumnId>> rows(num_rows);
  for (RowId r = 0; r < num_rows; ++r) {
    if (r % 10 == 9) continue;
    for (ColumnId c = 0; c < num_cols; ++c) {
      if (c == 13 || c == 69) continue;
      if (Mix64(uint64_t{r} << 8 | c) % 100 < 1 + c / 2) {
        rows[r].push_back(c);
      }
    }
  }
  auto m = BinaryMatrix::FromRows(num_rows, num_cols, rows);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

// CRC32C of the matrix's bytes, hash row by hash row.
uint32_t SignatureCrc(const SignatureMatrix& signatures) {
  uint32_t crc = 0;
  for (int l = 0; l < signatures.num_hashes(); ++l) {
    const auto row = signatures.HashRow(l);
    crc = Crc32cExtend(crc, row.data(), row.size() * sizeof(uint64_t));
  }
  return crc;
}

Result<SignatureMatrix> ComputeAtThreads(const BinaryMatrix& m,
                                         const MinHashConfig& config,
                                         int threads) {
  ExecutionConfig execution;
  execution.num_threads = threads;
  execution.block_rows = 100;  // many blocks, none a kernel flush size
  std::unique_ptr<ThreadPool> pool = MaybeCreatePool(execution);
  InMemorySource source(&m);
  return ComputeMinHashParallel(source, config, execution, pool.get());
}

class MinHashThreadInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(MinHashThreadInvarianceTest, ByteIdenticalAcrossThreadCounts) {
  const BinaryMatrix m = PinnedMatrix();
  MinHashConfig config;
  config.num_hashes = GetParam();
  config.seed = 17;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sequential = generator.Compute(&stream);
  ASSERT_TRUE(sequential.ok());
  for (int threads : {1, 2, 3, 8}) {
    auto parallel = ComputeAtThreads(m, config, threads);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->num_hashes(), config.num_hashes);
    ASSERT_EQ(parallel->num_cols(), m.num_cols());
    for (int l = 0; l < config.num_hashes; ++l) {
      const auto a = parallel->HashRow(l);
      const auto b = sequential->HashRow(l);
      ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
          << "threads=" << threads << " l=" << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(K, MinHashThreadInvarianceTest,
                         ::testing::Values(9, 100));

TEST(MinHashGoldenTest, SignatureBytesArePinned) {
  // Pinned from the hash-row-at-a-time kernel that preceded the
  // lane-interleaved one; any change to these bytes changes every
  // signature artifact and index built from them.
  const BinaryMatrix m = PinnedMatrix();
  const struct {
    int num_hashes;
    uint32_t crc;
  } kGolden[] = {
      {100, 0x760df6d1u},
      {9, 0x7782a4e8u},
  };
  for (const auto& golden : kGolden) {
    MinHashConfig config;
    config.num_hashes = golden.num_hashes;
    config.seed = 29;
    for (int threads : {1, 3}) {
      auto signatures = ComputeAtThreads(m, config, threads);
      ASSERT_TRUE(signatures.ok());
      EXPECT_EQ(SignatureCrc(*signatures), golden.crc)
          << "k=" << golden.num_hashes << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace sans
