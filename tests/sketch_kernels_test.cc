#include "sketch/sketch_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "matrix/binary_matrix.h"
#include "matrix/block_reader.h"
#include "matrix/row_stream.h"
#include "sketch/incremental.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"
#include "sketch/signature_matrix.h"
#include "util/hashing.h"

namespace sans {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

// ---- Mix64 inversion, used to force a hash output of UINT64_MAX ----

// Inverse of x ^= x >> shift.
uint64_t UnshiftRight(uint64_t x, int shift) {
  uint64_t result = x;
  for (int i = 0; i < 64 / shift + 1; ++i) {
    result = x ^ (result >> shift);
  }
  return result;
}

// Modular inverse of an odd 64-bit constant (Newton iteration).
uint64_t ModInverse(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 6; ++i) {
    x *= 2 - a * x;
  }
  return x;
}

uint64_t InvMix64(uint64_t y) {
  y = UnshiftRight(y, 31);
  y *= ModInverse(0x94d049bb133111ebULL);
  y = UnshiftRight(y, 27);
  y *= ModInverse(0xbf58476d1ce4e5b9ULL);
  y = UnshiftRight(y, 30);
  return y;
}

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// The splitmix seed under which key 0 hashes to exactly UINT64_MAX:
// HashKey(0, seed) = Mix64(kGolden * (seed + 1)) = kMax.
uint64_t SentinelSeedForKeyZero() {
  return InvMix64(kMax) * ModInverse(kGolden) - 1;
}

TEST(InvMix64Test, InvertsMix64) {
  for (uint64_t x : {uint64_t{0}, uint64_t{1}, uint64_t{12345}, kMax}) {
    EXPECT_EQ(Mix64(InvMix64(x)), x);
    EXPECT_EQ(InvMix64(Mix64(x)), x);
  }
}

TEST(ClampRowHashTest, OnlyLowersTheSentinel) {
  EXPECT_EQ(ClampRowHash(kMax), kMax - 1);
  EXPECT_EQ(ClampRowHash(kMax - 1), kMax - 1);
  EXPECT_EQ(ClampRowHash(0), 0u);
  EXPECT_EQ(ClampRowHash(42), 42u);
}

TEST(ClampRowHashTest, HashRowClampedAppliesClamp) {
  const uint64_t seed = SentinelSeedForKeyZero();
  const RowHasher hasher(HashFamily::kSplitMix64, seed);
  // Precondition: the raw hash really is the sentinel value, so this
  // test exercises the clamp and not luck.
  ASSERT_EQ(hasher.Hash(0), kMax);
  EXPECT_EQ(HashRowClamped(hasher, 0), kMax - 1);
}

TEST(ClampRowHashTest, HashBlockClampedAppliesClamp) {
  const uint64_t seed = SentinelSeedForKeyZero();
  const RowHasher hasher(HashFamily::kSplitMix64, seed);
  const std::vector<uint64_t> keys = {0, 1, 2};
  std::vector<uint64_t> values;
  HashBlockClamped(hasher, keys, &values);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], kMax - 1);
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_EQ(values[i], ClampRowHash(hasher.Hash(keys[i])));
  }
}

// ---- The sentinel must be unreachable through every sketch path ----

BinaryMatrix OneRowMatrix() {
  auto m = BinaryMatrix::FromRows(1, 2, {{0}});
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST(SentinelClampTest, KMinHashGeneratorClampsForcedSentinel) {
  KMinHashConfig config;
  config.k = 4;
  config.seed = SentinelSeedForKeyZero();
  ASSERT_EQ(RowHasher(config.family, config.seed).Hash(0), kMax);

  const BinaryMatrix m = OneRowMatrix();
  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sketch = generator.Compute(&stream);
  ASSERT_TRUE(sketch.ok());
  ASSERT_EQ(sketch->Signature(0).size(), 1u);
  // Clamped: the stored value is kMax - 1, never the empty sentinel.
  EXPECT_EQ(sketch->Signature(0)[0], kMax - 1);
  EXPECT_EQ(sketch->ColumnCardinality(0), 1u);
  // Column 1 is genuinely empty.
  EXPECT_TRUE(sketch->Signature(1).empty());
}

TEST(SentinelClampTest, IncrementalBuilderClampsForcedSentinel) {
  KMinHashConfig config;
  config.k = 4;
  config.seed = SentinelSeedForKeyZero();
  IncrementalKMinHashBuilder builder(config, 2);
  const std::vector<ColumnId> columns = {0};
  ASSERT_TRUE(builder.AddRow(0, columns).ok());
  const KMinHashSketch sketch = builder.Snapshot();
  ASSERT_EQ(sketch.Signature(0).size(), 1u);
  EXPECT_EQ(sketch.Signature(0)[0], kMax - 1);
}

TEST(SentinelClampTest, MinHashGeneratorClampsForcedSentinel) {
  // Drive the bank's function 0 to hash key 0 to the sentinel: the
  // bank derives fn_seed = Mix64(master + 0x100000001b3 * 1), so pick
  // master accordingly.
  const uint64_t fn_seed = SentinelSeedForKeyZero();
  const uint64_t master = InvMix64(fn_seed) - 0x100000001b3ULL;
  MinHashConfig config;
  config.num_hashes = 1;
  config.seed = master;
  {
    HashFunctionBank bank(config.family, 1, master);
    ASSERT_EQ(bank.Hash(0, 0), kMax);
  }
  const BinaryMatrix m = OneRowMatrix();
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());
  // Without the clamp, column 0 would be indistinguishable from an
  // empty column.
  EXPECT_FALSE(signatures->ColumnEmpty(0));
  EXPECT_EQ(signatures->Value(0, 0), kMax - 1);
  EXPECT_TRUE(signatures->ColumnEmpty(1));
}

// ---- Byte-identity of the blocked kernels against a naive scan ----

// Deterministic sparse matrix spanning several kSketchBlockRows
// blocks, with some all-zero rows mixed in.
BinaryMatrix KernelTestMatrix() {
  const RowId num_rows = 3 * kSketchBlockRows + 17;
  const ColumnId num_cols = 48;
  std::vector<std::vector<ColumnId>> rows(num_rows);
  for (RowId r = 0; r < num_rows; ++r) {
    for (ColumnId c = 0; c < num_cols; ++c) {
      if (Mix64(r * num_cols + c + 1) % 100 < 7) rows[r].push_back(c);
    }
  }
  auto m = BinaryMatrix::FromRows(num_rows, num_cols, rows);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

// Per row, per column, per hash, through the checked MinUpdate, with
// the clamp applied per value.
SignatureMatrix NaiveMinHash(const BinaryMatrix& m,
                             const MinHashConfig& config) {
  HashFunctionBank bank(config.family, config.num_hashes, config.seed);
  SignatureMatrix naive(config.num_hashes, m.num_cols());
  InMemoryRowStream stream(&m);
  EXPECT_TRUE(stream.Reset().ok());
  RowView view;
  while (stream.Next(&view)) {
    for (ColumnId c : view.columns) {
      for (int l = 0; l < config.num_hashes; ++l) {
        naive.MinUpdate(l, c, ClampRowHash(bank.Hash(l, view.row)));
      }
    }
  }
  return naive;
}

void ExpectSameSignatures(const SignatureMatrix& a, const SignatureMatrix& b) {
  ASSERT_EQ(a.num_hashes(), b.num_hashes());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (int l = 0; l < a.num_hashes(); ++l) {
    for (ColumnId c = 0; c < a.num_cols(); ++c) {
      ASSERT_EQ(a.Value(l, c), b.Value(l, c)) << "l=" << l << " c=" << c;
    }
  }
}

class BlockedKernelIdentityTest
    : public ::testing::TestWithParam<HashFamily> {};

TEST_P(BlockedKernelIdentityTest, MinHashMatchesNaiveReference) {
  const BinaryMatrix m = KernelTestMatrix();
  MinHashConfig config;
  config.num_hashes = 33;
  config.family = GetParam();
  config.seed = 99;

  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto blocked = generator.Compute(&stream);
  ASSERT_TRUE(blocked.ok());
  SCOPED_TRACE(std::string("family=") + HashFamilyToString(config.family));
  ExpectSameSignatures(*blocked, NaiveMinHash(m, config));
}

TEST_P(BlockedKernelIdentityTest, KMinHashMatchesIncrementalBuilder) {
  const BinaryMatrix m = KernelTestMatrix();
  KMinHashConfig config;
  config.k = 16;
  config.family = GetParam();
  config.seed = 7;

  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto blocked = generator.Compute(&stream);
  ASSERT_TRUE(blocked.ok());

  // The incremental builder hashes one row at a time through
  // HashRowClamped — the per-row reference for the blocked scan.
  IncrementalKMinHashBuilder builder(config, m.num_cols());
  InMemoryRowStream builder_stream(&m);
  ASSERT_TRUE(builder.AddAll(&builder_stream).ok());
  const KMinHashSketch reference = builder.Snapshot();

  for (ColumnId c = 0; c < m.num_cols(); ++c) {
    ASSERT_EQ(blocked->ColumnCardinality(c), reference.ColumnCardinality(c));
    const auto sig_a = blocked->Signature(c);
    const auto sig_b = reference.Signature(c);
    ASSERT_EQ(sig_a.size(), sig_b.size()) << "c=" << c;
    for (size_t i = 0; i < sig_a.size(); ++i) {
      ASSERT_EQ(sig_a[i], sig_b[i]) << "c=" << c << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BlockedKernelIdentityTest,
                         ::testing::Values(HashFamily::kSplitMix64,
                                           HashFamily::kMultiplyShift,
                                           HashFamily::kTabulation));

// ---- The Min-Hash kernel against the naive reference, per k ----

// The bank derives function f's seed as Mix64(master + 0x100000001b3 *
// (f + 1)); this master seed makes splitmix64 function `f` hash row 0
// to exactly UINT64_MAX.
uint64_t MasterSeedForcingSentinel(int f) {
  return InvMix64(SentinelSeedForKeyZero()) -
         0x100000001b3ULL * static_cast<uint64_t>(f + 1);
}

// Spans several kSketchBlockRows blocks. Row 0 (the forced-sentinel
// row) holds columns 0 and 1 only, so column 0's last function keeps
// the clamped value kMax - 1; columns 41 and 59 are never touched;
// some rows are empty.
BinaryMatrix SweepMatrix() {
  const RowId num_rows = 2 * kSketchBlockRows + 45;
  const ColumnId num_cols = 60;
  std::vector<std::vector<ColumnId>> rows(num_rows);
  rows[0] = {0, 1};
  for (RowId r = 1; r < num_rows; ++r) {
    for (ColumnId c = 1; c < num_cols; ++c) {
      if (c == 41 || c == 59) continue;
      if (Mix64(r * 131 + c + 7) % 100 < 9) rows[r].push_back(c);
    }
  }
  auto m = BinaryMatrix::FromRows(num_rows, num_cols, rows);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

class BlockedKernelSweepTest
    : public ::testing::TestWithParam<std::tuple<HashFamily, int>> {};

TEST_P(BlockedKernelSweepTest, MatchesNaiveReference) {
  const auto [family, num_hashes] = GetParam();
  const BinaryMatrix m = SweepMatrix();
  MinHashConfig config;
  config.num_hashes = num_hashes;
  config.family = family;
  config.seed = MasterSeedForcingSentinel(num_hashes - 1);
  const bool forced = family == HashFamily::kSplitMix64;
  if (forced) {
    // Precondition: the last function (the tail lane when k is not a
    // multiple of 8) really hashes row 0 to the sentinel.
    HashFunctionBank bank(family, num_hashes, config.seed);
    ASSERT_EQ(bank.Hash(num_hashes - 1, 0), kMax);
  }

  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto blocked = generator.Compute(&stream);
  ASSERT_TRUE(blocked.ok());
  ExpectSameSignatures(*blocked, NaiveMinHash(m, config));

  EXPECT_TRUE(blocked->ColumnEmpty(41));
  EXPECT_TRUE(blocked->ColumnEmpty(59));
  for (int l = 0; l < num_hashes; ++l) {
    EXPECT_EQ(blocked->Value(l, 41), kEmptyMinHash);
    EXPECT_EQ(blocked->Value(l, 59), kEmptyMinHash);
  }
  EXPECT_FALSE(blocked->ColumnEmpty(0));
  if (forced) {
    EXPECT_EQ(blocked->Value(num_hashes - 1, 0), kMax - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndK, BlockedKernelSweepTest,
    ::testing::Combine(::testing::Values(HashFamily::kSplitMix64,
                                         HashFamily::kMultiplyShift,
                                         HashFamily::kTabulation),
                       ::testing::Values(1, 7, 8, 9, 33, 64, 100)),
    [](const auto& info) {
      std::string family = HashFamilyToString(std::get<0>(info.param));
      family.erase(std::remove(family.begin(), family.end(), '-'),
                   family.end());
      return family + "_k" + std::to_string(std::get<1>(info.param));
    });

TEST(BlockedKernelLaneGroupsTest, CoverKExactlyWithNarrowerTail) {
  using Groups = std::vector<std::pair<size_t, size_t>>;
  const auto groups = [](int k) {
    Groups out;
    for (const MinHashLaneGroup& g : MinHashLaneGroups(k)) {
      out.emplace_back(g.first, g.width);
    }
    return out;
  };
  EXPECT_EQ(groups(1), (Groups{{0, 1}}));
  EXPECT_EQ(groups(7), (Groups{{0, 4}, {4, 2}, {6, 1}}));
  EXPECT_EQ(groups(8), (Groups{{0, 8}}));
  EXPECT_EQ(groups(9), (Groups{{0, 8}, {8, 1}}));
  EXPECT_EQ(groups(15), (Groups{{0, 8}, {8, 4}, {12, 2}, {14, 1}}));
  // k = 100: twelve 8-lane groups and one 4-lane tail, no padding.
  const Groups hundred = groups(100);
  ASSERT_EQ(hundred.size(), 13u);
  for (size_t g = 0; g < 12; ++g) {
    EXPECT_EQ(hundred[g], (std::pair<size_t, size_t>{8 * g, 8}));
  }
  EXPECT_EQ(hundred.back(), (std::pair<size_t, size_t>{96, 4}));
}

// ---- Every instruction-set variant against the baseline one ----

// Drives kernels of variant `isa` directly: the matrix's rows go in
// blocks of 100, block b to kernel b % parts, and the kernels are
// merged in order, as the parallel workers are.
SignatureMatrix KernelSignatures(const BinaryMatrix& m,
                                 const HashFunctionBank& bank,
                                 MinHashIsa isa, int parts) {
  std::vector<MinHashBlockKernel> kernels;
  for (int p = 0; p < parts; ++p) {
    kernels.emplace_back(&bank, m.num_cols(), isa);
  }
  RowBlock block;
  size_t blocks = 0;
  for (RowId r = 0; r < m.num_rows(); ++r) {
    block.Append(r, m.Row(r));
    if (block.size() == 100 || r + 1 == m.num_rows()) {
      kernels[blocks++ % parts].Process(block);
      block.Clear();
    }
  }
  for (int p = 1; p < parts; ++p) kernels[0].Merge(kernels[p]);
  return kernels[0].TakeSignatures();
}

TEST(BlockedKernelIsaTest, SelectionIsTheBestRunnableVariant) {
  const std::vector<MinHashIsa> runnable = internal::RunnableMinHashIsas();
  ASSERT_FALSE(runnable.empty());
  EXPECT_EQ(runnable.front(), MinHashIsa::kBaseline);
  EXPECT_EQ(SelectedMinHashIsa(), runnable.back());
  for (MinHashIsa isa : runnable) {
    std::printf("[ runnable ] %s\n", MinHashIsaName(isa));
  }
}

TEST(BlockedKernelIsaTest, EveryRunnableVariantMatchesBaseline) {
  const BinaryMatrix m = SweepMatrix();
  for (HashFamily family : {HashFamily::kSplitMix64,
                            HashFamily::kMultiplyShift,
                            HashFamily::kTabulation}) {
    for (int num_hashes : {1, 9, 64, 100}) {
      const HashFunctionBank bank(family, num_hashes,
                                  MasterSeedForcingSentinel(num_hashes - 1));
      const SignatureMatrix baseline =
          KernelSignatures(m, bank, MinHashIsa::kBaseline, 1);
      for (MinHashIsa isa : internal::RunnableMinHashIsas()) {
        for (int parts : {1, 3}) {
          SCOPED_TRACE(std::string(MinHashIsaName(isa)) + " " +
                       HashFamilyToString(family) +
                       " k=" + std::to_string(num_hashes) +
                       " parts=" + std::to_string(parts));
          ExpectSameSignatures(KernelSignatures(m, bank, isa, parts),
                               baseline);
        }
      }
    }
  }
}

// ---- Regression: multiply-shift must estimate as well as splitmix ----

// Two columns with exact Jaccard similarity 1/3 (|A ∩ B| = 50,
// |A ∪ B| = 150).
BinaryMatrix OverlapMatrix() {
  std::vector<std::vector<ColumnId>> rows(150);
  for (RowId r = 0; r < 100; ++r) rows[r].push_back(0);
  for (RowId r = 50; r < 150; ++r) rows[r].push_back(1);
  auto m = BinaryMatrix::FromRows(150, 2, rows);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

double MinHashEstimate(const BinaryMatrix& m, HashFamily family,
                       uint64_t seed) {
  MinHashConfig config;
  config.num_hashes = 400;
  config.family = family;
  config.seed = seed;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  EXPECT_TRUE(signatures.ok());
  return signatures->FractionEqual(0, 1);
}

TEST(MultiplyShiftEstimateTest, ErrorComparableToSplitMix64) {
  // The unfinalized a*x + b map made min-hash estimates collapse: its
  // structured low bits correlate the per-function minima. The fixed
  // hasher must track the true similarity as well as splitmix64 does
  // on the same data and seeds.
  const BinaryMatrix m = OverlapMatrix();
  const double truth = 1.0 / 3.0;
  for (uint64_t seed : {11u, 23u, 47u}) {
    const double splitmix =
        MinHashEstimate(m, HashFamily::kSplitMix64, seed);
    const double multiply_shift =
        MinHashEstimate(m, HashFamily::kMultiplyShift, seed);
    EXPECT_NEAR(splitmix, truth, 0.08) << "seed=" << seed;
    EXPECT_NEAR(multiply_shift, truth, 0.08) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace sans
