#include "util/hashing.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

namespace sans {
namespace {

TEST(Mix64Test, IsDeterministic) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_NE(Mix64(12345), Mix64(12346));
}

TEST(Mix64Test, IsBijectiveOnSample) {
  // Bijectivity cannot be proven by sampling, but distinctness over a
  // dense sample catches regressions in the constants.
  std::unordered_set<uint64_t> seen;
  for (uint64_t x = 0; x < 100'000; ++x) {
    EXPECT_TRUE(seen.insert(Mix64(x)).second) << "collision at " << x;
  }
}

TEST(HashKeyTest, SeedChangesValues) {
  EXPECT_NE(HashKey(7, 1), HashKey(7, 2));
  EXPECT_EQ(HashKey(7, 1), HashKey(7, 1));
}

TEST(SplitMix64HasherTest, NoCollisionsPerSeed) {
  SplitMix64Hasher hasher(99);
  std::unordered_set<uint64_t> seen;
  for (uint64_t x = 0; x < 50'000; ++x) {
    EXPECT_TRUE(seen.insert(hasher.Hash(x)).second);
  }
}

TEST(MultiplyShiftHasherTest, NoCollisionsPerSeed) {
  // Odd multiplier => bijective map, so distinct keys hash distinctly.
  MultiplyShiftHasher hasher(1234);
  std::unordered_set<uint64_t> seen;
  for (uint64_t x = 0; x < 50'000; ++x) {
    EXPECT_TRUE(seen.insert(hasher.Hash(x)).second);
  }
}

TEST(MultiplyShiftHasherTest, LowBitsAreUniform) {
  // Regression for the unfinalized a*x + b form: over keys that are
  // multiples of 256, a*x + b is constant mod 256, so the low byte
  // took exactly ONE value. The Mix64 finalizer must spread the
  // product's entropy into the low bits.
  MultiplyShiftHasher hasher(77);
  std::set<uint64_t> low_bytes;
  for (uint64_t i = 0; i < 4096; ++i) {
    low_bytes.insert(hasher.Hash(i * 256) & 0xff);
  }
  EXPECT_GT(low_bytes.size(), 200u);  // ~256 expected, 1 before the fix
}

TEST(TabulationHasherTest, DeterministicPerSeed) {
  TabulationHasher a(5);
  TabulationHasher b(5);
  TabulationHasher c(6);
  int diffs = 0;
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_EQ(a.Hash(x), b.Hash(x));
    if (a.Hash(x) != c.Hash(x)) ++diffs;
  }
  EXPECT_GT(diffs, 990);  // different seeds give different functions
}

TEST(TabulationHasherTest, OutputLooksUniform) {
  TabulationHasher hasher(17);
  // Count high-bit balance over sequential keys.
  int high_bits = 0;
  const int n = 10'000;
  for (uint64_t x = 0; x < static_cast<uint64_t>(n); ++x) {
    if (hasher.Hash(x) >> 63) ++high_bits;
  }
  EXPECT_NEAR(high_bits, n / 2, 300);
}

TEST(HashFamilyToStringTest, NamesAllFamilies) {
  EXPECT_STREQ(HashFamilyToString(HashFamily::kSplitMix64), "splitmix64");
  EXPECT_STREQ(HashFamilyToString(HashFamily::kMultiplyShift),
               "multiply-shift");
  EXPECT_STREQ(HashFamilyToString(HashFamily::kTabulation), "tabulation");
}

class HashFunctionBankTest
    : public ::testing::TestWithParam<HashFamily> {};

TEST_P(HashFunctionBankTest, FunctionsAreIndependentAndDeterministic) {
  HashFunctionBank bank(GetParam(), 8, 42);
  EXPECT_EQ(bank.count(), 8);
  EXPECT_EQ(bank.family(), GetParam());
  // Same seed reproduces the bank.
  HashFunctionBank bank2(GetParam(), 8, 42);
  for (int f = 0; f < 8; ++f) {
    for (uint64_t x = 0; x < 100; ++x) {
      EXPECT_EQ(bank.Hash(f, x), bank2.Hash(f, x));
    }
  }
  // Different functions in the bank disagree almost everywhere.
  int agreements = 0;
  for (uint64_t x = 0; x < 1000; ++x) {
    if (bank.Hash(0, x) == bank.Hash(1, x)) ++agreements;
  }
  EXPECT_LE(agreements, 1);
}

TEST_P(HashFunctionBankTest, HashAllMatchesIndividualHashes) {
  HashFunctionBank bank(GetParam(), 5, 7);
  std::vector<uint64_t> all;
  bank.HashAll(321, &all);
  ASSERT_EQ(all.size(), 5u);
  for (int f = 0; f < 5; ++f) {
    EXPECT_EQ(all[f], bank.Hash(f, 321));
  }
}

TEST_P(HashFunctionBankTest, HashAllBatchMatchesHashAll) {
  HashFunctionBank bank(GetParam(), 6, 19);
  std::vector<uint64_t> keys;
  for (uint64_t x = 0; x < 300; ++x) keys.push_back(x * 17 + 3);
  std::vector<uint64_t> batched(6 * keys.size());
  bank.HashAllBatch(keys, 1, batched.data());
  // Hash-major layout: function f's values over the block are
  // contiguous at [f * n, (f + 1) * n).
  for (int f = 0; f < 6; ++f) {
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(batched[f * keys.size() + i], bank.Hash(f, keys[i]));
    }
  }
}

TEST_P(HashFunctionBankTest, HashAllBatchInterleavesLanes) {
  // 11 functions in groups of 8: one full group and a 3-lane tail.
  HashFunctionBank bank(GetParam(), 11, 23);
  std::vector<uint64_t> keys;
  for (uint64_t x = 0; x < 37; ++x) keys.push_back(Mix64(x));
  const size_t n = keys.size();
  constexpr uint64_t kUnwritten = 0x5a5a5a5a5a5a5a5aULL;
  std::vector<uint64_t> batched(2 * 8 * n, kUnwritten);
  bank.HashAllBatch(keys, 8, batched.data());
  for (size_t i = 0; i < n; ++i) {
    for (int f = 0; f < 16; ++f) {
      const uint64_t value = batched[((f / 8) * n + i) * 8 + f % 8];
      if (f < 11) {
        EXPECT_EQ(value, bank.Hash(f, keys[i])) << "f=" << f << " i=" << i;
      } else {
        EXPECT_EQ(value, kUnwritten) << "f=" << f << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, HashFunctionBankTest,
                         ::testing::Values(HashFamily::kSplitMix64,
                                           HashFamily::kMultiplyShift,
                                           HashFamily::kTabulation));

class RowHasherTest : public ::testing::TestWithParam<HashFamily> {};

TEST_P(RowHasherTest, MatchesConcreteHashers) {
  // A RowHasher and the boxed-style concrete class with the same seed
  // must be the same function — artifacts generated before the
  // devirtualization depend on it.
  const RowHasher hasher(GetParam(), 4321);
  const SplitMix64Hasher splitmix(4321);
  const MultiplyShiftHasher multiply_shift(4321);
  const TabulationHasher tabulation(4321);
  for (uint64_t x = 0; x < 500; ++x) {
    uint64_t expected = 0;
    switch (GetParam()) {
      case HashFamily::kSplitMix64:
        expected = splitmix.Hash(x);
        break;
      case HashFamily::kMultiplyShift:
        expected = multiply_shift.Hash(x);
        break;
      case HashFamily::kTabulation:
        expected = tabulation.Hash(x);
        break;
    }
    ASSERT_EQ(hasher.Hash(x), expected) << "x=" << x;
  }
}

TEST_P(RowHasherTest, HashBatchMatchesHash) {
  const RowHasher hasher(GetParam(), 123);
  std::vector<uint64_t> keys;
  for (uint64_t x = 0; x < 777; ++x) keys.push_back(Mix64(x));
  std::vector<uint64_t> out(keys.size());
  hasher.HashBatch(keys, out.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], hasher.Hash(keys[i])) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, RowHasherTest,
                         ::testing::Values(HashFamily::kSplitMix64,
                                           HashFamily::kMultiplyShift,
                                           HashFamily::kTabulation));

TEST(CombineHashesTest, OrderSensitive) {
  EXPECT_NE(CombineHashes(1, 2), CombineHashes(2, 1));
  EXPECT_EQ(CombineHashes(1, 2), CombineHashes(1, 2));
}

TEST(HashFunctionBankTest, DistinctSeedsGiveDistinctBanks) {
  HashFunctionBank a(HashFamily::kSplitMix64, 4, 1);
  HashFunctionBank b(HashFamily::kSplitMix64, 4, 2);
  int diffs = 0;
  for (uint64_t x = 0; x < 100; ++x) {
    if (a.Hash(0, x) != b.Hash(0, x)) ++diffs;
  }
  EXPECT_EQ(diffs, 100);
}

}  // namespace
}  // namespace sans
