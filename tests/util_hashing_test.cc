#include "util/hashing.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "seed_param.h"

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
  const RowHasher hasher(99);
  std::unordered_set<uint64_t> seen;
  for (uint64_t x = 0; x < 50'000; ++x) {
    EXPECT_TRUE(seen.insert(hasher.Hash(x)).second);
  }
}

// Each case runs its base seed plus GetParam().offset.
class HashFunctionBankTest : public ::testing::TestWithParam<SeedParam> {
 protected:
  uint64_t Seed(uint64_t base) const { return base + GetParam().offset; }
};

TEST_P(HashFunctionBankTest, FunctionsAreIndependentAndDeterministic) {
  HashFunctionBank bank(8, Seed(42));
  EXPECT_EQ(bank.count(), 8);
  // Same seed reproduces the bank.
  HashFunctionBank bank2(8, Seed(42));
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
  HashFunctionBank bank(5, Seed(7));
  std::vector<uint64_t> all;
  bank.HashAll(321, &all);
  ASSERT_EQ(all.size(), 5u);
  for (int f = 0; f < 5; ++f) {
    EXPECT_EQ(all[f], bank.Hash(f, 321));
  }
}

TEST_P(HashFunctionBankTest, HashAllBatchMatchesHashAll) {
  HashFunctionBank bank(6, Seed(19));
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
  HashFunctionBank bank(11, Seed(23));
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

TEST_P(HashFunctionBankTest, FunctionSeedsAreDerivedFromTheMasterSeed) {
  // Function i is HashKey(., Mix64(seed + 0x100000001b3 * (i + 1))):
  // every persisted sketch and index depends on this derivation.
  HashFunctionBank bank(4, Seed(5));
  for (int f = 0; f < 4; ++f) {
    const uint64_t fn_seed = Mix64(Seed(5) + 0x100000001b3ULL * (f + 1));
    for (uint64_t x = 0; x < 100; ++x) {
      ASSERT_EQ(bank.Hash(f, x), HashKey(x, fn_seed)) << "f=" << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, HashFunctionBankTest,
                         ::testing::ValuesIn(kSeedOffsets));

class RowHasherTest : public ::testing::TestWithParam<SeedParam> {};

TEST_P(RowHasherTest, HashBatchMatchesHash) {
  const RowHasher hasher(123 + GetParam().offset);
  std::vector<uint64_t> keys;
  for (uint64_t x = 0; x < 777; ++x) keys.push_back(Mix64(x));
  std::vector<uint64_t> out(keys.size());
  hasher.HashBatch(keys, out.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], hasher.Hash(keys[i])) << "i=" << i;
    ASSERT_EQ(out[i], HashKey(keys[i], 123 + GetParam().offset));
  }
  // A stride writes every stride-th slot and leaves the rest alone.
  std::vector<uint64_t> strided(3 * keys.size(), 0);
  hasher.HashBatch(keys, strided.data(), 3);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(strided[3 * i], out[i]) << "i=" << i;
    ASSERT_EQ(strided[3 * i + 1], 0u) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, RowHasherTest,
                         ::testing::ValuesIn(kSeedOffsets));

TEST(CombineHashesTest, OrderSensitive) {
  EXPECT_NE(CombineHashes(1, 2), CombineHashes(2, 1));
  EXPECT_EQ(CombineHashes(1, 2), CombineHashes(1, 2));
}

TEST(HashFunctionBankTest, DistinctSeedsGiveDistinctBanks) {
  HashFunctionBank a(4, 1);
  HashFunctionBank b(4, 2);
  int diffs = 0;
  for (uint64_t x = 0; x < 100; ++x) {
    if (a.Hash(0, x) != b.Hash(0, x)) ++diffs;
  }
  EXPECT_EQ(diffs, 100);
}

}  // namespace
}  // namespace sans
