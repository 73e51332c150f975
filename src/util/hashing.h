// Hash-function substrate for the min-hash and LSH schemes.
//
// The paper (Section 3) replaces explicit random row permutations with
// independent random hash values per row: "while scanning the rows, we
// will simply associate with each row a hash value that is a number
// chosen independently and uniformly at random". We provide three
// interchangeable families:
//
//  * SplitMix64Hasher   — a strong 64-bit finalizer-style mixer keyed
//                         by a seed; the default everywhere.
//  * MultiplyShiftHasher— multiply-shift hashing finalized with Mix64;
//                         cheapest, weakest guarantees.
//  * TabulationHasher   — 8-way simple tabulation; 3-independent and
//                         known to make min-hash behave like full
//                         randomness on realistic data.
//
// All hashers map a 64-bit key (row index) to a 64-bit value. Using
// 64-bit outputs avoids the "birthday paradox" collisions the paper
// warns about for tables with up to ~2^30 rows.
//
// Dispatch: the sketching hot paths never call through a virtual
// interface. RowHasher is a value type that switches on the family
// once per batch; HashFunctionBank stores RowHashers by value and
// evaluates whole blocks of keys per function in flat loops
// (HashAllBatch), so the per-key work is branch-free.

#ifndef SANS_UTIL_HASHING_H_
#define SANS_UTIL_HASHING_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace sans {

/// Strong 64-bit mixing step (the splitmix64 finalizer). Bijective on
/// uint64_t, so distinct inputs never collide for a fixed seed.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Seeded hash of a 64-bit key via two mixing rounds. Bijective in the
/// key for any fixed seed.
inline uint64_t HashKey(uint64_t key, uint64_t seed) {
  return Mix64(key + 0x9e3779b97f4a7c15ULL * (seed + 1));
}

/// Default hasher: double splitmix64 mix keyed by seed. Statistically
/// indistinguishable from a random function for our purposes and
/// collision-free per seed (bijective).
class SplitMix64Hasher final {
 public:
  explicit SplitMix64Hasher(uint64_t seed) : seed_(seed) {}
  uint64_t Hash(uint64_t key) const { return HashKey(key, seed_); }

 private:
  uint64_t seed_;
};

/// Multiply-shift hashing h(x) = Mix64(a*x + b) with odd `a`. The raw
/// product a*x + b is 2-universal only in its high bits: the low bits
/// of a multiply are far from uniform (e.g. a*x + b is constant mod
/// 2^t over keys that are multiples of 2^t), and min-hash and bucket
/// consumers compare full 64-bit values. The Mix64 finalizer spreads
/// the product's entropy across all output bits while keeping the map
/// bijective (composition of bijections).
class MultiplyShiftHasher final {
 public:
  explicit MultiplyShiftHasher(uint64_t seed);
  uint64_t Hash(uint64_t key) const {
    return Mix64(multiplier_ * key + addend_);
  }

 private:
  friend class RowHasher;
  uint64_t multiplier_;  // always odd, so the map is bijective
  uint64_t addend_;
};

/// Simple tabulation hashing over the 8 bytes of the key: XOR of 8
/// seeded lookup tables of 256 entries each. 3-independent; strong
/// theoretical guarantees for min-wise hashing.
class TabulationHasher final {
 public:
  explicit TabulationHasher(uint64_t seed);
  uint64_t Hash(uint64_t key) const {
    uint64_t h = 0;
    for (int byte = 0; byte < 8; ++byte) {
      h ^= tables_[byte][(key >> (8 * byte)) & 0xff];
    }
    return h;
  }

 private:
  friend class RowHasher;
  std::array<std::array<uint64_t, 256>, 8> tables_;
};

/// Which hash family to instantiate (see class comments above).
enum class HashFamily {
  kSplitMix64,
  kMultiplyShift,
  kTabulation,
};

const char* HashFamilyToString(HashFamily family);

/// One hash function drawn from a family, held by value: no heap
/// boxing, no virtual dispatch. Hash() switches on the family (the
/// compiler inlines each arm); HashBatch() hoists the switch out of
/// the loop and evaluates a whole block of keys with constant
/// per-function parameters, which is the form the blocked sketching
/// kernels consume.
class RowHasher {
 public:
  RowHasher(HashFamily family, uint64_t seed);

  HashFamily family() const { return family_; }

  /// Hash of `key` under this function.
  uint64_t Hash(uint64_t key) const {
    switch (family_) {
      case HashFamily::kSplitMix64:
        return HashKey(key, seed_);
      case HashFamily::kMultiplyShift:
        return Mix64(multiplier_ * key + addend_);
      case HashFamily::kTabulation:
        return TabulationHash(key);
    }
    return 0;  // unreachable
  }

  /// out[i * stride] = Hash(keys[i]) for every i. One family switch
  /// per call; each arm is a flat loop over the keys.
  void HashBatch(std::span<const uint64_t> keys, uint64_t* out,
                 size_t stride = 1) const;

 private:
  uint64_t TabulationHash(uint64_t key) const {
    uint64_t h = 0;
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (*tables_)[byte][(key >> (8 * byte)) & 0xff];
    }
    return h;
  }

  HashFamily family_;
  uint64_t seed_ = 0;        // kSplitMix64
  uint64_t multiplier_ = 1;  // kMultiplyShift (odd => bijective)
  uint64_t addend_ = 0;      // kMultiplyShift
  // kTabulation: 16 KiB of tables, shared so RowHashers stay cheap to
  // copy (a bank holds k of them by value).
  std::shared_ptr<const std::array<std::array<uint64_t, 256>, 8>> tables_;
};

/// A bank of k independent hash functions from one family, seeded
/// deterministically from a master seed. This is the object the
/// min-hash signature computation consumes: HashAllBatch(rows, lanes,
/// out) yields every row's hash under each of the k implicit
/// permutations, with no per-row indirection.
class HashFunctionBank {
 public:
  /// Creates `count` functions from `family`, derived from `seed`.
  HashFunctionBank(HashFamily family, int count, uint64_t seed);

  HashFunctionBank(const HashFunctionBank&) = delete;
  HashFunctionBank& operator=(const HashFunctionBank&) = delete;
  HashFunctionBank(HashFunctionBank&&) = default;
  HashFunctionBank& operator=(HashFunctionBank&&) = default;

  int count() const { return static_cast<int>(functions_.size()); }
  HashFamily family() const { return family_; }

  /// Hash of `key` under function `index` (0 <= index < count()).
  uint64_t Hash(int index, uint64_t key) const {
    return functions_[index].Hash(key);
  }

  /// Hashes `key` under every function into `out` (resized to count()).
  void HashAll(uint64_t key, std::vector<uint64_t>* out) const;

  /// Batched evaluation: hashes every key under every function into
  /// `out`, with the functions taken in groups of `lanes` and each
  /// key's values for one group adjacent:
  ///   out[((f / lanes) * n + i) * lanes + f % lanes] = h_f(keys[i])
  /// for n = keys.size(). `out` must hold ceil(count() / lanes) *
  /// lanes * n values; the lanes of a partial last group are not
  /// written. lanes = 1 is the hash-major layout (one function's
  /// values over the block contiguous); the Min-Hash kernel uses 8,
  /// one cache line per (group, key). Each function runs as one flat
  /// pass over the keys (see RowHasher::HashBatch).
  void HashAllBatch(std::span<const uint64_t> keys, int lanes,
                    uint64_t* out) const;

 private:
  HashFamily family_;
  std::vector<RowHasher> functions_;
};

/// Combines two hash values into one (for hashing composite keys such
/// as LSH band signatures). Order-sensitive.
inline uint64_t CombineHashes(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace sans

#endif  // SANS_UTIL_HASHING_H_
