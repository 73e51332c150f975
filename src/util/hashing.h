// Hash-function substrate for the min-hash and LSH schemes.
//
// The paper (Section 3) replaces explicit random row permutations with
// independent random hash values per row: "while scanning the rows, we
// will simply associate with each row a hash value that is a number
// chosen independently and uniformly at random". That hash is
// splitmix64 keyed by a seed (HashKey): a bijection on 64-bit keys, so
// distinct rows never collide under one function, and 64-bit outputs
// avoid the "birthday paradox" collisions the paper warns about for
// tables with up to ~2^30 rows.
//
// Dispatch: the sketching hot paths never call through a virtual
// interface. RowHasher is a value type; HashFunctionBank stores
// RowHashers by value and evaluates whole blocks of keys per function
// in flat loops (HashAllBatch).

#ifndef SANS_UTIL_HASHING_H_
#define SANS_UTIL_HASHING_H_

#include <cstdint>
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

/// One row-hash function, HashKey(., seed), held by value: no heap
/// boxing, no virtual dispatch. HashBatch() evaluates a whole block of
/// keys with the per-function offset hoisted out of the loop, which is
/// the form the blocked sketching kernels consume.
class RowHasher {
 public:
  explicit RowHasher(uint64_t seed) : seed_(seed) {}

  /// Hash of `key` under this function.
  uint64_t Hash(uint64_t key) const { return HashKey(key, seed_); }

  /// out[i * stride] = Hash(keys[i]) for every i, as one flat loop.
  void HashBatch(std::span<const uint64_t> keys, uint64_t* out,
                 size_t stride = 1) const;

 private:
  uint64_t seed_;
};

/// A bank of k independent row-hash functions, seeded
/// deterministically from a master seed. This is the object the
/// min-hash signature computation consumes: HashAllBatch(rows, lanes,
/// out) yields every row's hash under each of the k implicit
/// permutations, with no per-row indirection.
class HashFunctionBank {
 public:
  /// Creates `count` functions derived from `seed`.
  HashFunctionBank(int count, uint64_t seed);

  HashFunctionBank(const HashFunctionBank&) = delete;
  HashFunctionBank& operator=(const HashFunctionBank&) = delete;
  HashFunctionBank(HashFunctionBank&&) = default;
  HashFunctionBank& operator=(HashFunctionBank&&) = default;

  int count() const { return static_cast<int>(functions_.size()); }

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
  std::vector<RowHasher> functions_;
};

/// Combines two hash values into one (for hashing composite keys such
/// as LSH band signatures). Order-sensitive.
inline uint64_t CombineHashes(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace sans

#endif  // SANS_UTIL_HASHING_H_
