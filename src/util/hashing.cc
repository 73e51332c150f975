#include "util/hashing.h"

#include "util/random.h"
#include "util/status.h"

namespace sans {

MultiplyShiftHasher::MultiplyShiftHasher(uint64_t seed) {
  Xoshiro256 rng(seed);
  multiplier_ = rng.NextU64() | 1;  // odd multiplier keeps the map bijective
  addend_ = rng.NextU64();
}

TabulationHasher::TabulationHasher(uint64_t seed) {
  Xoshiro256 rng(seed);
  for (auto& table : tables_) {
    for (auto& entry : table) {
      entry = rng.NextU64();
    }
  }
}

const char* HashFamilyToString(HashFamily family) {
  switch (family) {
    case HashFamily::kSplitMix64:
      return "splitmix64";
    case HashFamily::kMultiplyShift:
      return "multiply-shift";
    case HashFamily::kTabulation:
      return "tabulation";
  }
  return "unknown";
}

RowHasher::RowHasher(HashFamily family, uint64_t seed) : family_(family) {
  // Parameter derivation matches the concrete hasher classes exactly,
  // so a RowHasher and a boxed hasher with the same seed are the same
  // function (asserted by util_hashing_test).
  switch (family) {
    case HashFamily::kSplitMix64:
      seed_ = seed;
      break;
    case HashFamily::kMultiplyShift: {
      MultiplyShiftHasher reference(seed);
      multiplier_ = reference.multiplier_;
      addend_ = reference.addend_;
      break;
    }
    case HashFamily::kTabulation: {
      auto tables =
          std::make_shared<std::array<std::array<uint64_t, 256>, 8>>();
      *tables = TabulationHasher(seed).tables_;
      tables_ = std::move(tables);
      break;
    }
  }
}

void RowHasher::HashBatch(std::span<const uint64_t> keys, uint64_t* out,
                          size_t stride) const {
  const size_t n = keys.size();
  switch (family_) {
    case HashFamily::kSplitMix64: {
      const uint64_t offset = 0x9e3779b97f4a7c15ULL * (seed_ + 1);
      for (size_t i = 0; i < n; ++i) out[i * stride] = Mix64(keys[i] + offset);
      break;
    }
    case HashFamily::kMultiplyShift: {
      const uint64_t a = multiplier_;
      const uint64_t b = addend_;
      for (size_t i = 0; i < n; ++i) out[i * stride] = Mix64(a * keys[i] + b);
      break;
    }
    case HashFamily::kTabulation: {
      const auto& tables = *tables_;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t key = keys[i];
        uint64_t h = 0;
        for (int byte = 0; byte < 8; ++byte) {
          h ^= tables[byte][(key >> (8 * byte)) & 0xff];
        }
        out[i * stride] = h;
      }
      break;
    }
  }
}

HashFunctionBank::HashFunctionBank(HashFamily family, int count,
                                   uint64_t seed)
    : family_(family) {
  SANS_CHECK_GE(count, 0);
  functions_.reserve(count);
  for (int i = 0; i < count; ++i) {
    // Derive per-function seeds with a mixing step so that consecutive
    // master seeds do not yield overlapping function banks.
    const uint64_t fn_seed = Mix64(seed + 0x100000001b3ULL * (i + 1));
    functions_.emplace_back(family, fn_seed);
  }
}

void HashFunctionBank::HashAll(uint64_t key,
                               std::vector<uint64_t>* out) const {
  out->resize(functions_.size());
  for (size_t i = 0; i < functions_.size(); ++i) {
    (*out)[i] = functions_[i].Hash(key);
  }
}

void HashFunctionBank::HashAllBatch(std::span<const uint64_t> keys,
                                    int lanes, uint64_t* out) const {
  SANS_CHECK_GT(lanes, 0);
  const size_t n = keys.size();
  const size_t width = static_cast<size_t>(lanes);
  for (size_t f = 0; f < functions_.size(); ++f) {
    functions_[f].HashBatch(keys, out + (f / width) * n * width + f % width,
                            width);
  }
}

}  // namespace sans
