#include "util/hashing.h"

#include "util/status.h"

namespace sans {

void RowHasher::HashBatch(std::span<const uint64_t> keys, uint64_t* out,
                          size_t stride) const {
  const uint64_t offset = 0x9e3779b97f4a7c15ULL * (seed_ + 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i * stride] = Mix64(keys[i] + offset);
  }
}

HashFunctionBank::HashFunctionBank(int count, uint64_t seed) {
  SANS_CHECK_GE(count, 0);
  functions_.reserve(count);
  for (int i = 0; i < count; ++i) {
    // Derive per-function seeds with a mixing step so that consecutive
    // master seeds do not yield overlapping function banks.
    const uint64_t fn_seed = Mix64(seed + 0x100000001b3ULL * (i + 1));
    functions_.emplace_back(fn_seed);
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
