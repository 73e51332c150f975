#include "sketch/sketch_kernels.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "util/status.h"

namespace sans {

void HashBlockClamped(const RowHasher& hasher,
                      std::span<const uint64_t> keys,
                      std::vector<uint64_t>* out) {
  out->resize(keys.size());
  hasher.HashBatch(keys, out->data());
  for (uint64_t& hash : *out) hash = ClampRowHash(hash);
}

namespace {

constexpr size_t kLanes = kMinHashLanes;

// uint64_t vectors of 8, 4, 2 and 1 lanes. Spelled out per width:
// GCC drops vector_size on an alias that depends on a template
// parameter.
using Lanes8 = uint64_t __attribute__((vector_size(64)));
using Lanes4 = uint64_t __attribute__((vector_size(32)));
using Lanes2 = uint64_t __attribute__((vector_size(16)));
using Lanes1 = uint64_t __attribute__((vector_size(8)));
template <size_t W>
using LanesOf = std::conditional_t<
    W == 8, Lanes8,
    std::conditional_t<W == 4, Lanes4,
                       std::conditional_t<W == 2, Lanes2, Lanes1>>>;

// Lowers the accumulator line of every column of each buffered row
// to the lane-wise min with that row's hashes, for one lane group of
// width W: acc_g holds the group's line of column c at c * W, and
// hashes_g row i's W hashes at i * kLanes. `h < s ? h : s` is the one
// min expression every variant compiles; vectors travel through
// memory only, never as arguments, so the variants share no vector
// calling convention.
template <size_t W>
__attribute__((always_inline)) inline void UpdateGroup(
    uint64_t* acc_g, const uint64_t* hashes_g, size_t n,
    const std::span<const ColumnId>* columns) {
  using Lanes = LanesOf<W>;
  static_assert(sizeof(Lanes) == W * sizeof(uint64_t));
  for (size_t i = 0; i < n; ++i) {
    Lanes h;
    __builtin_memcpy(&h, hashes_g + i * kLanes, sizeof h);
    for (const ColumnId c : columns[i]) {
      uint64_t* const line = acc_g + static_cast<size_t>(c) * W;
      Lanes s;
      __builtin_memcpy(&s, line, sizeof s);
      s = h < s ? h : s;
      __builtin_memcpy(line, &s, sizeof s);
    }
  }
}

__attribute__((always_inline)) inline void UpdateBody(
    uint64_t* acc, size_t num_cols, const uint64_t* hashes, size_t n,
    std::span<const MinHashLaneGroup> groups,
    const std::span<const ColumnId>* columns) {
  for (const MinHashLaneGroup& group : groups) {
    uint64_t* const acc_g = acc + group.first * num_cols;
    const uint64_t* const hashes_g =
        hashes + group.first / kLanes * n * kLanes + group.first % kLanes;
    switch (group.width) {
      case 8:
        UpdateGroup<8>(acc_g, hashes_g, n, columns);
        break;
      case 4:
        UpdateGroup<4>(acc_g, hashes_g, n, columns);
        break;
      case 2:
        UpdateGroup<2>(acc_g, hashes_g, n, columns);
        break;
      default:
        UpdateGroup<1>(acc_g, hashes_g, n, columns);
        break;
    }
  }
}

// dst[j] = min(dst[j], src[j]) for j < size, 8 lanes at a time. The
// min is element-wise, so it needs no knowledge of the groups.
__attribute__((always_inline)) inline void MergeBody(uint64_t* dst,
                                                     const uint64_t* src,
                                                     size_t size) {
  size_t j = 0;
  for (; j + kLanes <= size; j += kLanes) {
    Lanes8 a, b;
    __builtin_memcpy(&a, dst + j, sizeof a);
    __builtin_memcpy(&b, src + j, sizeof b);
    a = b < a ? b : a;
    __builtin_memcpy(dst + j, &a, sizeof a);
  }
  for (; j < size; ++j) dst[j] = std::min(dst[j], src[j]);
}

using UpdateFn = void (*)(uint64_t*, size_t, const uint64_t*, size_t,
                          std::span<const MinHashLaneGroup>,
                          const std::span<const ColumnId>*);
using MergeFn = void (*)(uint64_t*, const uint64_t*, size_t);

struct Variant {
  UpdateFn update;
  MergeFn merge;
};

void UpdateBaseline(uint64_t* acc, size_t num_cols, const uint64_t* hashes,
                    size_t n, std::span<const MinHashLaneGroup> groups,
                    const std::span<const ColumnId>* columns) {
  UpdateBody(acc, num_cols, hashes, n, groups, columns);
}
void MergeBaseline(uint64_t* dst, const uint64_t* src, size_t size) {
  MergeBody(dst, src, size);
}

#if defined(__x86_64__)
#define SANS_MINHASH_HAS_X86_VARIANTS 1

__attribute__((target("avx2"))) void UpdateAvx2(
    uint64_t* acc, size_t num_cols, const uint64_t* hashes, size_t n,
    std::span<const MinHashLaneGroup> groups,
    const std::span<const ColumnId>* columns) {
  UpdateBody(acc, num_cols, hashes, n, groups, columns);
}
__attribute__((target("avx2"))) void MergeAvx2(uint64_t* dst,
                                               const uint64_t* src,
                                               size_t size) {
  MergeBody(dst, src, size);
}

__attribute__((target("avx512f"))) void UpdateAvx512f(
    uint64_t* acc, size_t num_cols, const uint64_t* hashes, size_t n,
    std::span<const MinHashLaneGroup> groups,
    const std::span<const ColumnId>* columns) {
  UpdateBody(acc, num_cols, hashes, n, groups, columns);
}
__attribute__((target("avx512f"))) void MergeAvx512f(uint64_t* dst,
                                                     const uint64_t* src,
                                                     size_t size) {
  MergeBody(dst, src, size);
}
#endif

Variant VariantFor(MinHashIsa isa) {
  switch (isa) {
#ifdef SANS_MINHASH_HAS_X86_VARIANTS
    case MinHashIsa::kAvx512f:
      return {UpdateAvx512f, MergeAvx512f};
    case MinHashIsa::kAvx2:
      return {UpdateAvx2, MergeAvx2};
#endif
    default:
      return {UpdateBaseline, MergeBaseline};
  }
}

bool CpuRuns(MinHashIsa isa) {
#ifdef SANS_MINHASH_HAS_X86_VARIANTS
  __builtin_cpu_init();  // idempotent; safe before static constructors
#endif
  switch (isa) {
    case MinHashIsa::kBaseline:
      return true;
#ifdef SANS_MINHASH_HAS_X86_VARIANTS
    case MinHashIsa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case MinHashIsa::kAvx512f:
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

}  // namespace

const char* MinHashIsaName(MinHashIsa isa) {
  switch (isa) {
    case MinHashIsa::kBaseline:
      return "baseline";
    case MinHashIsa::kAvx2:
      return "avx2";
    case MinHashIsa::kAvx512f:
      return "avx512f";
  }
  return "unknown";
}

std::vector<MinHashIsa> internal::RunnableMinHashIsas() {
  std::vector<MinHashIsa> runnable;
  for (MinHashIsa isa :
       {MinHashIsa::kBaseline, MinHashIsa::kAvx2, MinHashIsa::kAvx512f}) {
    if (CpuRuns(isa)) runnable.push_back(isa);
  }
  return runnable;
}

MinHashIsa SelectedMinHashIsa() {
  static const MinHashIsa selected = internal::RunnableMinHashIsas().back();
  return selected;
}

std::vector<MinHashLaneGroup> MinHashLaneGroups(int num_hashes) {
  std::vector<MinHashLaneGroup> groups;
  size_t first = 0;
  const size_t k = static_cast<size_t>(num_hashes);
  for (; first + kLanes <= k; first += kLanes) {
    groups.push_back({first, kLanes});
  }
  for (size_t width = kLanes / 2; width > 0; width /= 2) {
    if (first + width <= k) {
      groups.push_back({first, width});
      first += width;
    }
  }
  return groups;
}

MinHashBlockKernel::MinHashBlockKernel(const HashFunctionBank* bank,
                                       ColumnId num_cols, MinHashIsa isa)
    : bank_(bank),
      num_cols_(num_cols),
      groups_(MinHashLaneGroups(bank->count())),
      isa_(isa) {
  SANS_CHECK_GT(bank->count(), 0);
  SANS_CHECK(CpuRuns(isa));
  acc_.assign(static_cast<size_t>(bank->count()) * num_cols, kEmptyMinHash);
  keys_.reserve(kSketchBlockRows);
  columns_.reserve(kSketchBlockRows);
  const size_t padded = (static_cast<size_t>(bank->count()) + kLanes - 1) /
                        kLanes * kLanes;
  hashes_.assign(padded * kSketchBlockRows, kEmptyMinHash);
}

void MinHashBlockKernel::Flush() {
  const size_t n = keys_.size();
  if (n == 0) return;
  // Not spent by TakeSignatures.
  SANS_CHECK_EQ(acc_.size(), static_cast<size_t>(bank_->count()) * num_cols_);
  uint64_t* const hashes = hashes_.data();
  bank_->HashAllBatch(keys_, kMinHashLanes, hashes);
  const size_t written = hashes_.size() / kSketchBlockRows * n;
  for (size_t j = 0; j < written; ++j) hashes[j] = ClampRowHash(hashes[j]);
  VariantFor(isa_).update(acc_.data(), num_cols_, hashes, n, groups_,
                          columns_.data());
  keys_.clear();
  columns_.clear();
}

void MinHashBlockKernel::Merge(MinHashBlockKernel& other) {
  SANS_CHECK(other.bank_ == bank_);
  SANS_CHECK_EQ(other.acc_.size(), acc_.size());
  VariantFor(isa_).merge(acc_.data(), other.acc_.data(), acc_.size());
  CacheAlignedVector<uint64_t>().swap(other.acc_);
}

SignatureMatrix MinHashBlockKernel::TakeSignatures() {
  const size_t m = num_cols_;
  SANS_CHECK_EQ(acc_.size(), static_cast<size_t>(bank_->count()) * m);
  // A group's block acc_[first * m, (first + width) * m) is exactly
  // where hash rows first .. first + width - 1 go in the output
  // layout, so each group transposes in place through one copy of
  // its block.
  std::vector<uint64_t> block(kLanes * m);
  for (const MinHashLaneGroup& group : groups_) {
    if (group.width == 1) continue;  // already a hash row
    uint64_t* const base = acc_.data() + group.first * m;
    std::copy(base, base + group.width * m, block.begin());
    for (size_t lane = 0; lane < group.width; ++lane) {
      uint64_t* const row = base + lane * m;
      for (size_t c = 0; c < m; ++c) row[c] = block[c * group.width + lane];
    }
  }
  return SignatureMatrix(bank_->count(), num_cols_, std::move(acc_));
}

}  // namespace sans
