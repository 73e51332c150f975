// Shared hot-path kernels for sketch generation. Every consumer that
// feeds row hashes into a min-type sketch — Min-Hash signatures and
// the bottom-k builder (sketch/incremental.h) — goes through the
// clamped kernels in this header, so the kEmptyMinHash sentinel clamp
// lives in exactly one place and cannot be missed by a new call site.
//
// The Min-Hash kernel does k min-updates for every 1-entry of the
// table, the largest CPU cost of Min-Hash mining and of the index
// build. MinHashBlockKernel owns a lane-interleaved accumulator: hash
// functions are taken in groups of kMinHashLanes = 8, and
// acc[g][c][0..8) holds functions 8g .. 8g+7 of column c in one
// 64-byte-aligned cache line. The kernel buffers a block of rows,
// evaluates all k functions over the block's row ids with each row's
// 8 values of a group adjacent (HashFunctionBank::HashAllBatch with 8
// lanes), then, group by group, applies each row's 8 clamped hashes
// to every column of the row with one 8-wide unsigned min. One
// group's accumulator is m cache lines (320 KiB at m = 5,000), so it
// stays in L2 while the block's rows are walked.
//
// Tail group: when k is not a multiple of 8, the k mod 8 remaining
// functions form narrower groups of 4, 2 and 1 lanes (k = 100: twelve
// 8-lane groups and one 4-lane group), updated with 4-, 2- and 1-wide
// mins. A group of width w starting at function f owns the block
// acc[f * m, (f + w) * m), so the accumulator is exactly k x m values,
// the size of the SignatureMatrix, with nothing padded.
//
// Dispatch: the update and the merge are one GCC vector-extension
// expression (`h < s ? h : s` on uint64_t vectors), compiled three
// times: for avx512f (one vpminuq per 8-lane line), avx2 (compare and
// blend on two halves) and baseline x86-64. SelectedMinHashIsa()
// picks the best variant the CPU supports once per process; there is
// no flag or setting for it.
//
// After the scan, per-worker kernels are merged with the same vector
// min in worker-id order (Merge, which frees the merged-in
// accumulator at once), and the survivor transposes its accumulator
// in place into the hash-row-major SignatureMatrix (TakeSignatures):
// a group's block is exactly where its hash rows go. Min is
// commutative and associative, so every variant, block size and
// thread count yields a byte-identical matrix for a fixed seed
// (asserted by sketch_kernels_test and sketch_min_hash_test, which
// also pin the bytes).

#ifndef SANS_SKETCH_SKETCH_KERNELS_H_
#define SANS_SKETCH_SKETCH_KERNELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "sketch/signature_matrix.h"
#include "util/aligned_vector.h"
#include "util/hashing.h"

namespace sans {

/// Rows buffered per flush of the blocked kernels. Bounds the hash
/// scratch at ceil(k / 8) * 8 * kSketchBlockRows * 8 bytes (208 KiB
/// at k = 100).
inline constexpr size_t kSketchBlockRows = 256;

/// Hash functions per accumulator group of the Min-Hash kernel: one
/// 64-byte cache line of uint64_t, the width of one AVX-512 min.
inline constexpr int kMinHashLanes = 8;

/// Hash functions [first, first + width) of the Min-Hash kernel, kept
/// together in one accumulator line per column.
struct MinHashLaneGroup {
  size_t first;
  size_t width;  // 8, or 4, 2, 1 for the tail
};

/// k split into 8-lane groups, then the remainder into groups of 4, 2
/// and 1 (each at most once), in function order.
std::vector<MinHashLaneGroup> MinHashLaneGroups(int num_hashes);

/// Instruction-set variants of the Min-Hash update.
enum class MinHashIsa { kBaseline, kAvx2, kAvx512f };

/// "baseline", "avx2" or "avx512f".
const char* MinHashIsaName(MinHashIsa isa);

/// The variant this process runs: the best one the CPU supports,
/// chosen on first use.
MinHashIsa SelectedMinHashIsa();

namespace internal {
/// Test hook: every variant this CPU can run, baseline first, so tests
/// can hand each one to MinHashBlockKernel and compare the results.
std::vector<MinHashIsa> RunnableMinHashIsas();
}  // namespace internal

/// THE sentinel clamp: hash outputs fed to min-type sketches are
/// lowered below kEmptyMinHash so a real row can never produce the
/// empty-column sentinel. Branchless; bijective inputs lose only the
/// single value UINT64_MAX.
inline uint64_t ClampRowHash(uint64_t hash) {
  return hash - static_cast<uint64_t>(hash == kEmptyMinHash);
}

/// Clamped single-row hash: one function, one key (the per-row
/// counterpart of HashBlockClamped).
inline uint64_t HashRowClamped(const RowHasher& hasher, uint64_t key) {
  return ClampRowHash(hasher.Hash(key));
}

/// Clamped batched hash of a block of row keys under one function;
/// `out` is resized to keys.size().
void HashBlockClamped(const RowHasher& hasher,
                      std::span<const uint64_t> keys,
                      std::vector<uint64_t>* out);

/// Blocked Min-Hash signature accumulator. Bind it to a bank and a
/// column count, then feed it row blocks; it buffers up to
/// kSketchBlockRows non-empty rows, batch-hashes their ids under all
/// k functions, and min-updates its lane-interleaved accumulator.
/// Accepts any block type exposing size() / row(i) / columns(i), such
/// as the pipeline's RowBlock.
///
/// Column spans handed in via Process() are only borrowed while the
/// call runs; every Process() call drains its own buffer before
/// returning.
class MinHashBlockKernel {
 public:
  /// `isa` exists for the variant tests; everything else takes the
  /// default.
  MinHashBlockKernel(const HashFunctionBank* bank, ColumnId num_cols,
                     MinHashIsa isa = SelectedMinHashIsa());

  template <typename Block>
  void Process(const Block& block) {
    for (size_t i = 0; i < block.size(); ++i) {
      const std::span<const ColumnId> columns = block.columns(i);
      // Empty rows touch no column; skip the k hash evaluations
      // (matters for shingle matrices whose row space is mostly empty
      // buckets).
      if (columns.empty()) continue;
      keys_.push_back(block.row(i));
      columns_.push_back(columns);
      if (keys_.size() >= kSketchBlockRows) Flush();
    }
    Flush();  // the borrowed column spans die with `block`
  }

  /// Lowers this accumulator to the lane-wise min with `other`'s and
  /// frees `other`'s. Both must be bound to the same bank and width.
  void Merge(MinHashBlockKernel& other);

  /// Transposes the accumulator in place into the k x m signature
  /// matrix and hands its storage over; the kernel is spent.
  SignatureMatrix TakeSignatures();

 private:
  /// Batch-hashes the buffered keys and applies the min-updates, then
  /// clears the buffer.
  void Flush();

  const HashFunctionBank* bank_;
  ColumnId num_cols_;
  std::vector<MinHashLaneGroup> groups_;
  MinHashIsa isa_;
  // acc_[g.first * num_cols_ + c * g.width + lane] for each group g:
  // min of function g.first + lane over column c's rows so far.
  CacheAlignedVector<uint64_t> acc_;
  std::vector<uint64_t> keys_;
  std::vector<std::span<const ColumnId>> columns_;
  // hashes_[((f / 8) * n + i) * 8 + f % 8]: clamped hash of buffered
  // key i under function f, n = keys_.size(); ceil(k / 8) * 8 lanes.
  CacheAlignedVector<uint64_t> hashes_;
};

}  // namespace sans

#endif  // SANS_SKETCH_SKETCH_KERNELS_H_
