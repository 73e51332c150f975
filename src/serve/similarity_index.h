// Immutable on-disk similarity index — the artifact the serving path
// (sans index / sans serve) is built on. One build pass over the
// table persists, per column, a bottom-k sketch (Section 3.2, for
// query-time reranking with the unbiased estimator) plus precomputed
// Min-LSH band buckets (Section 4.1: l bands of r min-hash rows; two
// columns sharing a band key are candidate neighbors with probability
// P_{r,l}(s) = 1-(1-s^r)^l). Queries never touch the original table.
//
// File format v1 (little-endian, util/endian.h conventions, masked
// CRC32C trailer over all preceding bytes as in table_file v2):
//
//   [magic u32 "SIDX"][version u32]
//   [sketch_k u32][rows_per_band u32][num_bands u32]
//   [num_cols u32][num_rows u32][family u32 = 0][seed u64]
//   band keys:  num_bands × num_cols u64, band-major
//   buckets:    per band, num_cols u32 column ids sorted by
//               (band key, column id) — columns of one bucket are a
//               contiguous run
//   sketches:   per column, [cardinality u64][size u32][size × u64]
//   [masked CRC32C u32]
//
// The family slot names the row hash (0 = splitmix64, the only one);
// Load rejects any other value.
//
// The loaded index is read-only and position-independent: sketch
// lookup is O(1) via an in-memory offset table, bucket lookup is a
// binary search over one band's sorted column array. A server can
// therefore share one index across request threads with no locking
// and reload by swapping a shared_ptr.
//
// Load also builds a sketch-value postings table in memory (it is not
// part of the file, so the format and the bytes IndexBuilder writes
// are unchanged): for every sketch entry, the ascending run of columns
// whose sketch holds the same value. It is the per-query form of the
// paper's Section 3.1 Hash-Count — walking a query's postings counts
// |SIG_q ∩ SIG_c| for every column c at once — and lets TopK find its
// exact answer without scanning every column. It costs two 32-bit
// words per sketch entry plus one per distinct value.

#ifndef SANS_SERVE_SIMILARITY_INDEX_H_
#define SANS_SERVE_SIMILARITY_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "matrix/row_stream.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

inline constexpr uint32_t kSimilarityIndexMagic = 0x58444953u;  // "SIDX"
inline constexpr uint32_t kSimilarityIndexVersion = 1;

/// Parameters of an index build. The band filter targets an effective
/// similarity threshold of roughly (1/l)^(1/r) (paper Section 4.1);
/// the defaults center it near 0.55.
struct SimilarityIndexConfig {
  /// Bottom-k sketch size per column (reranking accuracy; exact for
  /// column pairs whose union has at most k rows).
  int sketch_k = 128;
  /// r: min-hash rows concatenated into one band key.
  int rows_per_band = 5;
  /// l: number of bands.
  int num_bands = 20;
  uint64_t seed = 0;
  /// Build-time parallelism: the block pipeline's worker count for both
  /// build passes (bit-identical output for any thread count).
  ExecutionConfig execution;

  Status Validate() const;
};

/// Read-only similarity index loaded from disk.
class SimilarityIndex {
 public:
  /// Loads and validates an index file. Any truncation, bit-rot, or
  /// structural inconsistency is rejected as kCorruption — never a
  /// crash — so a serving process can safely point at untrusted paths.
  static Result<SimilarityIndex> Load(const std::string& path);

  ColumnId num_cols() const { return num_cols_; }
  RowId num_rows() const { return num_rows_; }
  int sketch_k() const { return sketch_k_; }
  int rows_per_band() const { return rows_per_band_; }
  int num_bands() const { return num_bands_; }
  uint64_t seed() const { return seed_; }

  /// Bottom-k signature of `col`, ascending distinct hash values. O(1).
  std::span<const uint64_t> Sketch(ColumnId col) const {
    return {sketch_values_.data() + sketch_offsets_[col],
            sketch_values_.data() + sketch_offsets_[col + 1]};
  }

  /// Exact |C_col| recorded at build time. O(1).
  uint64_t Cardinality(ColumnId col) const { return cardinalities_[col]; }

  /// The band key of `col` in `band`. O(1).
  uint64_t BandKey(int band, ColumnId col) const {
    return band_keys_[static_cast<size_t>(band) * num_cols_ + col];
  }

  /// All columns sharing `col`'s bucket in `band` (including `col`
  /// itself). O(log m) binary search over the band's sorted columns.
  std::span<const ColumnId> Bucket(int band, ColumnId col) const;

  /// Every column whose sketch holds Sketch(col)[i], ascending and
  /// including `col` itself. O(1).
  std::span<const ColumnId> Postings(ColumnId col, size_t i) const {
    const uint32_t run = entry_run_[sketch_offsets_[col] + i];
    return {run_columns_.data() + run_offsets_[run],
            run_columns_.data() + run_offsets_[run + 1]};
  }

 private:
  SimilarityIndex() = default;

  /// Builds entry_run_, run_offsets_ and run_columns_ from the loaded
  /// sketches.
  Status BuildPostings();

  int sketch_k_ = 0;
  int rows_per_band_ = 0;
  int num_bands_ = 0;
  ColumnId num_cols_ = 0;
  RowId num_rows_ = 0;
  uint64_t seed_ = 0;
  std::vector<uint64_t> band_keys_;      // num_bands × num_cols, band-major
  std::vector<ColumnId> buckets_;        // num_bands × num_cols, band-major
  std::vector<uint64_t> sketch_values_;  // concatenated signatures
  std::vector<uint64_t> sketch_offsets_; // num_cols + 1
  std::vector<uint64_t> cardinalities_;  // num_cols
  // Postings: per sketch entry, the run of its value; run r holds the
  // columns run_columns_[run_offsets_[r], run_offsets_[r + 1]),
  // ascending.
  std::vector<uint32_t> entry_run_;      // one per sketch entry
  std::vector<uint32_t> run_offsets_;    // runs + 1
  std::vector<ColumnId> run_columns_;
};

/// Builds an index file from a table. Two passes over the source (one
/// for the r·l min-hash band signatures, one for the bottom-k
/// sketches), each fanned out on the block pipeline when
/// config.execution asks for threads; the build is offline and the
/// output immutable, so a rebuilt index goes live via Server::Reload,
/// not in place.
class IndexBuilder {
 public:
  explicit IndexBuilder(const SimilarityIndexConfig& config);

  Status Build(const RowStreamSource& source,
               const std::string& out_path) const;

  const SimilarityIndexConfig& config() const { return config_; }

 private:
  SimilarityIndexConfig config_;
};

}  // namespace sans

#endif  // SANS_SERVE_SIMILARITY_INDEX_H_
