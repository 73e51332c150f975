#include "serve/similarity_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "candgen/min_lsh.h"
#include "mine/parallel.h"
#include "sketch/k_min_hash.h"
#include "sketch/min_hash.h"
#include "sketch/signature_matrix.h"
#include "util/checksum_io.h"
#include "util/hashing.h"

namespace sans {
namespace {

// Hard caps on header-declared dimensions, checked before any
// dimension-sized allocation so a corrupted header cannot drive an
// out-of-memory instead of a clean kCorruption.
constexpr uint32_t kMaxSketchK = 1u << 24;
constexpr uint32_t kMaxRowsPerBand = 1u << 10;
constexpr uint32_t kMaxBands = 1u << 16;
constexpr uint32_t kMaxCols = 1u << 28;

/// Empty columns get a per-column key so they never share a bucket —
/// an empty column has similarity 0 with everything.
uint64_t EmptyColumnKey(int band, ColumnId c) {
  return CombineHashes(Mix64(0x9d39247e33776d41ULL + band), Mix64(~uint64_t{c}));
}

}  // namespace

Status SimilarityIndexConfig::Validate() const {
  if (sketch_k <= 0 || static_cast<uint32_t>(sketch_k) > kMaxSketchK) {
    return Status::InvalidArgument("sketch_k out of range");
  }
  if (rows_per_band <= 0 ||
      static_cast<uint32_t>(rows_per_band) > kMaxRowsPerBand) {
    return Status::InvalidArgument("rows_per_band out of range");
  }
  if (num_bands <= 0 || static_cast<uint32_t>(num_bands) > kMaxBands) {
    return Status::InvalidArgument("num_bands out of range");
  }
  SANS_RETURN_IF_ERROR(execution.Validate());
  return Status::OK();
}

std::span<const ColumnId> SimilarityIndex::Bucket(int band,
                                                  ColumnId col) const {
  SANS_CHECK_GE(band, 0);
  SANS_CHECK_LT(band, num_bands_);
  SANS_CHECK_LT(col, num_cols_);
  const uint64_t* keys =
      band_keys_.data() + static_cast<size_t>(band) * num_cols_;
  const ColumnId* begin =
      buckets_.data() + static_cast<size_t>(band) * num_cols_;
  const ColumnId* end = begin + num_cols_;
  // Comparator over column ids via their band key; the band's columns
  // are sorted by (key, col), so equal keys form one contiguous run.
  struct ByKey {
    const uint64_t* keys;
    bool operator()(ColumnId c, uint64_t key) const { return keys[c] < key; }
    bool operator()(uint64_t key, ColumnId c) const { return key < keys[c]; }
  };
  const auto [lo, hi] =
      std::equal_range(begin, end, keys[col], ByKey{keys});
  return {lo, hi};
}

IndexBuilder::IndexBuilder(const SimilarityIndexConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}

Status IndexBuilder::Build(const RowStreamSource& source,
                           const std::string& out_path) const {
  // One pool shared by both build passes (none for the default
  // single-thread config). Both passes are bit-identical for any thread
  // count, so the index bytes do not depend on config_.execution.
  const std::unique_ptr<ThreadPool> pool = MaybeCreatePool(config_.execution);

  // Pass 1: r·l min-hash rows for the band keys.
  MinHashConfig mh;
  mh.num_hashes = config_.rows_per_band * config_.num_bands;
  mh.seed = config_.seed;
  SANS_ASSIGN_OR_RETURN(
      SignatureMatrix signatures,
      ComputeMinHashParallel(source, mh, config_.execution, pool.get()));

  // Pass 2: bottom-k sketches for reranking. Decorrelated seed: the
  // sketch must not reuse the hash function of any band row.
  KMinHashConfig kmh;
  kmh.k = config_.sketch_k;
  kmh.seed = Mix64(config_.seed ^ 0x736b6574636869ULL);
  SANS_ASSIGN_OR_RETURN(
      KMinHashSketch sketch,
      ComputeKMinHashParallel(source, kmh, config_.execution, pool.get()));

  const ColumnId m = source.num_cols();
  if (m > kMaxCols) {
    return Status::InvalidArgument("too many columns for the index format");
  }

  File file(std::fopen(out_path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for writing: " + out_path);
  }
  CrcFile f{file.get()};
  SANS_RETURN_IF_ERROR(f.WriteScalar(kSimilarityIndexMagic));
  SANS_RETURN_IF_ERROR(f.WriteScalar(kSimilarityIndexVersion));
  SANS_RETURN_IF_ERROR(f.WriteScalar(static_cast<uint32_t>(config_.sketch_k)));
  SANS_RETURN_IF_ERROR(
      f.WriteScalar(static_cast<uint32_t>(config_.rows_per_band)));
  SANS_RETURN_IF_ERROR(f.WriteScalar(static_cast<uint32_t>(config_.num_bands)));
  SANS_RETURN_IF_ERROR(f.WriteScalar(m));
  SANS_RETURN_IF_ERROR(f.WriteScalar(source.num_rows()));
  SANS_RETURN_IF_ERROR(f.WriteScalar(uint32_t{0}));  // family: splitmix64
  SANS_RETURN_IF_ERROR(f.WriteScalar(config_.seed));

  // Band keys, band-major, on the batch miner's band key, so the
  // persisted buckets reproduce its candidates.
  std::vector<uint64_t> keys(m);
  std::vector<ColumnId> order(m);
  std::vector<int> indices(config_.rows_per_band);
  std::vector<std::vector<uint64_t>> all_keys(config_.num_bands);
  for (int band = 0; band < config_.num_bands; ++band) {
    std::iota(indices.begin(), indices.end(), band * config_.rows_per_band);
    for (ColumnId c = 0; c < m; ++c) {
      keys[c] = signatures.ColumnEmpty(c)
                    ? EmptyColumnKey(band, c)
                    : BandKey(signatures, band, indices, c);
    }
    SANS_RETURN_IF_ERROR(f.Write(keys.data(), keys.size() * sizeof(uint64_t)));
    all_keys[band] = keys;
  }

  // Buckets: per band, columns sorted by (key, col).
  for (int band = 0; band < config_.num_bands; ++band) {
    const std::vector<uint64_t>& band_keys = all_keys[band];
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](ColumnId a, ColumnId b) {
      if (band_keys[a] != band_keys[b]) return band_keys[a] < band_keys[b];
      return a < b;
    });
    SANS_RETURN_IF_ERROR(
        f.Write(order.data(), order.size() * sizeof(ColumnId)));
  }

  // Sketches.
  for (ColumnId c = 0; c < m; ++c) {
    SANS_RETURN_IF_ERROR(f.WriteScalar(sketch.ColumnCardinality(c)));
    const auto sig = sketch.Signature(c);
    SANS_RETURN_IF_ERROR(f.WriteScalar(static_cast<uint32_t>(sig.size())));
    SANS_RETURN_IF_ERROR(f.Write(sig.data(), sig.size() * sizeof(uint64_t)));
  }
  return f.WriteTrailer();
}

Result<SimilarityIndex> SimilarityIndex::Load(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  // File size bounds every header-declared dimension below.
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek: " + path);
  }
  const long file_size = std::ftell(file.get());
  if (file_size < 0) {
    return Status::IOError("cannot tell: " + path);
  }
  if (std::fseek(file.get(), 0, SEEK_SET) != 0) {
    return Status::IOError("cannot seek: " + path);
  }

  CrcFile f{file.get()};
  uint32_t magic = 0;
  uint32_t version = 0;
  SANS_RETURN_IF_ERROR(f.ReadScalar(&magic));
  if (magic != kSimilarityIndexMagic) {
    return Status::Corruption("bad magic: not a similarity index file");
  }
  SANS_RETURN_IF_ERROR(f.ReadScalar(&version));
  if (version != kSimilarityIndexVersion) {
    return Status::Corruption("unsupported similarity index version");
  }

  SimilarityIndex index;
  uint32_t sketch_k = 0;
  uint32_t rows_per_band = 0;
  uint32_t num_bands = 0;
  uint32_t family = 0;
  SANS_RETURN_IF_ERROR(f.ReadScalar(&sketch_k));
  SANS_RETURN_IF_ERROR(f.ReadScalar(&rows_per_band));
  SANS_RETURN_IF_ERROR(f.ReadScalar(&num_bands));
  SANS_RETURN_IF_ERROR(f.ReadScalar(&index.num_cols_));
  SANS_RETURN_IF_ERROR(f.ReadScalar(&index.num_rows_));
  SANS_RETURN_IF_ERROR(f.ReadScalar(&family));
  SANS_RETURN_IF_ERROR(f.ReadScalar(&index.seed_));
  if (sketch_k == 0 || sketch_k > kMaxSketchK || rows_per_band == 0 ||
      rows_per_band > kMaxRowsPerBand || num_bands == 0 ||
      num_bands > kMaxBands || index.num_cols_ > kMaxCols || family != 0) {
    return Status::Corruption("similarity index header out of range");
  }
  index.sketch_k_ = static_cast<int>(sketch_k);
  index.rows_per_band_ = static_cast<int>(rows_per_band);
  index.num_bands_ = static_cast<int>(num_bands);

  const uint64_t m = index.num_cols_;
  const uint64_t cells = static_cast<uint64_t>(num_bands) * m;
  // Minimum bytes the header implies; a header inflated by corruption
  // fails here instead of allocating.
  const uint64_t min_bytes = 40 + cells * 12 + m * 12 + 4;
  if (static_cast<uint64_t>(file_size) < min_bytes) {
    return Status::Corruption("similarity index truncated");
  }

  index.band_keys_.resize(cells);
  SANS_RETURN_IF_ERROR(
      f.Read(index.band_keys_.data(), cells * sizeof(uint64_t)));
  index.buckets_.resize(cells);
  SANS_RETURN_IF_ERROR(
      f.Read(index.buckets_.data(), cells * sizeof(ColumnId)));

  index.sketch_offsets_.reserve(m + 1);
  index.sketch_offsets_.push_back(0);
  index.cardinalities_.reserve(m);
  for (uint64_t c = 0; c < m; ++c) {
    uint64_t cardinality = 0;
    uint32_t size = 0;
    SANS_RETURN_IF_ERROR(f.ReadScalar(&cardinality));
    SANS_RETURN_IF_ERROR(f.ReadScalar(&size));
    if (size > sketch_k) {
      return Status::Corruption("sketch signature larger than k");
    }
    if (cardinality < size) {
      return Status::Corruption("sketch cardinality below signature size");
    }
    if ((size == 0) != (cardinality == 0)) {
      return Status::Corruption("empty sketch with nonzero cardinality");
    }
    const size_t begin = index.sketch_values_.size();
    index.sketch_values_.resize(begin + size);
    SANS_RETURN_IF_ERROR(
        f.Read(index.sketch_values_.data() + begin, size * sizeof(uint64_t)));
    for (size_t i = begin + 1; i < begin + size; ++i) {
      if (index.sketch_values_[i] <= index.sketch_values_[i - 1]) {
        return Status::Corruption("sketch signature not strictly ascending");
      }
    }
    index.sketch_offsets_.push_back(index.sketch_values_.size());
    index.cardinalities_.push_back(cardinality);
  }
  SANS_RETURN_IF_ERROR(f.VerifyTrailer("similarity index"));

  // Structural validation of the bucket arrays: each band must be a
  // permutation of the columns sorted by (band key, column id).
  std::vector<bool> seen(m);
  for (uint32_t band = 0; band < num_bands; ++band) {
    const uint64_t* keys = index.band_keys_.data() + uint64_t{band} * m;
    const ColumnId* cols = index.buckets_.data() + uint64_t{band} * m;
    std::fill(seen.begin(), seen.end(), false);
    for (uint64_t i = 0; i < m; ++i) {
      if (cols[i] >= m || seen[cols[i]]) {
        return Status::Corruption("bucket array is not a permutation");
      }
      seen[cols[i]] = true;
      if (i > 0) {
        const bool ordered =
            keys[cols[i - 1]] < keys[cols[i]] ||
            (keys[cols[i - 1]] == keys[cols[i]] && cols[i - 1] < cols[i]);
        if (!ordered) {
          return Status::Corruption("bucket array not sorted by band key");
        }
      }
    }
  }
  SANS_RETURN_IF_ERROR(index.BuildPostings());
  return index;
}

Status SimilarityIndex::BuildPostings() {
  const size_t n = sketch_values_.size();
  if (n >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "similarity index has too many sketch entries to serve");
  }
  // One pass in column-major entry order gives every distinct value a
  // run id, in order of first sight, through an open-addressing table
  // at load <= 1/2. Fresh pages dominate the build's cost, so the
  // table is sized from a linear-counting estimate of the distinct
  // values (a 2^20-bit map, error well under 1% below 10^6 values),
  // capped by min(entries, rows) since each value hashes one row; it
  // grows if a file still breaks the estimate. The slot of the value a
  // few entries ahead is prefetched so the misses overlap.
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const auto mixed = [](uint64_t value) { return value * kMul; };
  uint64_t max_distinct = std::min<uint64_t>(n, num_rows_);
  {
    constexpr int kMapBits = 20;
    std::vector<uint64_t> map((size_t{1} << kMapBits) / 64, 0);
    for (const uint64_t value : sketch_values_) {
      const uint64_t bit = mixed(value) >> (64 - kMapBits);
      map[bit / 64] |= uint64_t{1} << (bit % 64);
    }
    size_t zeros = 0;
    for (const uint64_t word : map) zeros += 64 - std::popcount(word);
    if (zeros > 0) {
      const double bits = static_cast<double>(size_t{1} << kMapBits);
      const double estimate = -bits * std::log(zeros / bits);
      max_distinct = std::min<uint64_t>(
          max_distinct, static_cast<uint64_t>(estimate * 1.05) + 16);
    }
  }

  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  struct Slot {  // 12 bytes: the value's halves and its run id
    uint32_t low = 0;
    uint32_t high = 0;
    uint32_t run = kEmpty;
  };
  size_t capacity = 2 * max_distinct + 16;
  std::vector<Slot> table(capacity);
  const auto home = [&](uint64_t value) {
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(mixed(value)) * capacity) >> 64);
  };
  const auto value_of = [](const Slot& slot) {
    return (uint64_t{slot.high} << 32) | slot.low;
  };
  const auto find = [&](uint64_t value) {
    size_t slot = home(value);
    while (table[slot].run != kEmpty && value_of(table[slot]) != value) {
      if (++slot == capacity) slot = 0;
    }
    return slot;
  };
  // run_offsets_[r + 1] counts run r's columns until the prefix sum.
  run_offsets_.assign(1, 0);
  entry_run_.resize(n);
  constexpr size_t kLookahead = 16;
  for (size_t e = 0; e < n; ++e) {
    if (e + kLookahead < n) {
      __builtin_prefetch(&table[home(sketch_values_[e + kLookahead])]);
    }
    const uint64_t value = sketch_values_[e];
    size_t slot = find(value);
    if (table[slot].run == kEmpty) {
      const uint32_t run = static_cast<uint32_t>(run_offsets_.size() - 1);
      if (2 * (uint64_t{run} + 1) > capacity) {
        std::vector<Slot> old(2 * capacity);
        old.swap(table);
        capacity *= 2;
        for (const Slot& moved : old) {
          if (moved.run != kEmpty) table[find(value_of(moved))] = moved;
        }
        slot = find(value);
      }
      table[slot] = Slot{static_cast<uint32_t>(value),
                         static_cast<uint32_t>(value >> 32), run};
      run_offsets_.push_back(0);
    }
    entry_run_[e] = table[slot].run;
    ++run_offsets_[table[slot].run + 1];
  }
  std::vector<Slot>().swap(table);

  // Counting fill in column order, so each run's columns ascend: the
  // offsets first serve as each run's write cursor, which ends on the
  // next run's start.
  uint32_t start = 0;
  for (size_t r = 0; r + 1 < run_offsets_.size(); ++r) {
    run_offsets_[r] = start;
    start += run_offsets_[r + 1];
  }
  run_columns_.resize(n);
  for (ColumnId c = 0; c < num_cols_; ++c) {
    for (uint64_t e = sketch_offsets_[c]; e < sketch_offsets_[c + 1]; ++e) {
      run_columns_[run_offsets_[entry_run_[e]]++] = c;
    }
  }
  std::copy_backward(run_offsets_.begin(), run_offsets_.end() - 1,
                     run_offsets_.end());
  run_offsets_[0] = 0;
  return Status::OK();
}

}  // namespace sans
