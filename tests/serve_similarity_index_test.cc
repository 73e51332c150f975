#include "serve/similarity_index.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "util/checksum_io.h"
#include "util/crc32c.h"
#include "util/endian.h"
#include "util/hashing.h"

namespace sans {
namespace {

class SimilarityIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_serve_index_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static int counter_;
  std::filesystem::path dir_;
};

int SimilarityIndexTest::counter_ = 0;

BinaryMatrix TestMatrix(uint64_t seed = 9) {
  SyntheticConfig config;
  config.num_rows = 400;
  config.num_cols = 50;
  config.bands = {{3, 70.0, 90.0}};
  config.spread_pairs = false;
  config.seed = seed;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d->matrix);
}

SimilarityIndexConfig SmallConfig() {
  SimilarityIndexConfig config;
  config.sketch_k = 48;
  config.rows_per_band = 3;
  config.num_bands = 8;
  config.seed = 21;
  return config;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(SimilarityIndexTest, BuildLoadRoundTrip) {
  const BinaryMatrix matrix = TestMatrix();
  const SimilarityIndexConfig config = SmallConfig();
  const std::string path = Path("t.sidx");
  ASSERT_TRUE(IndexBuilder(config)
                  .Build(InMemorySource(&matrix), path)
                  .ok());

  auto index = SimilarityIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_cols(), matrix.num_cols());
  EXPECT_EQ(index->num_rows(), matrix.num_rows());
  EXPECT_EQ(index->sketch_k(), config.sketch_k);
  EXPECT_EQ(index->rows_per_band(), config.rows_per_band);
  EXPECT_EQ(index->num_bands(), config.num_bands);
  EXPECT_EQ(index->seed(), config.seed);

  for (ColumnId c = 0; c < index->num_cols(); ++c) {
    EXPECT_EQ(index->Cardinality(c), matrix.ColumnCardinality(c));
    const auto sketch = index->Sketch(c);
    EXPECT_LE(sketch.size(), static_cast<size_t>(config.sketch_k));
    EXPECT_TRUE(std::is_sorted(sketch.begin(), sketch.end()));
    for (int band = 0; band < index->num_bands(); ++band) {
      const auto bucket = index->Bucket(band, c);
      // Every column is a member of its own bucket, and all bucket
      // mates share the band key.
      EXPECT_NE(std::find(bucket.begin(), bucket.end(), c), bucket.end());
      for (ColumnId mate : bucket) {
        EXPECT_EQ(index->BandKey(band, mate), index->BandKey(band, c));
      }
    }
  }
}

TEST_F(SimilarityIndexTest, LoadedIndexIsReusable) {
  const BinaryMatrix matrix = TestMatrix();
  const std::string path = Path("t.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  auto first = SimilarityIndex::Load(path);
  auto second = SimilarityIndex::Load(path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (ColumnId c = 0; c < first->num_cols(); ++c) {
    const auto a = first->Sketch(c);
    const auto b = second->Sketch(c);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST_F(SimilarityIndexTest, IndexFileBytesArePinned) {
  // A fixed table built from Mix64 alone; r * l = 15 band rows, so the
  // Min-Hash pass has a partial last lane group. Pinned from the
  // hash-row-at-a-time Min-Hash kernel that preceded the
  // lane-interleaved one; the file must not change at any thread count.
  const RowId num_rows = 1500;
  const ColumnId num_cols = 40;
  std::vector<std::vector<ColumnId>> rows(num_rows);
  for (RowId r = 0; r < num_rows; ++r) {
    for (ColumnId c = 0; c < num_cols; ++c) {
      if (c != 11 && Mix64(uint64_t{r} << 8 | c) % 100 < 2 + c) {
        rows[r].push_back(c);
      }
    }
  }
  auto matrix = BinaryMatrix::FromRows(num_rows, num_cols, rows);
  ASSERT_TRUE(matrix.ok());
  SimilarityIndexConfig config;
  config.sketch_k = 32;
  config.rows_per_band = 3;
  config.num_bands = 5;
  config.seed = 29;
  for (int threads : {1, 3}) {
    config.execution.num_threads = threads;
    const std::string path = Path("pinned.sidx");
    ASSERT_TRUE(
        IndexBuilder(config).Build(InMemorySource(&*matrix), path).ok());
    const std::vector<char> bytes = ReadAll(path);
    EXPECT_EQ(bytes.size(), 12900u) << "threads=" << threads;
    EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0xb6abe418u)
        << "threads=" << threads;
  }
}

TEST_F(SimilarityIndexTest, EmptyColumnsGetSingletonBuckets) {
  // Columns 3 and 7 are all-zero; they must not bucket together.
  std::vector<std::vector<ColumnId>> rows(20);
  for (RowId r = 0; r < 20; ++r) {
    for (ColumnId c = 0; c < 10; ++c) {
      if (c == 3 || c == 7) continue;
      if ((r + c) % 3 == 0) rows[r].push_back(c);
    }
  }
  auto built = BinaryMatrix::FromRows(20, 10, rows);
  ASSERT_TRUE(built.ok());
  const BinaryMatrix& matrix = *built;
  const std::string path = Path("empty.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  auto index = SimilarityIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->Cardinality(3), 0u);
  EXPECT_EQ(index->Sketch(3).size(), 0u);
  for (int band = 0; band < index->num_bands(); ++band) {
    EXPECT_EQ(index->Bucket(band, 3).size(), 1u);
    EXPECT_EQ(index->Bucket(band, 7).size(), 1u);
  }
}

TEST_F(SimilarityIndexTest, IdenticalColumnsShareEveryBucket) {
  std::vector<std::vector<ColumnId>> rows(60);
  for (RowId r = 0; r < 60; ++r) {
    if (r % 5 == 0) rows[r].push_back(0);
    if (r % 2 == 0) {
      rows[r].push_back(1);
      rows[r].push_back(4);
    }
  }
  auto built = BinaryMatrix::FromRows(60, 6, rows);
  ASSERT_TRUE(built.ok());
  const BinaryMatrix& matrix = *built;
  const std::string path = Path("dup.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  auto index = SimilarityIndex::Load(path);
  ASSERT_TRUE(index.ok());
  for (int band = 0; band < index->num_bands(); ++band) {
    EXPECT_EQ(index->BandKey(band, 1), index->BandKey(band, 4));
    const auto bucket = index->Bucket(band, 1);
    EXPECT_NE(std::find(bucket.begin(), bucket.end(), ColumnId{4}),
              bucket.end());
  }
}

/// Every column whose sketch holds `value`, ascending (what
/// SimilarityIndex::Postings promises).
std::vector<ColumnId> ColumnsHolding(const SimilarityIndex& index,
                                     uint64_t value) {
  std::vector<ColumnId> cols;
  for (ColumnId c = 0; c < index.num_cols(); ++c) {
    const auto sketch = index.Sketch(c);
    if (std::binary_search(sketch.begin(), sketch.end(), value)) {
      cols.push_back(c);
    }
  }
  return cols;
}

/// Checks Postings(c, i) against a scan of every sketch; returns how
/// many entries share their value with another column.
size_t ExpectPostingsMatchScan(const SimilarityIndex& index) {
  size_t shared = 0;
  for (ColumnId c = 0; c < index.num_cols(); ++c) {
    const auto sketch = index.Sketch(c);
    for (size_t i = 0; i < sketch.size(); ++i) {
      const auto postings = index.Postings(c, i);
      EXPECT_EQ(std::vector<ColumnId>(postings.begin(), postings.end()),
                ColumnsHolding(index, sketch[i]))
          << "column " << c << " entry " << i;
      shared += postings.size() > 1;
    }
  }
  return shared;
}

/// Writes a one-band index file holding exactly `sketches` (every
/// column in its own bucket) and claiming `num_rows` rows.
void WriteIndexWithSketches(const std::string& path, uint32_t num_rows,
                            const std::vector<std::vector<uint64_t>>& sketches) {
  File file(std::fopen(path.c_str(), "wb"));
  ASSERT_NE(file, nullptr);
  CrcFile f{file.get()};
  const uint32_t num_cols = static_cast<uint32_t>(sketches.size());
  uint32_t sketch_k = 1;
  for (const auto& sketch : sketches) {
    sketch_k = std::max(sketch_k, static_cast<uint32_t>(sketch.size()));
  }
  for (const uint32_t word :
       {kSimilarityIndexMagic, kSimilarityIndexVersion, sketch_k, uint32_t{1},
        uint32_t{1}, num_cols, num_rows, uint32_t{0}}) {
    ASSERT_TRUE(f.WriteScalar(word).ok());
  }
  ASSERT_TRUE(f.WriteScalar(uint64_t{0}).ok());  // seed
  for (uint32_t c = 0; c < num_cols; ++c) {  // band key = column
    ASSERT_TRUE(f.WriteScalar(uint64_t{c}).ok());
  }
  for (uint32_t c = 0; c < num_cols; ++c) {  // singleton buckets
    ASSERT_TRUE(f.WriteScalar(c).ok());
  }
  for (const std::vector<uint64_t>& sketch : sketches) {
    ASSERT_TRUE(f.WriteScalar(uint64_t{sketch.size()} * 2).ok());
    ASSERT_TRUE(f.WriteScalar(static_cast<uint32_t>(sketch.size())).ok());
    for (const uint64_t value : sketch) {
      ASSERT_TRUE(f.WriteScalar(value).ok());
    }
  }
  ASSERT_TRUE(f.WriteTrailer().ok());
}

TEST_F(SimilarityIndexTest, PostingsListEveryColumnSharingAValue) {
  const BinaryMatrix matrix = TestMatrix(31);
  const std::string path = Path("postings.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  auto index = SimilarityIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_GT(ExpectPostingsMatchScan(*index), 0u);
}

TEST_F(SimilarityIndexTest, PostingsGroupByFullValue) {
  // Values that agree in their low or high 32 bits stay apart.
  constexpr uint64_t kHigh = uint64_t{1} << 32;
  const std::string path = Path("full_value.sidx");
  WriteIndexWithSketches(path, 100,
                         {{5, kHigh + 5, 3 * kHigh + 7},
                          {kHigh + 5, 2 * kHigh + 5, 3 * kHigh + 7},
                          {},
                          {5, 9, 2 * kHigh + 5, 2 * kHigh + 9},
                          {kHigh + 5}});
  auto index = SimilarityIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ExpectPostingsMatchScan(*index);
  const auto postings = [&](ColumnId c, size_t i) {
    const auto span = index->Postings(c, i);
    return std::vector<ColumnId>(span.begin(), span.end());
  };
  using Cols = std::vector<ColumnId>;
  EXPECT_EQ(postings(0, 0), (Cols{0, 3}));     // 5
  EXPECT_EQ(postings(0, 1), (Cols{0, 1, 4}));  // 2^32 + 5
  EXPECT_EQ(postings(1, 1), (Cols{1, 3}));     // 2 * 2^32 + 5
  EXPECT_EQ(postings(3, 1), (Cols{3}));        // 9: column 3 only
}

TEST_F(SimilarityIndexTest, PostingsSurviveMoreValuesThanRows) {
  // A file claiming one row while holding 120 distinct values: the
  // row count must not cap the postings build.
  std::vector<std::vector<uint64_t>> sketches(3);
  for (uint64_t v = 0; v < 120; ++v) {
    sketches[v % 3].push_back(v * 977 + 1);
    if (v % 4 == 0) sketches[(v + 1) % 3].push_back(v * 977 + 1);
  }
  for (auto& sketch : sketches) std::sort(sketch.begin(), sketch.end());
  const std::string path = Path("more_values.sidx");
  WriteIndexWithSketches(path, 1, sketches);
  auto index = SimilarityIndex::Load(path);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(ExpectPostingsMatchScan(*index), 60u);
}

TEST_F(SimilarityIndexTest, MissingFileIsIOError) {
  auto index = SimilarityIndex::Load(Path("nope.sidx"));
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kIOError);
}

TEST_F(SimilarityIndexTest, BadMagicRejected) {
  const std::string path = Path("garbage.sidx");
  WriteAll(path, std::vector<char>(256, 'x'));
  auto index = SimilarityIndex::Load(path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kCorruption);
}

TEST_F(SimilarityIndexTest, TruncationAtEveryPrefixRejected) {
  const BinaryMatrix matrix = TestMatrix();
  const std::string path = Path("full.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  const std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 64u);
  // Cut at a spread of prefixes across every section: header, band
  // keys, buckets, sketches, trailer.
  for (size_t cut = 0; cut + 1 < bytes.size();
       cut += std::max<size_t>(1, bytes.size() / 37)) {
    const std::string truncated = Path("trunc.sidx");
    WriteAll(truncated,
             std::vector<char>(bytes.begin(), bytes.begin() + cut));
    auto index = SimilarityIndex::Load(truncated);
    ASSERT_FALSE(index.ok()) << "prefix of " << cut << " bytes loaded";
    EXPECT_NE(index.status().code(), StatusCode::kOk);
  }
}

TEST_F(SimilarityIndexTest, BitFlipsRejectedByChecksum) {
  const BinaryMatrix matrix = TestMatrix();
  const std::string path = Path("full.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  const std::vector<char> bytes = ReadAll(path);
  for (const size_t offset :
       {bytes.size() / 3, bytes.size() / 2, bytes.size() - 5}) {
    std::vector<char> corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    const std::string flipped = Path("flip.sidx");
    WriteAll(flipped, corrupted);
    auto index = SimilarityIndex::Load(flipped);
    ASSERT_FALSE(index.ok()) << "flip at " << offset << " loaded";
    EXPECT_EQ(index.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(SimilarityIndexTest, InflatedHeaderDimensionsRejectedEarly) {
  // A header claiming 2^28 columns in a 60-byte file must fail the
  // size precheck instead of attempting a multi-gigabyte allocation.
  std::vector<char> bytes(60, 0);
  auto put32 = [&bytes](size_t at, uint32_t v) {
    EncodeLE32(v, reinterpret_cast<unsigned char*>(bytes.data() + at));
  };
  put32(0, kSimilarityIndexMagic);
  put32(4, kSimilarityIndexVersion);
  put32(8, 64);         // sketch_k
  put32(12, 4);         // rows_per_band
  put32(16, 16);        // num_bands
  put32(20, 1u << 28);  // num_cols: maximal but absurd for the size
  put32(24, 1000);      // num_rows
  put32(28, 0);         // family
  const std::string path = Path("inflated.sidx");
  WriteAll(path, bytes);
  auto index = SimilarityIndex::Load(path);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kCorruption);
}

TEST_F(SimilarityIndexTest, UnknownHashFamilyRejected) {
  // The header's family slot must be 0 (splitmix64, the only row
  // hash). The trailer is recomputed, so only the family check can
  // reject the file.
  const BinaryMatrix matrix = TestMatrix();
  const std::string path = Path("family.sidx");
  ASSERT_TRUE(IndexBuilder(SmallConfig())
                  .Build(InMemorySource(&matrix), path)
                  .ok());
  std::vector<char> bytes = ReadAll(path);
  auto rewrite = [&](uint32_t family) {
    auto* data = reinterpret_cast<unsigned char*>(bytes.data());
    EncodeLE32(family, data + 28);
    EncodeLE32(Crc32cMask(Crc32c(data, bytes.size() - 4)),
               data + bytes.size() - 4);
    WriteAll(path, bytes);
    return SimilarityIndex::Load(path);
  };
  auto index = rewrite(2);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(rewrite(0).ok());
}

TEST_F(SimilarityIndexTest, ConfigValidateRejectsBadShapes) {
  SimilarityIndexConfig config = SmallConfig();
  config.sketch_k = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.rows_per_band = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.num_bands = 0;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(SmallConfig().Validate().ok());
}

}  // namespace
}  // namespace sans
