#include "sketch/sketch_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "sketch/min_hash.h"
#include "util/endian.h"

namespace sans {
namespace {

class SketchIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_sketch_io_" + std::to_string(::getpid()) + "_" +
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

int SketchIoTest::counter_ = 0;

BinaryMatrix TestMatrix() {
  SyntheticConfig config;
  config.num_rows = 300;
  config.num_cols = 40;
  config.bands = {{2, 70.0, 90.0}};
  config.spread_pairs = false;
  config.seed = 9;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d->matrix);
}

TEST_F(SketchIoTest, SignatureMatrixRoundTrips) {
  const BinaryMatrix m = TestMatrix();
  MinHashConfig config;
  config.num_hashes = 12;
  config.seed = 5;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());

  const std::string path = Path("sig.sans");
  ASSERT_TRUE(WriteSignatureMatrix(*signatures, path).ok());
  auto loaded = ReadSignatureMatrix(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_hashes(), 12);
  ASSERT_EQ(loaded->num_cols(), 40u);
  for (int l = 0; l < 12; ++l) {
    for (ColumnId c = 0; c < 40; ++c) {
      EXPECT_EQ(loaded->Value(l, c), signatures->Value(l, c));
    }
  }
}

TEST_F(SketchIoTest, SketchRoundTrips) {
  const BinaryMatrix m = TestMatrix();
  KMinHashConfig config;
  config.k = 8;
  config.seed = 7;
  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sketch = generator.Compute(&stream);
  ASSERT_TRUE(sketch.ok());

  const std::string path = Path("sketch.sans");
  ASSERT_TRUE(WriteKMinHashSketch(*sketch, path).ok());
  auto loaded = ReadKMinHashSketch(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->k(), 8);
  ASSERT_EQ(loaded->num_cols(), 40u);
  for (ColumnId c = 0; c < 40; ++c) {
    const auto a = sketch->Signature(c);
    const auto b = loaded->Signature(c);
    EXPECT_EQ(std::vector<uint64_t>(a.begin(), a.end()),
              std::vector<uint64_t>(b.begin(), b.end()));
    EXPECT_EQ(loaded->ColumnCardinality(c),
              sketch->ColumnCardinality(c));
  }
}

TEST_F(SketchIoTest, WrongMagicRejected) {
  // A signature file is not a sketch file and vice versa.
  const BinaryMatrix m = TestMatrix();
  MinHashConfig config;
  config.num_hashes = 4;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());
  const std::string path = Path("sig.sans");
  ASSERT_TRUE(WriteSignatureMatrix(*signatures, path).ok());
  auto as_sketch = ReadKMinHashSketch(path);
  EXPECT_FALSE(as_sketch.ok());
  EXPECT_EQ(as_sketch.status().code(), StatusCode::kCorruption);
}

TEST_F(SketchIoTest, TruncationDetected) {
  const BinaryMatrix m = TestMatrix();
  KMinHashConfig config;
  config.k = 8;
  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sketch = generator.Compute(&stream);
  ASSERT_TRUE(sketch.ok());
  const std::string path = Path("trunc.sans");
  ASSERT_TRUE(WriteKMinHashSketch(*sketch, path).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 9);
  auto loaded = ReadKMinHashSketch(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

void FlipByte(const std::string& path, long offset, char mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(offset);
  byte = static_cast<char>(byte ^ mask);
  f.write(&byte, 1);
}

/// Rewrites the version field (offset 4) to 1 and drops the 4-byte
/// trailer, producing exactly what a pre-checksum writer emitted.
void DowngradeToV1(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  const uint32_t v1 = 1;
  f.seekp(4);
  f.write(reinterpret_cast<const char*>(&v1), sizeof(v1));
  f.close();
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 4);
}

TEST_F(SketchIoTest, SignatureBitFlipCaughtByChecksum) {
  const BinaryMatrix m = TestMatrix();
  MinHashConfig config;
  config.num_hashes = 6;
  config.seed = 5;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());
  const std::string path = Path("sig.sans");
  ASSERT_TRUE(WriteSignatureMatrix(*signatures, path).ok());
  // Offset 16 is the first hash value: any value parses as valid
  // payload, so only the checksum can notice the flip.
  FlipByte(path, 16, 0x01);
  auto loaded = ReadSignatureMatrix(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(SketchIoTest, SketchBitFlipCaughtByChecksum) {
  const BinaryMatrix m = TestMatrix();
  KMinHashConfig config;
  config.k = 8;
  config.seed = 7;
  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sketch = generator.Compute(&stream);
  ASSERT_TRUE(sketch.ok());
  const std::string path = Path("sketch.sans");
  ASSERT_TRUE(WriteKMinHashSketch(*sketch, path).ok());
  // High byte of column 0's cardinality (u64 at offset 16): the
  // corrupted value still satisfies every structural check.
  FlipByte(path, 22, 0x01);
  auto loaded = ReadKMinHashSketch(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(SketchIoTest, VersionOneSignatureFileStillLoads) {
  const BinaryMatrix m = TestMatrix();
  MinHashConfig config;
  config.num_hashes = 6;
  config.seed = 5;
  MinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto signatures = generator.Compute(&stream);
  ASSERT_TRUE(signatures.ok());
  const std::string path = Path("sig_v1.sans");
  ASSERT_TRUE(WriteSignatureMatrix(*signatures, path).ok());
  DowngradeToV1(path);
  auto loaded = ReadSignatureMatrix(path);
  ASSERT_TRUE(loaded.ok());
  for (int l = 0; l < 6; ++l) {
    for (ColumnId c = 0; c < loaded->num_cols(); ++c) {
      EXPECT_EQ(loaded->Value(l, c), signatures->Value(l, c));
    }
  }
}

TEST_F(SketchIoTest, VersionOneSketchFileStillLoads) {
  const BinaryMatrix m = TestMatrix();
  KMinHashConfig config;
  config.k = 8;
  config.seed = 7;
  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&m);
  auto sketch = generator.Compute(&stream);
  ASSERT_TRUE(sketch.ok());
  const std::string path = Path("sketch_v1.sans");
  ASSERT_TRUE(WriteKMinHashSketch(*sketch, path).ok());
  DowngradeToV1(path);
  auto loaded = ReadKMinHashSketch(path);
  ASSERT_TRUE(loaded.ok());
  for (ColumnId c = 0; c < loaded->num_cols(); ++c) {
    const auto a = sketch->Signature(c);
    const auto b = loaded->Signature(c);
    EXPECT_EQ(std::vector<uint64_t>(a.begin(), a.end()),
              std::vector<uint64_t>(b.begin(), b.end()));
  }
}

// Writes a sketch-file header (magic, version, k, m) followed by the
// 32-bit words `body`, exactly as given.
void WriteRawSketch(const std::string& path, uint32_t magic,
                    uint32_t version, uint32_t k, uint32_t m,
                    const std::vector<uint32_t>& body) {
  std::vector<uint32_t> words = {magic, version, k, m};
  words.insert(words.end(), body.begin(), body.end());
  std::vector<unsigned char> bytes(4 * words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    EncodeLE32(words[i], bytes.data() + 4 * i);
  }
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

TEST_F(SketchIoTest, OversizedSketchHeaderIsCorruption) {
  // 16 bytes declaring k = 2^32 - 1 and m = 2^31 - 1: the reader must
  // check both against the file before sizing anything from them.
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    const std::string path = Path("huge_header.sans");
    WriteRawSketch(path, kSketchFileMagic, version, 0xFFFFFFFFu, 0x7FFFFFFFu,
                   {});
    EXPECT_EQ(ReadKMinHashSketch(path).status().code(),
              StatusCode::kCorruption);
    // A k the reader accepts, with a column count the file cannot hold.
    WriteRawSketch(path, kSketchFileMagic, version, 100, 0x7FFFFFFFu,
                   {0, 0, 0});
    EXPECT_EQ(ReadKMinHashSketch(path).status().code(),
              StatusCode::kCorruption);
  }
}

TEST_F(SketchIoTest, OversizedSketchColumnIsCorruption) {
  // 36 bytes, m = 1: the one column (cardinality, size) claims
  // 2^31 - 1 values, within k but far beyond the file.
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    const std::string path = Path("huge_column.sans");
    WriteRawSketch(path, kSketchFileMagic, version, 0x7FFFFFFFu, 1,
                   {5, 0, 0x7FFFFFFFu, 0, 0});
    ASSERT_EQ(std::filesystem::file_size(path), 36u);
    EXPECT_EQ(ReadKMinHashSketch(path).status().code(),
              StatusCode::kCorruption);
  }
}

TEST_F(SketchIoTest, OversizedSignatureHeaderIsCorruption) {
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    const std::string path = Path("huge_signatures.sans");
    WriteRawSketch(path, kSignatureFileMagic, version, 0x7FFFFFFFu,
                   0x7FFFFFFFu, {0, 0, 0, 0});
    EXPECT_EQ(ReadSignatureMatrix(path).status().code(),
              StatusCode::kCorruption);
    WriteRawSketch(path, kSignatureFileMagic, version, 0xFFFFFFFFu, 1, {0, 0});
    EXPECT_EQ(ReadSignatureMatrix(path).status().code(),
              StatusCode::kCorruption);
    // One value short of a 2 x 3 matrix.
    WriteRawSketch(path, kSignatureFileMagic, version, 2, 3,
                   std::vector<uint32_t>(10, 0));
    EXPECT_EQ(ReadSignatureMatrix(path).status().code(),
              StatusCode::kCorruption);
  }
}

TEST_F(SketchIoTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadSignatureMatrix(Path("nope")).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(ReadKMinHashSketch(Path("nope")).status().code(),
            StatusCode::kIOError);
}

TEST(KMinHashSketchSetColumnTest, ValidatesInput) {
  KMinHashSketch sketch(4, 3);
  EXPECT_TRUE(sketch.SetColumn(0, {1, 2, 3}, 3).ok());
  EXPECT_FALSE(sketch.SetColumn(5, {1}, 1).ok());        // range
  EXPECT_FALSE(sketch.SetColumn(0, {1, 2, 3, 4, 5}, 9).ok());  // > k
  EXPECT_FALSE(sketch.SetColumn(0, {3, 2}, 2).ok());     // unsorted
  EXPECT_FALSE(sketch.SetColumn(0, {2, 2}, 2).ok());     // duplicate
  EXPECT_FALSE(sketch.SetColumn(0, {1, 2}, 1).ok());     // card < size
}

}  // namespace
}  // namespace sans
