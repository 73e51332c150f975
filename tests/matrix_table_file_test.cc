#include "matrix/table_file.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "util/endian.h"

namespace sans {
namespace {

class TableFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process unique dir: ctest runs each test case as its own
    // process, so a static counter alone would collide in parallel.
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_table_file_test_" + std::to_string(::getpid()) + "_" +
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

int TableFileTest::counter_ = 0;

BinaryMatrix SmallMatrix() {
  auto m = BinaryMatrix::FromRows(4, 5, {{0, 4}, {}, {1, 2, 3}, {2}});
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST_F(TableFileTest, WriteReadRoundTrip) {
  const BinaryMatrix m = SmallMatrix();
  const std::string path = Path("t.sans");
  ASSERT_TRUE(WriteTableFile(m, path).ok());

  auto loaded = ReadTableFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), m.num_rows());
  EXPECT_EQ(loaded->num_cols(), m.num_cols());
  EXPECT_EQ(loaded->num_ones(), m.num_ones());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    const auto a = m.Row(r);
    const auto b = loaded->Row(r);
    ASSERT_EQ(std::vector<ColumnId>(a.begin(), a.end()),
              std::vector<ColumnId>(b.begin(), b.end()));
  }
}

TEST_F(TableFileTest, ReaderStreamsRows) {
  const BinaryMatrix m = SmallMatrix();
  const std::string path = Path("t.sans");
  ASSERT_TRUE(WriteTableFile(m, path).ok());

  auto reader = TableFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->num_rows(), 4u);
  EXPECT_EQ(reader.value()->num_cols(), 5u);

  RowView view;
  int rows = 0;
  while (reader.value()->Next(&view)) {
    EXPECT_EQ(view.row, static_cast<RowId>(rows));
    ++rows;
  }
  EXPECT_EQ(rows, 4);
  EXPECT_TRUE(reader.value()->stream_status().ok());
}

TEST_F(TableFileTest, ResetSupportsSecondScan) {
  const BinaryMatrix m = SmallMatrix();
  const std::string path = Path("t.sans");
  ASSERT_TRUE(WriteTableFile(m, path).ok());

  auto reader = TableFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  RowView view;
  while (reader.value()->Next(&view)) {
  }
  ASSERT_TRUE(reader.value()->Reset().ok());
  int rows = 0;
  while (reader.value()->Next(&view)) ++rows;
  EXPECT_EQ(rows, 4);
}

TEST_F(TableFileTest, SourceOpensIndependentReaders) {
  const BinaryMatrix m = SmallMatrix();
  const std::string path = Path("t.sans");
  ASSERT_TRUE(WriteTableFile(m, path).ok());

  auto source = TableFileSource::Create(path);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source->num_rows(), 4u);
  auto s1 = source->Open();
  auto s2 = source->Open();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  RowView v;
  ASSERT_TRUE(s1.value()->Next(&v));
  ASSERT_TRUE(s2.value()->Next(&v));
  EXPECT_EQ(v.row, 0u);
}

TEST_F(TableFileTest, MissingFileIsIOError) {
  auto reader = TableFileReader::Open(Path("does_not_exist"));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
}

TEST_F(TableFileTest, BadMagicIsCorruption) {
  const std::string path = Path("bad.sans");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a table file at all";
  }
  auto reader = TableFileReader::Open(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST_F(TableFileTest, OversizedRowCountIsCorruptionWithoutAllocating) {
  // 36 bytes: a 1 x 10 header, then a row claiming 0xFFFFFFFF entries
  // (16 GB of column ids). A valid row holds at most num_cols ids, so
  // the reader must reject the count before sizing its buffer.
  const std::string path = Path("huge_row.sans");
  {
    std::vector<unsigned char> bytes(36, 0);
    const uint32_t header[5] = {kTableFileMagic, kTableFileVersion, 1, 10,
                                0xFFFFFFFFu};
    for (int i = 0; i < 5; ++i) {
      EncodeLE32(header[i], bytes.data() + 4 * i);
    }
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  auto loaded = ReadTableFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);

  auto source = TableFileSource::Create(path);
  ASSERT_TRUE(source.ok());
  auto stream = source->Open();
  ASSERT_TRUE(stream.ok());
  RowView view;
  EXPECT_FALSE((*stream)->Next(&view));
  EXPECT_EQ((*stream)->stream_status().code(), StatusCode::kCorruption);
  // Framing is lost, so a further Next() does not resume.
  EXPECT_FALSE((*stream)->Next(&view));
  EXPECT_EQ((*stream)->stream_status().code(), StatusCode::kCorruption);
}

TEST_F(TableFileTest, TruncatedFileIsDetected) {
  const BinaryMatrix m = SmallMatrix();
  const std::string path = Path("trunc.sans");
  ASSERT_TRUE(WriteTableFile(m, path).ok());
  // Chop off the last 6 bytes.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 6);

  auto reader = TableFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  RowView view;
  while (reader.value()->Next(&view)) {
  }
  EXPECT_FALSE(reader.value()->stream_status().ok());
  EXPECT_EQ(reader.value()->stream_status().code(),
            StatusCode::kCorruption);
}

void OverwriteByte(const std::string& path, long offset, char value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(offset);
  f.write(&value, 1);
}

// Layout of SmallMatrix() on disk: 16-byte header, then
//   row 0: count @16, entries {0,4} @20
//   row 1: count @28
//   row 2: count @32, entries {1,2,3} @36
//   row 3: count @48, entry {2} @52
//   v2 trailer @56.

TEST_F(TableFileTest, SilentBitFlipCaughtByChecksum) {
  const std::string path = Path("flip.sans");
  ASSERT_TRUE(WriteTableFile(SmallMatrix(), path).ok());
  // Turn row 0 from {0,4} into {3,4}: still sorted, still in range —
  // without the trailer this would load as silently wrong data.
  OverwriteByte(path, 20, 3);

  auto loaded = ReadTableFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);

  // Streaming sees every row (framing is fine); the error surfaces
  // only when the scan reaches the trailer.
  auto reader = TableFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  RowView view;
  int rows = 0;
  while (reader.value()->Next(&view)) ++rows;
  EXPECT_EQ(rows, 4);
  EXPECT_EQ(reader.value()->stream_status().code(),
            StatusCode::kCorruption);
}

TEST_F(TableFileTest, VersionOneFilesStillLoad) {
  const BinaryMatrix m = SmallMatrix();
  const std::string path = Path("v1.sans");
  ASSERT_TRUE(WriteTableFile(m, path).ok());
  // Rewrite the version field to 1 and drop the trailer — exactly the
  // bytes a pre-checksum writer produced.
  OverwriteByte(path, 4, 1);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 4);

  auto reader = TableFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->version(), 1u);

  auto loaded = ReadTableFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_ones(), m.num_ones());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    const auto a = m.Row(r);
    const auto b = loaded->Row(r);
    ASSERT_EQ(std::vector<ColumnId>(a.begin(), a.end()),
              std::vector<ColumnId>(b.begin(), b.end()));
  }
}

TEST_F(TableFileTest, InvalidRowEntriesAreResumable) {
  const std::string path = Path("badrow.sans");
  ASSERT_TRUE(WriteTableFile(SmallMatrix(), path).ok());
  // Row 2 becomes {1,0,3}: out of order, caught by validation with
  // framing intact, so the scan can resume past it.
  OverwriteByte(path, 40, 0);

  auto reader = TableFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  RowView view;
  ASSERT_TRUE(reader.value()->Next(&view));
  EXPECT_EQ(view.row, 0u);
  ASSERT_TRUE(reader.value()->Next(&view));
  EXPECT_EQ(view.row, 1u);
  // Bad row: one failed Next() with a row-level error...
  ASSERT_FALSE(reader.value()->Next(&view));
  EXPECT_EQ(reader.value()->stream_status().code(),
            StatusCode::kCorruption);
  // ...and the stream resumes on the row after it.
  ASSERT_TRUE(reader.value()->Next(&view));
  EXPECT_EQ(view.row, 3u);
  ASSERT_FALSE(reader.value()->Next(&view));
  EXPECT_TRUE(reader.value()->stream_status().ok());
}

TEST_F(TableFileTest, EmptyMatrixRoundTrips) {
  BinaryMatrix empty(3, 2);
  const std::string path = Path("empty.sans");
  ASSERT_TRUE(WriteTableFile(empty, path).ok());
  auto loaded = ReadTableFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 3u);
  EXPECT_EQ(loaded->num_cols(), 2u);
  EXPECT_EQ(loaded->num_ones(), 0u);
}

TEST_F(TableFileTest, GeneratedDatasetRoundTrips) {
  SyntheticConfig config;
  config.num_rows = 500;
  config.num_cols = 100;
  config.bands = {{1, 80.0, 90.0}};
  config.seed = 3;
  auto dataset = GenerateSynthetic(config);
  ASSERT_TRUE(dataset.ok());

  const std::string path = Path("synth.sans");
  ASSERT_TRUE(WriteTableFile(dataset->matrix, path).ok());
  auto loaded = ReadTableFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_ones(), dataset->matrix.num_ones());
  // Similarity structure survives the round trip.
  const ColumnPair planted = dataset->planted[0].pair;
  EXPECT_DOUBLE_EQ(
      loaded->Similarity(planted.first, planted.second),
      dataset->matrix.Similarity(planted.first, planted.second));
}

}  // namespace
}  // namespace sans
