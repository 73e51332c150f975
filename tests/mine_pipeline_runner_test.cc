#include "mine/pipeline_runner.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "candgen/candidate_io.h"
#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "mine/hlsh_miner.h"
#include "mine/kmh_miner.h"
#include "mine/mh_miner.h"
#include "mine/mlsh_miner.h"
#include "sketch/sketch_kernels.h"

namespace sans {
namespace {

class PipelineRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_pipeline_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static int counter_;
  std::filesystem::path dir_;
};

int PipelineRunnerTest::counter_ = 0;

BinaryMatrix TestMatrix() {
  SyntheticConfig config;
  config.num_rows = 400;
  config.num_cols = 60;
  config.bands = {{4, 70.0, 90.0}};
  config.spread_pairs = false;
  config.seed = 17;
  auto d = GenerateSynthetic(config);
  EXPECT_TRUE(d.ok());
  return std::move(d->matrix);
}

PipelineConfig Config(const std::string& dir) {
  PipelineConfig config;
  config.threshold = 0.6;
  config.checkpoint_dir = dir;
  return config;
}

/// The four algorithms, as their manifest tags.
constexpr const char* kAlgorithms[] = {"mh", "kmh", "mlsh", "hlsh"};

/// A small miner per algorithm, keyed by its manifest tag.
std::unique_ptr<Miner> TestMiner(const std::string& tag) {
  if (tag == "mh") {
    MhMinerConfig config;
    config.min_hash.num_hashes = 24;
    config.min_hash.seed = 3;
    return std::make_unique<MhMiner>(config);
  }
  if (tag == "kmh") {
    KmhMinerConfig config;
    config.sketch.k = 24;
    config.sketch.seed = 3;
    return std::make_unique<KmhMiner>(config);
  }
  if (tag == "mlsh") {
    MlshMinerConfig config;
    config.lsh.rows_per_band = 4;
    config.lsh.num_bands = 8;
    config.seed = 5;
    return std::make_unique<MlshMiner>(config);
  }
  HlshMinerConfig config;
  config.lsh.rows_per_run = 8;
  config.lsh.num_runs = 4;
  config.lsh.seed = 3;
  return std::make_unique<HlshMiner>(config);
}

Result<PipelineRunSummary> RunMlsh(const PipelineConfig& config,
                                   const RowStreamSource& source) {
  return PipelineRunner(config).Run(*TestMiner("mlsh"), source);
}

void ExpectSameReport(const MiningReport& a, const MiningReport& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].pair, b.pairs[i].pair);
    EXPECT_DOUBLE_EQ(a.pairs[i].similarity, b.pairs[i].similarity);
  }
}

TEST_F(PipelineRunnerTest, ValidateCatchesBadConfig) {
  PipelineConfig config = Config(Dir());
  EXPECT_TRUE(config.Validate().ok());
  config.threshold = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = Config("");  // no checkpoint directory: nothing persisted
  EXPECT_TRUE(config.Validate().ok());
  config = Config(Dir());
  config.resilience.degraded_mode = true;  // budget still 0
  EXPECT_FALSE(config.Validate().ok());
}

/// Miner::Mine run in an empty working directory, which must stay
/// empty: with no checkpoint directory nothing is persisted.
Result<MiningReport> MineWithoutFiles(Miner& miner,
                                      const RowStreamSource& source,
                                      const std::string& cwd) {
  std::filesystem::create_directories(cwd);
  const std::filesystem::path previous = std::filesystem::current_path();
  std::filesystem::current_path(cwd);
  Result<MiningReport> report = miner.Mine(source, 0.6);
  std::filesystem::current_path(previous);
  EXPECT_TRUE(std::filesystem::is_empty(cwd)) << miner.tag();
  return report;
}

TEST_F(PipelineRunnerTest, CleanRunMatchesDirectMiner) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);

  auto summary = RunMlsh(Config(Path("ckpt")), source);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->reused_signatures);
  EXPECT_FALSE(summary->reused_candidates);
  EXPECT_FALSE(summary->reused_pairs);

  auto report = MineWithoutFiles(*TestMiner("mlsh"), source, Path("cwd"));
  ASSERT_TRUE(report.ok());
  ExpectSameReport(summary->report, *report);
  EXPECT_GT(summary->report.pairs.size(), 0u);
}

TEST_F(PipelineRunnerTest, RunReportCapturesPhasesAndCounts) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = Config(Dir());
  config.run_report_path = Path("report.json");

  auto summary = RunMlsh(config, source);
  ASSERT_TRUE(summary.ok());

  const RunReport& report = summary->run_report;
  EXPECT_EQ(report.algorithm, "mlsh");
  EXPECT_DOUBLE_EQ(report.threshold, 0.6);
  EXPECT_EQ(report.table_rows, m.num_rows());
  EXPECT_EQ(report.table_cols, m.num_cols());
  // All three phases timed, in pipeline order.
  ASSERT_EQ(report.phases.size(), 3u);
  EXPECT_EQ(report.phases[0].name, "1-signatures");
  EXPECT_EQ(report.phases[1].name, "2-candidates");
  EXPECT_EQ(report.phases[2].name, "3-verify");
  // Signatures scan + verify scan each touch every row.
  EXPECT_EQ(report.rows_scanned, 2u * m.num_rows());
  EXPECT_GT(report.candidates_generated, 0u);
  EXPECT_GT(report.candidates_verified, 0u);
  EXPECT_EQ(report.true_positives, summary->report.pairs.size());
  EXPECT_EQ(report.pairs_emitted, summary->report.pairs.size());
  // The span trace includes the root and the stage spans.
  EXPECT_NE(report.trace_json.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(report.trace_json.find("1-signatures"), std::string::npos);

  // The JSON document landed on disk and parses structurally (field
  // spot-checks; full parsing is the smoke test's python job).
  std::ifstream in(config.run_report_path);
  ASSERT_TRUE(in.good());
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(json, RenderRunReportJson(report));
  EXPECT_NE(json.find("\"algorithm\": \"mlsh\""), std::string::npos);
}

TEST_F(PipelineRunnerTest, EachScanCountsEveryRowOnce) {
  // Two scans (signatures, verify), each counted once at the one place
  // rows become blocks, whatever the thread count.
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  uint64_t verified_at_1 = 0;
  for (int threads : {1, 3}) {
    PipelineConfig config = Config("");
    config.execution.num_threads = threads;
    auto summary = RunMlsh(config, source);
    ASSERT_TRUE(summary.ok());
    const RunReport& report = summary->run_report;
    EXPECT_EQ(report.rows_scanned, 2u * m.num_rows()) << "threads=" << threads;
    EXPECT_GT(report.candidates_verified, 0u);
    if (threads == 1) {
      verified_at_1 = report.candidates_verified;
    } else {
      EXPECT_EQ(report.candidates_verified, verified_at_1);
    }
  }
}

TEST_F(PipelineRunnerTest, RunReportRecordsCpuAndPeakRss) {
  // Large enough that the signature scan takes measurable CPU time.
  SyntheticConfig data;
  data.num_rows = 20000;
  data.num_cols = 200;
  data.bands = {{4, 70.0, 90.0}};
  data.spread_pairs = false;
  data.seed = 23;
  auto dataset = GenerateSynthetic(data);
  ASSERT_TRUE(dataset.ok());
  InMemorySource source(&dataset->matrix);
  MhMinerConfig mh;
  mh.min_hash.num_hashes = 100;
  mh.min_hash.seed = 3;
  for (int threads : {1, 3}) {
    PipelineConfig config = Config("");
    config.execution.num_threads = threads;
    MhMiner miner(mh);
    auto summary = PipelineRunner(config).Run(miner, source);
    ASSERT_TRUE(summary.ok());
    const RunReport& report = summary->run_report;
    ASSERT_EQ(report.phases.size(), 3u);
    EXPECT_EQ(report.phases[0].name, "1-signatures");
    EXPECT_GT(report.phases[0].cpu_s, 0.0) << "threads=" << threads;
    double previous_peak = 0.0;
    for (const RunReport::Phase& phase : report.phases) {
      EXPECT_GE(phase.cpu_s, 0.0) << phase.name;
      EXPECT_GT(phase.peak_rss_mb, 0.0) << phase.name;
      EXPECT_GE(phase.peak_rss_mb, previous_peak) << phase.name;
      previous_peak = phase.peak_rss_mb;
    }
    EXPECT_EQ(report.minhash_kernel, MinHashIsaName(SelectedMinHashIsa()));
    const std::string json = RenderRunReportJson(report);
    EXPECT_NE(json.find("\"cpu_s\": "), std::string::npos);
    EXPECT_NE(json.find("\"peak_rss_mb\": "), std::string::npos);
    EXPECT_NE(json.find("\"minhash_kernel\": \"" + report.minhash_kernel +
                        "\""),
              std::string::npos);
  }
}

TEST_F(PipelineRunnerTest, FullResumeReusesEveryStage) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = Config(Dir());

  auto first = RunMlsh(config, source);
  ASSERT_TRUE(first.ok());

  config.resume = true;
  auto second = RunMlsh(config, source);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->reused_signatures);
  EXPECT_TRUE(second->reused_candidates);
  EXPECT_TRUE(second->reused_pairs);
  ExpectSameReport(second->report, first->report);
}

TEST_F(PipelineRunnerTest, ResumeAfterLostPairsReusesEarlierStages) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = Config(Dir());

  auto first = RunMlsh(config, source);
  ASSERT_TRUE(first.ok());

  // Simulate a crash after phase 2: the verification artifact is gone.
  std::filesystem::remove(Path(PipelineRunner::kPairsFile));

  config.resume = true;
  auto second = RunMlsh(config, source);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->reused_signatures);
  EXPECT_TRUE(second->reused_candidates);
  EXPECT_FALSE(second->reused_pairs);
  ExpectSameReport(second->report, first->report);
}

TEST_F(PipelineRunnerTest, CorruptSignatureArtifactIsRecomputed) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = Config(Dir());

  auto first = RunMlsh(config, source);
  ASSERT_TRUE(first.ok());

  {
    // Flip one byte in the middle of the signature artifact.
    std::fstream f(Path(PipelineRunner::kSignaturesFile),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(40);
    byte = static_cast<char>(byte ^ 0x20);
    f.write(&byte, 1);
  }

  config.resume = true;
  auto second = RunMlsh(config, source);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->reused_signatures);
  ExpectSameReport(second->report, first->report);
}

TEST_F(PipelineRunnerTest, ChangedConfigInvalidatesCheckpoints) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = Config(Dir());

  ASSERT_TRUE(RunMlsh(config, source).ok());

  config.resume = true;
  config.threshold = 0.7;  // fingerprint changes
  auto second = RunMlsh(config, source);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->reused_signatures);
  EXPECT_FALSE(second->reused_candidates);
  EXPECT_FALSE(second->reused_pairs);
}

TEST_F(PipelineRunnerTest, ResumeWithoutCheckpointsStartsClean) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineConfig config = Config(Dir());
  config.resume = true;  // nothing checkpointed yet
  auto summary = RunMlsh(config, source);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->reused_signatures);
  EXPECT_GT(summary->report.pairs.size(), 0u);
}

TEST_F(PipelineRunnerTest, EveryAlgorithmMatchesItsMiner) {
  // Miner::Mine is the runner without a checkpoint directory: same
  // report as a checkpointed run, and no files.
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  for (const std::string tag : kAlgorithms) {
    auto summary =
        PipelineRunner(Config(Path(tag))).Run(*TestMiner(tag), source);
    ASSERT_TRUE(summary.ok()) << tag;
    auto report = MineWithoutFiles(*TestMiner(tag), source, Path(tag + "_cwd"));
    ASSERT_TRUE(report.ok()) << tag;
    ExpectSameReport(summary->report, *report);
  }
}

TEST_F(PipelineRunnerTest, ResumeIsBitIdenticalForEveryAlgorithm) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  for (const std::string tag : kAlgorithms) {
    PipelineConfig config = Config(Path(tag));
    auto first = PipelineRunner(config).Run(*TestMiner(tag), source);
    ASSERT_TRUE(first.ok()) << tag;

    // Lose the verification artifact; phase 1-2 checkpoints survive.
    std::filesystem::remove(Path(tag + "/" + PipelineRunner::kPairsFile));
    config.resume = true;
    auto second = PipelineRunner(config).Run(*TestMiner(tag), source);
    ASSERT_TRUE(second.ok()) << tag;
    EXPECT_TRUE(second->reused_signatures) << tag;
    ExpectSameReport(second->report, first->report);
  }
}

TEST_F(PipelineRunnerTest, FingerprintCoversSourceShape) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  PipelineRunner runner(Config(Dir()));
  const std::unique_ptr<Miner> miner = TestMiner("mlsh");
  const std::string a = runner.FingerprintString(*miner, source);

  auto wider = BinaryMatrix::FromRows(2, 61, {{0}, {1}});
  ASSERT_TRUE(wider.ok());
  InMemorySource other(&wider.value());
  EXPECT_NE(a, runner.FingerprintString(*miner, other));
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

TEST_F(PipelineRunnerTest, CheckpointFormatIsStable) {
  // A checkpoint directory written by an earlier build must still
  // resume, so the fingerprint string, the manifest tag and the
  // artifact checksums of every algorithm are pinned on a fixed table.
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  struct Golden {
    const char* tag;
    const char* fingerprint;
    const char* manifest;
  };
  const Golden goldens[] = {
      {"mh",
       "v1;algorithm=mh;threshold=0.59999999999999998;rows=400;cols=60;"
       "degraded=0;max_skipped=0;k=24;family=0;seed=3;candgen=0;"
       "delta=0.20000000000000001",
       "{\n  \"format\": 1,\n  \"algorithm\": \"mh\",\n"
       "  \"fingerprint\": \"4af9cca47eeef984\",\n  \"stages\": [\n"
       "    {\"name\": \"signatures\", \"file\": \"signatures.bin\", "
       "\"crc32c\": \"e20772ba\"},\n"
       "    {\"name\": \"candidates\", \"file\": \"candidates.bin\", "
       "\"crc32c\": \"87bfcabb\"},\n"
       "    {\"name\": \"pairs\", \"file\": \"pairs.bin\", "
       "\"crc32c\": \"a9d1dd1c\"}\n  ]\n}\n"},
      {"kmh",
       "v1;algorithm=kmh;threshold=0.59999999999999998;rows=400;cols=60;"
       "degraded=0;max_skipped=0;k=24;family=0;seed=3;slack=0.5;"
       "delta=0.20000000000000001;unbiased=1",
       "{\n  \"format\": 1,\n  \"algorithm\": \"kmh\",\n"
       "  \"fingerprint\": \"8709247219eda640\",\n  \"stages\": [\n"
       "    {\"name\": \"signatures\", \"file\": \"signatures.bin\", "
       "\"crc32c\": \"5e8b36d1\"},\n"
       "    {\"name\": \"candidates\", \"file\": \"candidates.bin\", "
       "\"crc32c\": \"d09d56d4\"},\n"
       "    {\"name\": \"pairs\", \"file\": \"pairs.bin\", "
       "\"crc32c\": \"a9d1dd1c\"}\n  ]\n}\n"},
      {"mlsh",
       "v1;algorithm=mlsh;threshold=0.59999999999999998;rows=400;cols=60;"
       "degraded=0;max_skipped=0;r=4;l=8;sampled=0;num_hashes=40;family=0;"
       "seed=5",
       "{\n  \"format\": 1,\n  \"algorithm\": \"mlsh\",\n"
       "  \"fingerprint\": \"042b66474146ba3e\",\n  \"stages\": [\n"
       "    {\"name\": \"signatures\", \"file\": \"signatures.bin\", "
       "\"crc32c\": \"6acd9f88\"},\n"
       "    {\"name\": \"candidates\", \"file\": \"candidates.bin\", "
       "\"crc32c\": \"0bc8b525\"},\n"
       "    {\"name\": \"pairs\", \"file\": \"pairs.bin\", "
       "\"crc32c\": \"a9d1dd1c\"}\n  ]\n}\n"},
      {"hlsh",
       "v1;algorithm=hlsh;threshold=0.59999999999999998;rows=400;cols=60;"
       "degraded=0;max_skipped=0;r=8;runs=4;band=4;min_rows=64;"
       "max_levels=32;skip_zero=1;seed=3",
       "{\n  \"format\": 1,\n  \"algorithm\": \"hlsh\",\n"
       "  \"fingerprint\": \"3f4b4ddcff6554cf\",\n  \"stages\": [\n"
       "    {\"name\": \"signatures\", \"file\": \"signatures.bin\", "
       "\"crc32c\": \"fb61180f\"},\n"
       "    {\"name\": \"candidates\", \"file\": \"candidates.bin\", "
       "\"crc32c\": \"4db76bb7\"},\n"
       "    {\"name\": \"pairs\", \"file\": \"pairs.bin\", "
       "\"crc32c\": \"d115132f\"}\n  ]\n}\n"},
  };
  for (const Golden& golden : goldens) {
    const std::string name = golden.tag;
    const std::unique_ptr<Miner> miner = TestMiner(name);
    EXPECT_EQ(miner->tag(), name);
    PipelineRunner runner(Config(Path(name)));
    EXPECT_EQ(runner.FingerprintString(*miner, source), golden.fingerprint)
        << name;
    ASSERT_TRUE(runner.Run(*miner, source).ok()) << name;
    EXPECT_EQ(ReadFileBytes(Path(name) + "/" + PipelineRunner::kManifestFile),
              golden.manifest)
        << name;
  }
}

TEST_F(PipelineRunnerTest, EveryAlgorithmIsThreadCountInvariant) {
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);
  for (const std::string name : kAlgorithms) {
    PipelineConfig reference = Config(Path(name + "_t1"));
    reference.execution.num_threads = 1;
    auto reference_run =
        PipelineRunner(reference).Run(*TestMiner(name), source);
    ASSERT_TRUE(reference_run.ok()) << name;

    for (int threads : {2, 3, 8}) {
      PipelineConfig config =
          Config(Path(name + "_t" + std::to_string(threads)));
      config.execution.num_threads = threads;
      config.execution.block_rows = 64;
      auto run = PipelineRunner(config).Run(*TestMiner(name), source);
      ASSERT_TRUE(run.ok()) << name << " threads=" << threads;
      ExpectSameReport(run->report, reference_run->report);

      // The checkpoint artifacts must be byte-identical too: resumes
      // started at a different thread count read these bytes.
      for (const char* artifact :
           {PipelineRunner::kSignaturesFile, PipelineRunner::kCandidatesFile,
            PipelineRunner::kPairsFile}) {
        EXPECT_EQ(
            ReadFileBytes(config.checkpoint_dir + "/" + artifact),
            ReadFileBytes(reference.checkpoint_dir + "/" + artifact))
            << name << " threads=" << threads << " " << artifact;
      }
    }
  }
}

TEST_F(PipelineRunnerTest, ResumeAcrossThreadCountsIsBitIdentical) {
  // Kill-and-resume across a thread-count change: checkpoint at 3
  // threads, lose the verification artifact, resume at 8 threads. The
  // fingerprint deliberately excludes ExecutionConfig, so the resumed
  // run must reuse the earlier stages and still match a clean
  // sequential run exactly.
  const BinaryMatrix m = TestMatrix();
  InMemorySource source(&m);

  PipelineConfig reference = Config(Path("reference"));
  reference.execution.num_threads = 1;
  auto reference_run = RunMlsh(reference, source);
  ASSERT_TRUE(reference_run.ok());

  PipelineConfig config = Config(Path("resumed"));
  config.execution.num_threads = 3;
  auto first = RunMlsh(config, source);
  ASSERT_TRUE(first.ok());

  std::filesystem::remove(Path("resumed") + "/" +
                          PipelineRunner::kPairsFile);
  config.resume = true;
  config.execution.num_threads = 8;
  auto second = RunMlsh(config, source);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->reused_signatures);
  EXPECT_TRUE(second->reused_candidates);
  EXPECT_FALSE(second->reused_pairs);
  ExpectSameReport(second->report, reference_run->report);
  EXPECT_EQ(ReadFileBytes(Path("resumed") + "/" + PipelineRunner::kPairsFile),
            ReadFileBytes(Path("reference") + "/" +
                          PipelineRunner::kPairsFile));
}

TEST_F(PipelineRunnerTest, CandidateIoRoundTrips) {
  std::filesystem::create_directories(Dir());
  CandidateSet candidates;
  candidates.Add(ColumnPair(1, 5), 3);
  candidates.Add(ColumnPair(0, 2), 7);
  candidates.Insert(ColumnPair(4, 9));
  const std::string path = Path("cands.bin");
  ASSERT_TRUE(WriteCandidateSet(candidates, path).ok());
  auto loaded = ReadCandidateSet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->SortedEntries(), candidates.SortedEntries());

  std::vector<SimilarPair> pairs = {
      {ColumnPair(0, 2), 0.8125},
      {ColumnPair(1, 5), 0.123456789012345678},  // exercises exact bits
  };
  const std::string pairs_path = Path("pairs.bin");
  ASSERT_TRUE(WriteSimilarPairs(pairs, pairs_path).ok());
  auto loaded_pairs = ReadSimilarPairs(pairs_path);
  ASSERT_TRUE(loaded_pairs.ok());
  ASSERT_EQ(loaded_pairs->size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*loaded_pairs)[i].pair, pairs[i].pair);
    EXPECT_EQ((*loaded_pairs)[i].similarity, pairs[i].similarity);
  }
}

TEST_F(PipelineRunnerTest, CorruptCandidateArtifactRejected) {
  std::filesystem::create_directories(Dir());
  CandidateSet candidates;
  candidates.Add(ColumnPair(1, 5), 3);
  candidates.Add(ColumnPair(2, 6), 1);
  const std::string path = Path("cands.bin");
  ASSERT_TRUE(WriteCandidateSet(candidates, path).ok());
  {
    // Offset 16 is the first pair's first column id: the flip yields
    // a still-plausible entry only the checksum can catch.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(16);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(16);
    byte = static_cast<char>(byte ^ 0x04);
    f.write(&byte, 1);
  }
  auto loaded = ReadCandidateSet(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace sans
