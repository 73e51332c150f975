// sans — command-line driver for the library.
//
// Subcommands:
//   generate   synthesize a dataset and write it as a table file
//   mine       find similar column pairs in a table file
//   rules      find high-confidence directed rules (Section 6)
//   exclusions find anticorrelated pairs (Section 7)
//   truth      brute-force exact similar pairs (ground truth)
//   stats      print table shape / density / similarity histogram
//   convert    convert between binary table files and text transactions
//   sketch     persist a bottom-k sketch of a table
//   pairs      mine similar pairs from a persisted sketch (no table
//              rescan; estimates only, no exact verification)
//   index      build a persistent similarity index (sketches + LSH
//              band buckets) for online serving
//   serve      answer similarity queries over an index via TCP
//   query      ask a running server (top-k / pair / stats / reload)
//
// Examples:
//   sans generate --kind weblog --out log.sans --seed 7
//   sans mine --in log.sans --algorithm mlsh --threshold 0.7 --r 5 --l 20
//   sans rules --in corpus.sans --threshold 0.95 --k 200
//   sans truth --in log.sans --threshold 0.7

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "data/dataset_io.h"
#include "data/news_generator.h"
#include "data/synthetic_generator.h"
#include "data/weblog_generator.h"
#include "lsh/distribution_estimator.h"
#include "matrix/table_file.h"
#include "mine/anticorrelation.h"
#include "mine/brute_force.h"
#include "mine/confidence_miner.h"
#include "mine/hlsh_miner.h"
#include "mine/kmh_miner.h"
#include "mine/clustering.h"
#include "mine/disjunction_miner.h"
#include "mine/mh_miner.h"
#include "mine/miner.h"
#include "mine/mlsh_miner.h"
#include "mine/pipeline_runner.h"
#include "obs/run_report.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/similarity_index.h"
#include "sketch/estimators.h"
#include "sketch/sketch_io.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans::cli {
namespace {

/// Minimal --flag value parser; flags may appear in any order. A flag
/// followed by another flag (or the end of the line) is boolean — so
/// bare switches like --resume need no explicit "1".
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      const std::string key(argv[i] + 2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_.insert_or_assign(key, std::string(argv[i + 1]));
        ++i;
      } else {
        values_.insert_or_assign(key, std::string("1"));
      }
    }
  }

  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }
  bool GetBool(const std::string& key, bool fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second != "0" && it->second != "false";
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// --threads / --block-rows. Defaults to every hardware thread;
/// --threads 1 runs the one worker on the calling thread. Output is
/// bit-identical either way.
Result<ExecutionConfig> ParseExecution(const Args& args) {
  ExecutionConfig execution;
  const unsigned hardware = std::thread::hardware_concurrency();
  execution.num_threads = static_cast<int>(
      args.GetInt("threads", hardware > 0 ? hardware : 1));
  execution.block_rows =
      static_cast<int>(args.GetInt("block-rows", execution.block_rows));
  SANS_RETURN_IF_ERROR(execution.Validate());
  return execution;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: sans <command> [--flag value ...]\n"
      "commands:\n"
      "  generate  --kind synthetic|weblog|news --out FILE [--rows N]\n"
      "            [--cols N] [--seed S]\n"
      "  mine      --in FILE --algorithm mh|kmh|mlsh|hlsh|auto\n"
      "            [--threshold S] [--k K] [--r R] [--l L] [--seed S]\n"
      "            [--delta D (mh, kmh)] [--sample N] [--max-fn F]\n"
      "            [--max-fp F] (auto: columns sampled, FN/FP budgets)\n"
      "            [--threads N (default: all cores; 1 = no pool)]\n"
      "            [--block-rows N] [--checkpoint-dir DIR] [--resume]\n"
      "            [--max-retries N] [--max-skipped-rows N]\n"
      "            [--run-report FILE (write a JSON run report)]\n"
      "  rules     --in FILE [--threshold C] [--k K] [--seed S]\n"
      "  exclusions --in FILE [--support F] [--max-lift F]\n"
      "  truth     --in FILE [--threshold S]\n"
      "  stats     --in FILE | <host:port> (scrape a running server's\n"
      "            metrics in Prometheus text format)\n"
      "  convert   --in FILE --out FILE (format by extension: .sans\n"
      "            binary, anything else text transactions)\n"
      "  sketch    --in FILE --out FILE [--k K] [--seed S]\n"
      "  pairs     --sketch FILE [--threshold S] [--threads N]\n"
      "  clusters  --in FILE [--threshold S] [--min-size N]\n"
      "            [--min-cohesion F] [--threads N] [--block-rows N]\n"
      "  disjunctions --in FILE [--threshold S] [--k K]\n"
      "  index     --in FILE --out FILE [--k K] [--r R] [--l L]\n"
      "            [--seed S] [--threads N] [--block-rows N]\n"
      "  serve     --index FILE [--host H] [--port P (0 = ephemeral)]\n"
      "            [--threads N] [--allow-reload]\n"
      "  query     --port P [--host H] plus one of:\n"
      "            --col C [--k K] [--min-similarity S] | --a A --b B |\n"
      "            --stats | --ping | --reload FILE\n");
  return 2;
}

bool IsTableFile(const std::string& path) {
  return path.size() >= 5 && path.substr(path.size() - 5) == ".sans";
}

Result<BinaryMatrix> LoadInput(const std::string& path) {
  if (IsTableFile(path)) return ReadTableFile(path);
  return LoadTransactions(path);
}

Status SaveOutput(const BinaryMatrix& matrix, const std::string& path) {
  if (IsTableFile(path)) return WriteTableFile(matrix, path);
  return SaveTransactions(matrix, path);
}

/// A table opened for scanning: a .sans file streams from disk (so a
/// mid-scan fault is recoverable by re-opening it); anything else is
/// text transactions, loaded into memory once.
struct InputTable {
  std::unique_ptr<BinaryMatrix> matrix;  // text input only
  std::unique_ptr<RowStreamSource> source;
};

Result<InputTable> OpenInput(const std::string& path) {
  InputTable table;
  if (IsTableFile(path)) {
    SANS_ASSIGN_OR_RETURN(TableFileSource file, TableFileSource::Create(path));
    table.source = std::make_unique<TableFileSource>(std::move(file));
  } else {
    SANS_ASSIGN_OR_RETURN(BinaryMatrix matrix, LoadTransactions(path));
    table.matrix = std::make_unique<BinaryMatrix>(std::move(matrix));
    table.source = std::make_unique<InMemorySource>(table.matrix.get());
  }
  return table;
}

int RunGenerate(const Args& args) {
  const std::string kind = args.GetString("kind", "synthetic");
  const std::string out = args.Require("out");
  const uint64_t seed = args.GetInt("seed", 0);
  Result<BinaryMatrix> matrix = Status::Unimplemented("");
  if (kind == "synthetic") {
    SyntheticConfig config;
    config.num_rows = static_cast<RowId>(args.GetInt("rows", 10'000));
    config.num_cols = static_cast<ColumnId>(args.GetInt("cols", 10'000));
    config.seed = seed;
    auto dataset = GenerateSynthetic(config);
    if (!dataset.ok()) return Fail(dataset.status());
    std::printf("planted %zu similar pairs\n", dataset->planted.size());
    matrix = std::move(dataset->matrix);
  } else if (kind == "weblog") {
    WeblogConfig config;
    config.num_clients = static_cast<RowId>(args.GetInt("rows", 200'000));
    config.num_urls = static_cast<ColumnId>(args.GetInt("cols", 13'000));
    config.num_bundles = static_cast<int>(args.GetInt("bundles", 400));
    config.seed = seed;
    auto dataset = GenerateWeblog(config);
    if (!dataset.ok()) return Fail(dataset.status());
    std::printf("planted %zu url bundles\n", dataset->bundles.size());
    matrix = std::move(dataset->matrix);
  } else if (kind == "news") {
    NewsConfig config;
    config.num_docs = static_cast<RowId>(args.GetInt("rows", 40'000));
    config.vocab_size = static_cast<ColumnId>(args.GetInt("cols", 8'000));
    config.seed = seed;
    auto dataset = GenerateNews(config);
    if (!dataset.ok()) return Fail(dataset.status());
    std::printf("planted %zu collocations, %zu clusters\n",
                dataset->collocations.size(), dataset->clusters.size());
    matrix = std::move(dataset->matrix);
  } else {
    std::fprintf(stderr, "unknown --kind '%s'\n", kind.c_str());
    return 2;
  }
  const Status s = SaveOutput(*matrix, out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %u rows x %u cols, %llu ones\n", out.c_str(),
              matrix->num_rows(), matrix->num_cols(),
              static_cast<unsigned long long>(matrix->num_ones()));
  return 0;
}

int PrintPairs(const MiningReport& report) {
  std::printf("# %zu pairs, %llu candidates, %.3fs (%s)\n",
              report.pairs.size(),
              static_cast<unsigned long long>(report.num_candidates),
              report.TotalSeconds(), report.timers.ToString().c_str());
  for (const SimilarPair& p : report.pairs) {
    std::printf("%u\t%u\t%.6f\n", p.pair.first, p.pair.second,
                p.similarity);
  }
  return 0;
}

/// Validates `config` and builds the miner it configures.
template <typename MinerT, typename Config>
Result<std::unique_ptr<Miner>> NewMiner(const Config& config) {
  SANS_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<Miner>(std::make_unique<MinerT>(config));
}

/// The one --algorithm table: maps mh|kmh|mlsh|hlsh|auto and their
/// flags to a miner. `auto` (Section 4.1, input-sensitive) estimates
/// the similarity distribution from the table — a column sample for
/// the low mass, a min-hash sketch for the high tail — and resolves
/// (r, l) before the run, so the fingerprint records them.
Result<std::unique_ptr<Miner>> MakeMiner(const Args& args,
                                         const InputTable& table,
                                         const std::string& in) {
  const std::string algorithm = args.GetString("algorithm", "mlsh");
  const uint64_t seed = args.GetInt("seed", 0);
  if (algorithm == "mh") {
    MhMinerConfig config;
    config.min_hash.num_hashes = static_cast<int>(args.GetInt("k", 100));
    config.min_hash.seed = seed;
    config.delta = args.GetDouble("delta", 0.25);
    return NewMiner<MhMiner>(config);
  }
  if (algorithm == "kmh") {
    KmhMinerConfig config;
    config.sketch.k = static_cast<int>(args.GetInt("k", 100));
    config.sketch.seed = seed;
    config.delta = args.GetDouble("delta", 0.25);
    return NewMiner<KmhMiner>(config);
  }
  if (algorithm == "mlsh") {
    MlshMinerConfig config;
    config.lsh.rows_per_band = static_cast<int>(args.GetInt("r", 5));
    config.lsh.num_bands = static_cast<int>(args.GetInt("l", 20));
    config.seed = seed;
    return NewMiner<MlshMiner>(config);
  }
  if (algorithm == "hlsh") {
    HlshMinerConfig config;
    config.lsh.rows_per_run = static_cast<int>(args.GetInt("r", 12));
    config.lsh.num_runs = static_cast<int>(args.GetInt("l", 4));
    config.lsh.seed = seed;
    return NewMiner<HlshMiner>(config);
  }
  if (algorithm != "auto") {
    return Status::InvalidArgument("unknown --algorithm '" + algorithm + "'");
  }
  // A streamed table is loaded for the estimate only.
  std::optional<BinaryMatrix> loaded;
  if (table.matrix == nullptr) {
    SANS_ASSIGN_OR_RETURN(loaded, ReadTableFile(in));
  }
  const BinaryMatrix& matrix = loaded ? *loaded : *table.matrix;
  DistributionEstimatorOptions est;
  est.sample_columns = static_cast<ColumnId>(args.GetInt("sample", 500));
  est.seed = seed;
  SANS_ASSIGN_OR_RETURN(const SimilarityDistribution low,
                        EstimateSimilarityDistribution(matrix, est));
  SketchDistributionOptions sketch_est;
  sketch_est.seed = seed + 1;
  SANS_ASSIGN_OR_RETURN(
      const SimilarityDistribution high,
      EstimateSimilarityDistributionSketch(matrix, sketch_est));
  LshOptimizerOptions opt;
  opt.s0 = args.GetDouble("threshold", 0.5);
  opt.max_false_negatives = args.GetDouble("max-fn", 5.0);
  opt.max_false_positives = args.GetDouble("max-fp", 1e6);
  SANS_ASSIGN_OR_RETURN(
      MlshMiner miner,
      MlshMiner::FromDistribution(MergeDistributions(low, high, 0.25), opt,
                                  seed));
  std::fprintf(stderr, "auto-selected r=%d l=%d\n",
               miner.config().lsh.rows_per_band,
               miner.config().lsh.num_bands);
  return NewMiner<MlshMiner>(miner.config());
}

/// `sans mine`: one miner run by PipelineRunner. --checkpoint-dir
/// persists every stage and --resume reuses them; --max-retries and
/// --max-skipped-rows tune the resilient table scans.
int RunMine(const Args& args) {
  PipelineConfig config;
  config.threshold = args.GetDouble("threshold", 0.5);
  auto execution = ParseExecution(args);
  if (!execution.ok()) return Fail(execution.status());
  config.execution = *execution;
  config.run_report_path = args.GetString("run-report", "");
  config.checkpoint_dir = args.GetString("checkpoint-dir", "");
  config.resume = args.GetBool("resume", false);
  if (config.resume && config.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "warning: --resume takes effect only with "
                 "--checkpoint-dir; ignoring\n");
  }
  const int64_t max_retries = args.GetInt("max-retries", 2);
  if (max_retries < 0) {
    std::fprintf(stderr, "--max-retries must be >= 0\n");
    return 2;
  }
  config.resilience.retry.max_attempts = static_cast<int>(max_retries) + 1;
  const int64_t max_skipped = args.GetInt("max-skipped-rows", 0);
  if (max_skipped < 0) {
    std::fprintf(stderr, "--max-skipped-rows must be >= 0\n");
    return 2;
  }
  config.resilience.degraded_mode = max_skipped > 0;
  config.resilience.max_skipped_rows = static_cast<uint64_t>(max_skipped);
  if (const Status s = config.Validate(); !s.ok()) return Fail(s);

  const std::string in = args.Require("in");
  auto table = OpenInput(in);
  if (!table.ok()) return Fail(table.status());
  auto miner = MakeMiner(args, *table, in);
  if (!miner.ok()) return Fail(miner.status());
  auto summary = PipelineRunner(config).Run(**miner, *table->source);
  if (!summary.ok()) return Fail(summary.status());
  for (const std::string& line : summary->log) {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  if (summary->stream_reopens > 0 || summary->open_failures > 0 ||
      summary->rows_skipped > 0) {
    std::fprintf(stderr,
                 "[pipeline] faults: reopens=%llu open_failures=%llu "
                 "rows_skipped=%llu\n",
                 static_cast<unsigned long long>(summary->stream_reopens),
                 static_cast<unsigned long long>(summary->open_failures),
                 static_cast<unsigned long long>(summary->rows_skipped));
  }
  std::fprintf(stderr, "%s",
               RenderPhaseTable(summary->run_report).c_str());
  return PrintPairs(summary->report);
}

int RunRules(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  InMemorySource source(&matrix.value());
  ConfidenceMinerConfig config;
  config.min_hash.num_hashes = static_cast<int>(args.GetInt("k", 150));
  config.min_hash.seed = args.GetInt("seed", 0);
  ConfidenceMiner miner(config);
  auto report = miner.Mine(source, args.GetDouble("threshold", 0.9));
  if (!report.ok()) return Fail(report.status());
  std::printf("# %zu rules, %llu candidates, %.3fs\n",
              report->rules.size(),
              static_cast<unsigned long long>(report->num_candidates),
              report->timers.GrandTotal());
  for (const ConfidenceRule& rule : report->rules) {
    std::printf("%u\t=>\t%u\t%.6f\n", rule.antecedent, rule.consequent,
                rule.confidence);
  }
  return 0;
}

int RunExclusions(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  AnticorrelationConfig config;
  config.min_support = args.GetDouble("support", 0.05);
  config.max_lift = args.GetDouble("max-lift", 0.2);
  auto result = MineAnticorrelated(*matrix, config);
  if (!result.ok()) return Fail(result.status());
  std::printf("# %zu anticorrelated pairs\n", result->size());
  for (const AnticorrelatedPair& p : *result) {
    std::printf("%u\t%u\tinter=%llu\texpected=%.1f\tlift=%.4f\n",
                p.pair.first, p.pair.second,
                static_cast<unsigned long long>(p.intersection),
                p.expected_intersection, p.lift);
  }
  return 0;
}

int RunTruth(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  auto pairs =
      BruteForceSimilarPairs(*matrix, args.GetDouble("threshold", 0.5));
  if (!pairs.ok()) return Fail(pairs.status());
  std::printf("# %zu pairs (exact)\n", pairs->size());
  for (const SimilarPair& p : *pairs) {
    std::printf("%u\t%u\t%.6f\n", p.pair.first, p.pair.second,
                p.similarity);
  }
  return 0;
}

int RunStats(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  std::printf("rows: %u\ncols: %u\nones: %llu\n", matrix->num_rows(),
              matrix->num_cols(),
              static_cast<unsigned long long>(matrix->num_ones()));
  if (matrix->num_rows() == 0 || matrix->num_cols() == 0) return 0;
  double density_sum = 0.0;
  uint64_t empty = 0;
  for (ColumnId c = 0; c < matrix->num_cols(); ++c) {
    density_sum += matrix->ColumnDensity(c);
    if (matrix->ColumnCardinality(c) == 0) ++empty;
  }
  std::printf("mean column density: %.6f\nempty columns: %llu\n",
              density_sum / matrix->num_cols(),
              static_cast<unsigned long long>(empty));
  return 0;
}

int RunClusters(const Args& args) {
  auto table = OpenInput(args.Require("in"));
  if (!table.ok()) return Fail(table.status());
  const double threshold = args.GetDouble("threshold", 0.5);
  auto execution = ParseExecution(args);
  if (!execution.ok()) return Fail(execution.status());
  // Mine pairs with K-MH, then extract cohesive clusters.
  KmhMinerConfig miner_config;
  miner_config.sketch.k = static_cast<int>(args.GetInt("k", 120));
  miner_config.sketch.seed = args.GetInt("seed", 0);
  miner_config.hash_count_slack = 0.4;
  KmhMiner miner(miner_config);
  auto report = miner.Mine(*table->source, threshold, *execution);
  if (!report.ok()) return Fail(report.status());

  ClusteringOptions options;
  options.min_similarity = threshold;
  options.min_cluster_size =
      static_cast<int>(args.GetInt("min-size", 3));
  options.min_cohesion = args.GetDouble("min-cohesion", 0.5);
  auto clusters =
      ExtractClusters(report->pairs, table->source->num_cols(), options);
  if (!clusters.ok()) return Fail(clusters.status());
  std::printf("# %zu clusters (from %zu similar pairs)\n",
              clusters->size(), report->pairs.size());
  for (const SimilarityCluster& cluster : *clusters) {
    std::printf("cohesion=%.2f members:", cluster.cohesion);
    for (ColumnId c : cluster.members) std::printf(" %u", c);
    std::printf("\n");
  }
  return 0;
}

int RunDisjunctions(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  DisjunctionMinerConfig config;
  config.min_hash.num_hashes = static_cast<int>(args.GetInt("k", 120));
  config.min_hash.seed = args.GetInt("seed", 0);
  DisjunctionMiner miner(config);
  auto report = miner.Mine(*matrix, args.GetDouble("threshold", 0.6));
  if (!report.ok()) return Fail(report.status());
  std::printf("# %zu disjunction rules (%llu candidates)\n",
              report->rules.size(),
              static_cast<unsigned long long>(report->num_candidates));
  for (const DisjunctionRule& rule : report->rules) {
    std::printf("%u ~ %u|%u\tS=%.4f\t(pairs %.4f / %.4f)\n",
                rule.target, rule.disjunct_a, rule.disjunct_b,
                rule.similarity, rule.pair_similarity_a,
                rule.pair_similarity_b);
  }
  return 0;
}

int RunSketch(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  KMinHashConfig config;
  config.k = static_cast<int>(args.GetInt("k", 100));
  config.seed = args.GetInt("seed", 0);
  KMinHashGenerator generator(config);
  InMemoryRowStream stream(&matrix.value());
  auto sketch = generator.Compute(&stream);
  if (!sketch.ok()) return Fail(sketch.status());
  const std::string out = args.Require("out");
  if (const Status s = WriteKMinHashSketch(*sketch, out); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s: k=%d, %u columns, %llu stored values\n",
              out.c_str(), sketch->k(), sketch->num_cols(),
              static_cast<unsigned long long>(
                  sketch->TotalSignatureSize()));
  return 0;
}

int RunPairsFromSketch(const Args& args) {
  const double threshold = args.GetDouble("threshold", 0.5);
  if (threshold <= 0.0 || threshold > 1.0) {
    std::fprintf(stderr, "threshold must lie in (0, 1]\n");
    return 2;
  }
  auto execution = ParseExecution(args);
  if (!execution.ok()) return Fail(execution.status());
  // K-MH phase 2 only, on the stored sketch: no table is available for
  // exact verification. With delta = 0 the unbiased estimate itself
  // must reach the threshold.
  KmhMinerConfig config;
  config.delta = 0.0;
  KmhMiner miner(config);
  if (const Status s = miner.ReadSketch(args.Require("sketch")); !s.ok()) {
    return Fail(s);
  }
  const std::unique_ptr<ThreadPool> pool = MaybeCreatePool(*execution);
  auto candidates = miner.Candidates(threshold, pool.get());
  if (!candidates.ok()) return Fail(candidates.status());
  const KMinHashSketch& sketch = miner.sketch();
  std::vector<SimilarPair> pairs;
  for (const auto& [pair, count] : *candidates) {
    pairs.push_back(SimilarPair{
        pair, EstimateSimilarityUnbiased(sketch.Signature(pair.first),
                                         sketch.Signature(pair.second),
                                         sketch.k())});
  }
  SortPairs(&pairs);
  std::printf("# %zu pairs (ESTIMATED similarities; verify against the "
              "table for exact values)\n",
              pairs.size());
  for (const SimilarPair& p : pairs) {
    std::printf("%u\t%u\t%.6f\n", p.pair.first, p.pair.second,
                p.similarity);
  }
  return 0;
}

int RunIndex(const Args& args) {
  SimilarityIndexConfig config;
  config.sketch_k = static_cast<int>(args.GetInt("k", config.sketch_k));
  config.rows_per_band =
      static_cast<int>(args.GetInt("r", config.rows_per_band));
  config.num_bands = static_cast<int>(args.GetInt("l", config.num_bands));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  auto execution = ParseExecution(args);
  if (!execution.ok()) return Fail(execution.status());
  config.execution = *execution;
  const IndexBuilder builder(config);
  auto table = OpenInput(args.Require("in"));
  if (!table.ok()) return Fail(table.status());
  const RowStreamSource& source = *table->source;
  const std::string out = args.Require("out");
  if (const Status s = builder.Build(source, out); !s.ok()) return Fail(s);
  std::printf("wrote %s: %u columns, %u rows, %d bands x %d rows, "
              "sketch k=%d\n",
              out.c_str(), source.num_cols(), source.num_rows(),
              config.num_bands,
              config.rows_per_band, config.sketch_k);
  return 0;
}

std::atomic<bool> g_shutdown{false};

void HandleShutdownSignal(int) { g_shutdown.store(true); }

int RunServe(const Args& args) {
  auto index = SimilarityIndex::Load(args.Require("index"));
  if (!index.ok()) return Fail(index.status());

  ServerConfig config;
  config.host = args.GetString("host", config.host);
  config.port = static_cast<uint16_t>(args.GetInt("port", 0));
  config.num_threads = static_cast<int>(args.GetInt("threads", 4));
  config.allow_reload = args.GetBool("allow-reload", false);
  auto server = Server::Start(
      std::make_shared<const SimilarityIndex>(std::move(*index)), config);
  if (!server.ok()) return Fail(server.status());

  // The smoke test and scripts parse this line for the ephemeral port.
  std::printf("listening on %s:%u\n", config.host.c_str(),
              (*server)->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*server)->Stop();
  const ServerStatsSnapshot stats = (*server)->Stats();
  std::printf("served %llu requests (%llu errors), p50=%.3fms "
              "p95=%.3fms p99=%.3fms\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.errors),
              stats.p50_seconds * 1e3, stats.p95_seconds * 1e3,
              stats.p99_seconds * 1e3);
  return 0;
}

int RunQuery(const Args& args) {
  ClientConfig config;
  config.host = args.GetString("host", config.host);
  config.port = static_cast<uint16_t>(args.GetInt("port", 0));
  if (config.port == 0) {
    std::fprintf(stderr, "query needs --port\n");
    return 2;
  }
  auto client = Client::Connect(config);
  if (!client.ok()) return Fail(client.status());

  if (args.Has("ping")) {
    if (const Status s = (*client)->Ping(); !s.ok()) return Fail(s);
    std::printf("ok\n");
    return 0;
  }
  if (args.Has("stats")) {
    auto stats = (*client)->Stats();
    if (!stats.ok()) return Fail(stats.status());
    std::printf("requests: %llu\nerrors: %llu\nreloads: %llu\n"
                "epoch: %llu\np50_ms: %.3f\np95_ms: %.3f\np99_ms: %.3f\n",
                static_cast<unsigned long long>(stats->requests),
                static_cast<unsigned long long>(stats->errors),
                static_cast<unsigned long long>(stats->reloads),
                static_cast<unsigned long long>(stats->epoch),
                stats->p50_seconds * 1e3, stats->p95_seconds * 1e3,
                stats->p99_seconds * 1e3);
    return 0;
  }
  if (args.Has("reload")) {
    auto epoch = (*client)->Reload(args.Require("reload"));
    if (!epoch.ok()) return Fail(epoch.status());
    std::printf("reloaded, epoch %llu\n",
                static_cast<unsigned long long>(*epoch));
    return 0;
  }
  if (args.Has("a") || args.Has("b")) {
    const auto a = static_cast<ColumnId>(args.GetInt("a", 0));
    const auto b = static_cast<ColumnId>(args.GetInt("b", 0));
    auto similarity = (*client)->PairSimilarity(a, b);
    if (!similarity.ok()) return Fail(similarity.status());
    std::printf("%u\t%u\t%.6f\n", a, b, *similarity);
    return 0;
  }
  if (args.Has("col")) {
    const auto col = static_cast<ColumnId>(args.GetInt("col", 0));
    const auto k = static_cast<uint32_t>(args.GetInt("k", 10));
    auto neighbors =
        (*client)->TopK(col, k, args.GetDouble("min-similarity", 0.0));
    if (!neighbors.ok()) return Fail(neighbors.status());
    std::printf("# %zu neighbors of column %u\n", neighbors->size(), col);
    for (const Neighbor& n : *neighbors) {
      std::printf("%u\t%.6f\n", n.col, n.similarity);
    }
    return 0;
  }
  std::fprintf(stderr,
               "query needs one of --col, --a/--b, --stats, --ping, "
               "--reload\n");
  return 2;
}

/// `sans stats <host:port>`: scrape a running server's metrics over
/// the wire and print the Prometheus text exposition verbatim.
int RunRemoteStats(const std::string& target) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == target.size()) {
    std::fprintf(stderr, "stats target must be host:port, got '%s'\n",
                 target.c_str());
    return 2;
  }
  ClientConfig config;
  config.host = target.substr(0, colon);
  const long port = std::atol(target.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "invalid port in '%s'\n", target.c_str());
    return 2;
  }
  config.port = static_cast<uint16_t>(port);
  auto client = Client::Connect(config);
  if (!client.ok()) return Fail(client.status());
  auto text = (*client)->Metrics();
  if (!text.ok()) return Fail(text.status());
  std::fputs(text->c_str(), stdout);
  return 0;
}

int RunConvert(const Args& args) {
  auto matrix = LoadInput(args.Require("in"));
  if (!matrix.ok()) return Fail(matrix.status());
  const Status s = SaveOutput(*matrix, args.Require("out"));
  if (!s.ok()) return Fail(s);
  std::printf("converted: %u rows x %u cols\n", matrix->num_rows(),
              matrix->num_cols());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // "stats host:port" takes a positional target the flag parser would
  // reject; route it before Args construction.
  if (command == "stats" && argc >= 3 &&
      std::strncmp(argv[2], "--", 2) != 0) {
    return RunRemoteStats(argv[2]);
  }
  const Args args(argc, argv, 2);
  if (command == "generate") return RunGenerate(args);
  if (command == "mine") return RunMine(args);
  if (command == "rules") return RunRules(args);
  if (command == "exclusions") return RunExclusions(args);
  if (command == "truth") return RunTruth(args);
  if (command == "stats") return RunStats(args);
  if (command == "convert") return RunConvert(args);
  if (command == "sketch") return RunSketch(args);
  if (command == "pairs") return RunPairsFromSketch(args);
  if (command == "clusters") return RunClusters(args);
  if (command == "disjunctions") return RunDisjunctions(args);
  if (command == "index") return RunIndex(args);
  if (command == "serve") return RunServe(args);
  if (command == "query") return RunQuery(args);
  return Usage();
}

}  // namespace
}  // namespace sans::cli

int main(int argc, char** argv) { return sans::cli::Main(argc, argv); }
