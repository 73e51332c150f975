// `trace`: the per-layer run. Calls each layer's public entry point in
// pipeline order, in one process, on the workload's own table, and
// records every call as a span (name, start, end, parent, peak RSS).
// Spans stay in memory and are written to --spans at the end; the
// verified pairs go to --pairs-out for checking against exact truth;
// the per-layer metrics are one JSON object on stdout.
//
// Every entry point is called from exactly one function in the
// "layer calls" block below, so renaming an entry point changes one
// line here and no metric.
//
// Metrics suffixed _t1 run with one thread, _tn with
// hardware_concurrency threads; on a one-core host the _tn metrics
// are null.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <thread>

#include "candgen/hash_count.h"
#include "candgen/min_lsh.h"
#include "matrix/block_reader.h"
#include "matrix/table_file.h"
#include "mine/parallel.h"
#include "serve/client.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/similarity_index.h"
#include "sketch/estimators.h"
#include "tool.h"

namespace perfbench {
namespace {

using sans::ColumnId;
using sans::ExecutionConfig;
using sans::RowStreamSource;
using sans::ThreadPool;

template <typename T>
T Check(sans::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const sans::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ---- Layer calls: the only places the program's layers are entered.

sans::Result<sans::BinaryMatrix> LoadTable(const std::string& path) {
  return sans::ReadTableFile(path);
}

/// Drains the table through the block reader into no-op consumers.
sans::Status ScanTable(const RowStreamSource& source,
                       const ExecutionConfig& execution, ThreadPool* pool) {
  return sans::ForEachRowBlock(source, execution, pool,
                               [](int, const sans::RowBlock&) {
                                 return sans::Status::OK();
                               });
}

sans::Result<sans::SignatureMatrix> MinHash(const RowStreamSource& source,
                                            const sans::MinHashConfig& config,
                                            const ExecutionConfig& execution,
                                            ThreadPool* pool) {
  return sans::ComputeMinHashParallel(source, config, execution, pool);
}

sans::Result<sans::KMinHashSketch> KMinHash(
    const RowStreamSource& source, const sans::KMinHashConfig& config,
    const ExecutionConfig& execution, ThreadPool* pool) {
  return sans::ComputeKMinHashParallel(source, config, execution, pool);
}

sans::Result<sans::CandidateSet> HashCount(const sans::KMinHashSketch& sketch,
                                           double fraction, ThreadPool* pool) {
  return sans::HashCountKMinHashAdaptiveParallel(sketch, fraction, pool);
}

double Estimate(std::span<const uint64_t> a, std::span<const uint64_t> b,
                int k) {
  return sans::EstimateSimilarityUnbiased(a, b, k);
}

sans::Result<sans::CandidateSet> MinLsh(
    const sans::SignatureMatrix& signatures, const sans::MinLshConfig& config,
    ThreadPool* pool) {
  return sans::MinLshCandidateGenerator(config).Generate(signatures, pool);
}

sans::Result<std::vector<sans::SimilarPair>> Verify(
    const RowStreamSource& source, const std::vector<sans::ColumnPair>& pairs,
    double threshold, const ExecutionConfig& execution, ThreadPool* pool) {
  return sans::VerifyCandidatesParallel(source, pairs, threshold, execution,
                                        pool);
}

sans::Status BuildIndex(const RowStreamSource& source,
                        const sans::SimilarityIndexConfig& config,
                        const std::string& path) {
  return sans::IndexBuilder(config).Build(source, path);
}

sans::Result<sans::SimilarityIndex> LoadIndex(const std::string& path) {
  return sans::SimilarityIndex::Load(path);
}

sans::Result<std::vector<sans::Neighbor>> TopK(const sans::QueryEngine& engine,
                                               ColumnId col,
                                               sans::TopKInfo* info) {
  return engine.TopK(col, kTopK, 0.0, info);
}

sans::Result<double> Pair(const sans::QueryEngine& engine, ColumnId a,
                          ColumnId b) {
  return engine.PairSimilarity(a, b);
}

sans::Status Ping(sans::Client& client) { return client.Ping(); }

// ---- Tracing.

/// Peak RSS since the last reset, from /proc/self/status.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return NAN;
}

/// Resets the peak-RSS high-water mark to the current RSS, so the next
/// PeakRssMb() reads the peak of the calls in between.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = 0;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    double peak_rss_mb = 0.0;
    uint64_t items = 0;

    double seconds() const { return end_s - start_s; }
  };

  Tracer() : origin_(Now()), rss_reset_ok_(ResetPeakRss()) {}

  /// Runs `fn` as one span and returns it. `fn` may return an item
  /// count (calls made). Every span is a call the driver makes into the
  /// program, so all are top-level (parent 0); each resets the peak-RSS
  /// mark first, so its peak is its own.
  template <typename Fn>
  Span Run(const std::string& name, Fn&& fn) {
    Span span;
    span.id = static_cast<int>(spans_.size()) + 1;
    span.name = name;
    ResetPeakRss();
    span.start_s = Now() - origin_;
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
    } else {
      span.items = static_cast<uint64_t>(fn());
    }
    span.end_s = Now() - origin_;
    span.peak_rss_mb = PeakRssMb();
    spans_.push_back(span);
    return span;
  }

  bool rss_reset_ok() const { return rss_reset_ok_; }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"peak_rss_reset\": " << (rss_reset_ok_ ? "true" : "false")
        << ", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": " << JsonString(s.name)
          << ", \"start_s\": " << JsonNumber(s.start_s)
          << ", \"end_s\": " << JsonNumber(s.end_s)
          << ", \"peak_rss_mb\": " << JsonNumber(s.peak_rss_mb)
          << ", \"items\": " << s.items << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) Die("cannot write " + path);
  }

 private:
  double origin_;
  bool rss_reset_ok_;
  std::vector<Span> spans_;
};

/// Per-layer metrics in output order.
class Metrics {
 public:
  void Set(const std::string& name, double value) {
    values_.emplace_back(name, value);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < values_.size(); ++i) {
      out += (i > 0 ? ", " : "") + JsonString(values_[i].first) + ": " +
             JsonNumber(values_[i].second);
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return NAN;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                            : (values[mid - 1] + values[mid]) / 2;
}

}  // namespace

int RunTrace(const Args& args) {
  const std::string table = args.String("table");
  const std::string algorithm = args.String("algorithm");
  const bool stream = args.Int("stream") != 0;
  const double threshold = args.Double("threshold");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const double budget = args.Double("seconds");
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (algorithm != "kmh" && algorithm != "mlsh") Die("unknown --algorithm");

  ExecutionConfig one;
  one.num_threads = 1;
  ExecutionConfig all;
  all.num_threads = std::max(1, hardware);
  const std::unique_ptr<ThreadPool> pool = sans::MaybeCreatePool(all);
  const bool has_tn = hardware > 1;
  if (!has_tn) {
    std::fprintf(stderr, "warning: 1 hardware thread; _tn metrics are null "
                         "and no scaling is reported\n");
  }

  Tracer tracer;
  Metrics metrics;
  // Runs `fn(execution, pool)` at one thread, then at all of them, as
  // spans `<name>_t1` and `<name>_tn`.
  struct Scaled {
    Tracer::Span t1;
    Tracer::Span tn;
  };
  const auto both = [&](const std::string& name, auto&& fn) {
    Scaled out;
    out.t1 = tracer.Run(name + "_t1", [&] { return fn(one, nullptr); });
    out.tn.start_s = out.tn.end_s = out.tn.peak_rss_mb = NAN;
    if (has_tn) {
      out.tn = tracer.Run(name + "_tn", [&] { return fn(all, pool.get()); });
    }
    return out;
  };

  // matrix: whole-table load, then the block reader's ceiling.
  sans::BinaryMatrix matrix(0, 0);
  metrics.Set("matrix.load_s", tracer.Run("matrix.load", [&] {
    matrix = Check(LoadTable(table), "load table");
  }).seconds());
  const sans::TableFileSource file =
      Check(sans::TableFileSource::Create(table), "open table");
  const sans::InMemorySource memory(&matrix);
  const RowStreamSource& source =
      stream ? static_cast<const RowStreamSource&>(file) : memory;
  const Scaled scan =
      both("matrix.scan", [&](const ExecutionConfig& e, ThreadPool* p) {
        Check(ScanTable(file, e, p), "scan");
      });
  metrics.Set("matrix.scan_rows_per_s_t1",
              matrix.num_rows() / scan.t1.seconds());
  metrics.Set("matrix.scan_rows_per_s_tn",
              matrix.num_rows() / scan.tn.seconds());

  // sketch: min-hash signatures sized for the bands, bottom-k sketches.
  sans::MinLshConfig lsh;
  lsh.rows_per_band = static_cast<int>(args.Int("r"));
  lsh.num_bands = static_cast<int>(args.Int("l"));
  lsh.seed = seed;
  sans::MinHashConfig min_hash;
  min_hash.num_hashes = lsh.rows_per_band * lsh.num_bands;
  min_hash.seed = seed;
  sans::SignatureMatrix signatures(1, 0);
  const Scaled mh =
      both("sketch.minhash", [&](const ExecutionConfig& e, ThreadPool* p) {
        signatures = Check(MinHash(source, min_hash, e, p), "min-hash");
      });
  metrics.Set("sketch.minhash_s_t1", mh.t1.seconds());
  metrics.Set("sketch.minhash_s_tn", mh.tn.seconds());

  sans::KMinHashConfig kmh;
  kmh.k = static_cast<int>(args.Int("k"));
  kmh.seed = seed;
  sans::KMinHashSketch sketch(1, 0);
  const Scaled kmh_span =
      both("sketch.kmh", [&](const ExecutionConfig& e, ThreadPool* p) {
        sketch = Check(KMinHash(source, kmh, e, p), "k-min-hash");
      });
  metrics.Set("sketch.kmh_s_t1", kmh_span.t1.seconds());
  metrics.Set("sketch.kmh_s_tn", kmh_span.tn.seconds());

  // candgen: K-MH Hash-Count with the Theorem 2 prune, as `sans mine
  // --algorithm kmh` runs them (slack 0.5, delta 0.25), then Min-LSH.
  sans::CandidateSet hash_count;
  const Scaled hc =
      both("candgen.hash_count", [&](const ExecutionConfig&, ThreadPool* p) {
        hash_count = Check(HashCount(sketch, 0.5 * threshold, p), "hash-count");
      });
  metrics.Set("candgen.hash_count_s_t1", hc.t1.seconds());
  metrics.Set("candgen.hash_count_s_tn", hc.tn.seconds());
  metrics.Set("candgen.hash_count_peak_rss_mb_t1", hc.t1.peak_rss_mb);
  metrics.Set("candgen.hash_count_peak_rss_mb_tn", hc.tn.peak_rss_mb);
  metrics.Set("candgen.hash_count_candidates",
              static_cast<double>(hash_count.size()));
  std::vector<sans::ColumnPair> survivors;
  tracer.Run("candgen.prune", [&] {
    for (const sans::ColumnPair& pair : hash_count.SortedPairs()) {
      if (Estimate(sketch.Signature(pair.first), sketch.Signature(pair.second),
                   kmh.k) >= (1.0 - 0.25) * threshold) {
        survivors.push_back(pair);
      }
    }
    return survivors.size();
  });
  metrics.Set("candgen.prune_survivors", static_cast<double>(survivors.size()));

  sans::CandidateSet min_lsh;
  const Scaled lsh_span =
      both("candgen.min_lsh", [&](const ExecutionConfig&, ThreadPool* p) {
        min_lsh = Check(MinLsh(signatures, lsh, p), "min-lsh");
      });
  metrics.Set("candgen.min_lsh_s_t1", lsh_span.t1.seconds());
  metrics.Set("candgen.min_lsh_s_tn", lsh_span.tn.seconds());
  metrics.Set("candgen.min_lsh_candidates",
              static_cast<double>(min_lsh.size()));

  // mine: exact verification of the workload algorithm's candidates.
  const std::vector<sans::ColumnPair> candidates =
      algorithm == "kmh" ? survivors : min_lsh.SortedPairs();
  std::vector<sans::SimilarPair> verified;
  const Scaled verify =
      both("mine.verify", [&](const ExecutionConfig& e, ThreadPool* p) {
        verified = Check(Verify(source, candidates, threshold, e, p), "verify");
      });
  metrics.Set("mine.verify_s_t1", verify.t1.seconds());
  metrics.Set("mine.verify_s_tn", verify.tn.seconds());
  {
    std::ofstream pairs_out(args.String("pairs-out"));
    pairs_out.precision(17);
    for (const sans::SimilarPair& p : verified) {
      pairs_out << p.pair.first << '\t' << p.pair.second << '\t'
                << p.similarity << '\n';
    }
    if (!pairs_out) Die("cannot write --pairs-out");
  }
  metrics.Set("mine.verify_precision",
              candidates.empty() ? NAN
                                 : static_cast<double>(verified.size()) /
                                       candidates.size());

  // serve: index build and load as `sans index` / `sans serve` do them.
  sans::SimilarityIndexConfig index_config;
  index_config.sketch_k = static_cast<int>(args.Int("index-k"));
  index_config.rows_per_band = static_cast<int>(args.Int("index-r"));
  index_config.num_bands = static_cast<int>(args.Int("index-l"));
  index_config.seed = seed;
  index_config.execution = all;
  const std::string index_path = args.String("index");
  metrics.Set("serve.index_build_s",
              tracer.Run("serve.index_build", [&] {
                Check(BuildIndex(file, index_config, index_path),
                      "index build");
              }).seconds());
  std::shared_ptr<const sans::SimilarityIndex> index;
  metrics.Set("serve.index_load_s",
              tracer.Run("serve.index_load", [&] {
                index = std::make_shared<const sans::SimilarityIndex>(
                    Check(LoadIndex(index_path), "index load"));
              }).seconds());

  // The loops below replay the first connection's request sequence of
  // the end-to-end load, each for a share of --seconds.
  const uint64_t request_seed = static_cast<uint64_t>(args.Int("request-seed"));
  const ColumnId num_cols = matrix.num_cols();
  const auto replay = [&](const std::string& name, double share,
                          auto&& call) {
    std::vector<double> micros;
    RequestSequence sequence(request_seed, 0, num_cols);
    tracer.Run(name, [&] {
      const double end = Now() + share * budget;
      while (micros.size() < 20 || Now() < end) {
        const Request request = sequence.Next();
        const double start = Now();
        if (call(request)) micros.push_back((Now() - start) * 1e6);
      }
      return micros.size();
    });
    return micros;
  };

  // sketch: the Theorem 2 estimator at the K-MH k and the index k.
  double sink = 0.0;
  const auto estimator_ns = [&](int k, auto&& signature) {
    return Median(replay(
               "sketch.estimator_k" + std::to_string(k), 0.05,
               [&](const Request& r) {
                 for (int i = 0; i < 100; ++i) {
                   sink += Estimate(signature(r.a), signature(r.b), k);
                 }
                 return true;
               })) *
           10.0;  // µs per 100 calls -> ns per call
  };
  metrics.Set("sketch.estimator_ns_per_pair_k" + std::to_string(kmh.k),
              estimator_ns(kmh.k, [&](ColumnId c) { return sketch.Signature(c); }));
  metrics.Set(
      "sketch.estimator_ns_per_pair_k" + std::to_string(index->sketch_k()),
      estimator_ns(index->sketch_k(),
                   [&](ColumnId c) { return index->Sketch(c); }));
  if (!(sink >= 0.0)) Die("estimator returned a negative similarity");

  const sans::QueryEngine engine(index);
  uint64_t topk_calls = 0;
  uint64_t fallbacks = 0;
  double bucket_candidates = 0.0;
  const std::vector<double> topk_us =
      replay("serve.topk", 0.25, [&](const Request& r) {
        if (!r.topk) return false;
        sans::TopKInfo info;
        Check(TopK(engine, r.a, &info), "topk");
        ++topk_calls;
        fallbacks += info.fallback_scan ? 1 : 0;
        bucket_candidates += static_cast<double>(info.bucket_candidates);
        return true;
      });
  metrics.Set("serve.topk_us", Median(topk_us));
  metrics.Set("serve.topk_fallback_ratio",
              static_cast<double>(fallbacks) / topk_calls);
  metrics.Set("serve.topk_bucket_candidates_mean",
              bucket_candidates / topk_calls);
  metrics.Set("serve.pair_us",
              Median(replay("serve.pair", 0.05, [&](const Request& r) {
                if (r.topk) return false;
                Check(Pair(engine, r.a, r.b), "pair");
                return true;
              })));

  // A bare round trip to an in-process server on the loaded index.
  sans::ServerConfig server_config;
  server_config.num_threads = all.num_threads;
  auto server = Check(sans::Server::Start(index, server_config), "serve");
  sans::ClientConfig client_config;
  client_config.port = server->port();
  auto client = Check(sans::Client::Connect(client_config), "connect");
  metrics.Set("serve.ping_us",
              Median(replay("serve.ping", 0.05, [&](const Request&) {
                Check(Ping(*client), "ping");
                return true;
              })));
  client.reset();
  server->Stop();

  if (!tracer.rss_reset_ok()) {
    std::fprintf(stderr, "warning: cannot reset peak RSS; per-call peaks "
                         "include earlier calls\n");
  }
  tracer.Write(args.String("spans"));
  std::printf("%s\n", metrics.Json().c_str());
  return 0;
}

}  // namespace perfbench
