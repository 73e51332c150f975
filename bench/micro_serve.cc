// Benchmark of the online similarity query service: builds a
// persistent index over a news-style corpus, starts a real TCP server
// on an ephemeral loopback port at 1, 2, 4 and 8 worker threads, and
// drives it with matching client threads issuing TopK and
// PairSimilarity RPCs. Emits BENCH_serve.json with queries/sec (in
// the rows_per_sec field) plus the p50/p99 round-trip latency of each
// opcode as the clients see it, per thread count, and a human-readable
// table. Latency rows carry no speedup; the single-thread TopK QPS is
// also recorded at the top level.
//
// SANS_BENCH_SCALE=small shrinks the corpus and query count for smoke
// runs. As with micro_parallel, thread counts above the core count
// only validate overhead: on a 1-core host every configuration
// measures the same hardware.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/news_generator.h"
#include "matrix/row_stream.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/similarity_index.h"
#include "util/timer.h"

namespace sans {
namespace {

/// Nearest-rank quantile `q` of `values` (sorted in place).
double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  return values[rank];
}

struct Latency {
  double p50 = 0.0;
  double p99 = 0.0;
};

struct RunResult {
  double topk_seconds = 0.0;
  double pair_seconds = 0.0;
  int topk_queries = 0;
  int pair_queries = 0;
  Latency topk_latency;
  Latency pair_latency;
};

/// One benchmark run: a fresh server at `threads` workers, matching
/// client threads, `queries` TopK then `queries` PairSimilarity RPCs
/// split evenly across the clients.
RunResult RunOnce(std::shared_ptr<const SimilarityIndex> index, int threads,
                  int queries) {
  ServerConfig server_config;
  server_config.num_threads = threads;
  server_config.poll_interval_ms = 20;
  auto server = Server::Start(index, server_config);
  SANS_CHECK(server.ok());

  ClientConfig client_config;
  client_config.port = (*server)->port();
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < threads; ++i) {
    auto client = Client::Connect(client_config);
    SANS_CHECK(client.ok());
    clients.push_back(std::move(*client));
  }

  const ColumnId num_cols = index->num_cols();
  const int per_client = queries / threads;
  RunResult result;
  result.topk_queries = per_client * threads;
  result.pair_queries = per_client * threads;

  // Runs `rpc(client, query index)` per_client times on every client
  // at once; returns the wall time and fills `latency` from the
  // per-RPC round trips.
  const auto drive = [&](const auto& rpc, Latency* latency) {
    std::vector<std::vector<double>> seconds(threads);
    std::vector<std::thread> workers;
    Stopwatch watch;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < per_client; ++i) {
          Stopwatch rpc_watch;
          rpc(*clients[t], static_cast<size_t>(t) * per_client + i);
          seconds[t].push_back(rpc_watch.ElapsedSeconds());
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const double elapsed = watch.ElapsedSeconds();
    std::vector<double> all;
    for (const std::vector<double>& part : seconds) {
      all.insert(all.end(), part.begin(), part.end());
    }
    latency->p50 = Quantile(all, 0.50);
    latency->p99 = Quantile(all, 0.99);
    return elapsed;
  };

  result.topk_seconds = drive(
      [&](Client& client, size_t q) {
        auto neighbors = client.TopK(static_cast<ColumnId>(q % num_cols), 8);
        SANS_CHECK(neighbors.ok());
      },
      &result.topk_latency);
  result.pair_seconds = drive(
      [&](Client& client, size_t q) {
        const ColumnId a = static_cast<ColumnId>(q % num_cols);
        const ColumnId b = static_cast<ColumnId>((q * 7 + 1) % num_cols);
        auto similarity = client.PairSimilarity(a, b);
        SANS_CHECK(similarity.ok());
      },
      &result.pair_latency);

  SANS_CHECK_EQ((*server)->Stats().errors, 0u);
  clients.clear();
  (*server)->Stop();

  std::fprintf(stderr,
               "[bench] threads=%d topk=%.2fs (%d queries, p50=%.0fus "
               "p99=%.0fus) pair=%.2fs (%d queries, p50=%.0fus "
               "p99=%.0fus)\n",
               threads, result.topk_seconds, result.topk_queries,
               result.topk_latency.p50 * 1e6, result.topk_latency.p99 * 1e6,
               result.pair_seconds, result.pair_queries,
               result.pair_latency.p50 * 1e6, result.pair_latency.p99 * 1e6);
  return result;
}

int Main() {
  NewsConfig config;
  if (bench::SmallScale()) {
    config.num_docs = 4'000;
    config.vocab_size = 1'000;
  } else {
    // 1M-row index: queries only touch sketches and buckets, so the
    // row count exercises the build path and file size, not latency.
    config.num_docs = 1'000'000;
    config.vocab_size = 5'000;
    config.num_collocations = 64;
    config.collocation_docs = 500;
  }
  config.seed = 17;
  auto dataset = GenerateNews(config);
  SANS_CHECK(dataset.ok());
  const int queries = bench::SmallScale() ? 400 : 4'000;

  SimilarityIndexConfig index_config;
  index_config.sketch_k = 256;
  index_config.rows_per_band = 4;
  index_config.num_bands = 16;
  index_config.seed = 17;
  const std::filesystem::path index_path =
      std::filesystem::temp_directory_path() / "sans_bench_serve.sidx";

  Stopwatch build_watch;
  SANS_CHECK(IndexBuilder(index_config)
                 .Build(InMemorySource(&dataset->matrix), index_path.string())
                 .ok());
  const double build_seconds = build_watch.ElapsedSeconds();
  std::fprintf(stderr, "[bench] index: %u cols, %.1f KB, built in %.2fs\n",
               dataset->matrix.num_cols(),
               static_cast<double>(std::filesystem::file_size(index_path)) /
                   1e3,
               build_seconds);

  auto loaded = SimilarityIndex::Load(index_path.string());
  SANS_CHECK(loaded.ok());
  auto index = std::make_shared<const SimilarityIndex>(std::move(*loaded));
  const RowId num_rows = dataset->matrix.num_rows();
  const ColumnId num_cols = dataset->matrix.num_cols();
  // Queries go through the loaded index; drop the matrix.
  dataset.value().matrix = BinaryMatrix(0, 0);

  const int kThreadCounts[] = {1, 2, 4, 8};
  std::vector<bench::BenchPhaseResult> results;
  RunResult reference;
  for (int threads : kThreadCounts) {
    const RunResult run = RunOnce(index, threads, queries);
    if (threads == 1) reference = run;
    // Throughput rows: queries/sec in rows_per_sec, with a speedup
    // over one thread. Latency rows: seconds only.
    const auto emit = [&](const char* phase, double seconds, int queries,
                          double reference_seconds) {
      bench::BenchPhaseResult r;
      r.phase = phase;
      r.threads = threads;
      r.seconds = seconds;
      r.has_speedup = queries > 0;
      if (r.has_speedup) {
        r.rows_per_sec = seconds > 0 ? queries / seconds : 0.0;
        r.speedup_vs_1_thread =
            seconds > 0 ? reference_seconds / seconds : 0.0;
      }
      results.push_back(r);
    };
    emit("topk", run.topk_seconds, run.topk_queries, reference.topk_seconds);
    emit("pair", run.pair_seconds, run.pair_queries, reference.pair_seconds);
    emit("topk_p50", run.topk_latency.p50, 0, 0.0);
    emit("topk_p99", run.topk_latency.p99, 0, 0.0);
    emit("pair_p50", run.pair_latency.p50, 0, 0.0);
    emit("pair_p99", run.pair_latency.p99, 0, 0.0);
  }
  const double topk_qps_1_thread =
      reference.topk_seconds > 0
          ? reference.topk_queries / reference.topk_seconds
          : 0.0;

  bench::WriteBenchJson(
      "BENCH_serve.json", "serve",
      {{"rows", bench::JsonNumber(num_rows)},
       {"cols", bench::JsonNumber(num_cols)},
       {"sketch_k", bench::JsonNumber(index_config.sketch_k)},
       {"rows_per_band", bench::JsonNumber(index_config.rows_per_band)},
       {"num_bands", bench::JsonNumber(index_config.num_bands)},
       {"queries_per_phase", bench::JsonNumber(queries)},
       {"index_build_seconds", bench::JsonNumber(build_seconds)},
       {"topk_qps_1_thread", bench::JsonNumber(topk_qps_1_thread)},
       {"hardware_threads",
        bench::JsonNumber(std::thread::hardware_concurrency())},
       {"scale", bench::SmallScale() ? "\"small\"" : "\"full\""}},
      results);

  std::printf("\n%-12s %8s %10s %14s %10s\n", "phase", "threads", "seconds",
              "queries/sec", "speedup");
  for (const bench::BenchPhaseResult& r : results) {
    if (r.has_speedup) {
      std::printf("%-12s %8d %10.4f %14.0f %9.2fx\n", r.phase.c_str(),
                  r.threads, r.seconds, r.rows_per_sec,
                  r.speedup_vs_1_thread);
    } else {
      std::printf("%-12s %8d %10.6f %14s %10s\n", r.phase.c_str(), r.threads,
                  r.seconds, "-", "-");
    }
  }
  std::printf("\nsingle-thread TopK: %.0f queries/sec\n", topk_qps_1_thread);
  std::printf("\nwrote BENCH_serve.json\n");

  std::filesystem::remove(index_path);
  return 0;
}

}  // namespace
}  // namespace sans

int main() { return sans::Main(); }
