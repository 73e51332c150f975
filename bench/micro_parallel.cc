// Benchmark of the block-pipelined parallel execution engine on a
// disk-resident table: generates a weblog dataset, writes it as a
// .sans table file, then times every pipeline phase at 1, 2, 4 and 8
// threads reading that file through TableFileSource, for MH (min-hash
// signatures, Hash-Count, verify) and for the K-MH miner (bottom-k
// sketch, adaptive Hash-Count with the Theorem 2 prune, verify).
// Emits BENCH_parallel.json (see bench_common.h) with seconds,
// rows/sec and speedup-vs-1-thread per phase, plus a human-readable
// table.
//
// SANS_BENCH_SCALE=small shrinks the table for smoke runs (CI and the
// TSan job); the default scale is a >=1M-row table so the single-scan
// reader's I/O advantage is visible. Speedups above 1 require real
// cores: on a 1-core host every thread count measures the same
// hardware and the numbers only validate overhead, not scaling.
//
// Gate: on a host with at least 2 hardware threads, at the default
// scale, the bench exits non-zero if the signatures row or either
// candidate-generation row at N threads takes more than 1.1x its
// 1-thread time. These phases do the same work at every thread count,
// so more threads must never make them slower. Small-scale timings
// are too short to gate.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "candgen/hash_count.h"
#include "data/weblog_generator.h"
#include "matrix/table_file.h"
#include "mine/kmh_miner.h"
#include "mine/parallel.h"
#include "util/timer.h"

namespace sans {
namespace {

struct PhaseTimes {
  double signatures = 0.0;
  double candidates = 0.0;
  double verify = 0.0;
  double kmh_sketch = 0.0;
  double kmh_candidates = 0.0;
  double kmh_verify = 0.0;
  // The MH pipeline, as reported in the "total" row.
  double Total() const { return signatures + candidates + verify; }
};

// Largest allowed time of a gated phase at N threads, as a multiple
// of its 1-thread time.
constexpr double kMaxSlowdown = 1.1;
// A gated phase takes tens to hundreds of milliseconds here, so one
// run is at the mercy of scheduling noise; the gated rows are the
// fastest of this many runs.
constexpr int kGatedRuns = 3;

PhaseTimes RunOnce(const TableFileSource& source, int threads) {
  ExecutionConfig execution;
  execution.num_threads = threads;
  std::unique_ptr<ThreadPool> pool = MaybeCreatePool(execution);

  MinHashConfig mh;
  mh.num_hashes = 48;
  mh.seed = 12;

  PhaseTimes times;
  Result<SignatureMatrix> signatures = SignatureMatrix(1, 0);
  for (int run = 0; run < kGatedRuns; ++run) {
    Stopwatch sig_watch;
    signatures = ComputeMinHashParallel(source, mh, execution, pool.get());
    SANS_CHECK(signatures.ok());
    const double seconds = sig_watch.ElapsedSeconds();
    times.signatures =
        run == 0 ? seconds : std::min(times.signatures, seconds);
  }

  Result<CandidateSet> candidates = CandidateSet();
  for (int run = 0; run < kGatedRuns; ++run) {
    Stopwatch cand_watch;
    candidates =
        HashCountMinHashParallel(*signatures, mh.num_hashes / 3, pool.get());
    SANS_CHECK(candidates.ok());
    const double seconds = cand_watch.ElapsedSeconds();
    times.candidates = run == 0 ? seconds : std::min(times.candidates, seconds);
  }

  Stopwatch verify_watch;
  auto verified = VerifyCandidatesParallel(source, candidates->SortedPairs(),
                                           0.2, execution, pool.get());
  SANS_CHECK(verified.ok());
  times.verify = verify_watch.ElapsedSeconds();

  std::fprintf(stderr,
               "[bench] threads=%d signatures=%.2fs candgen=%.2fs "
               "(%zu candidates) verify=%.2fs (%zu pairs)\n",
               threads, times.signatures, times.candidates,
               candidates->size(), times.verify, verified->size());

  // The K-MH miner's phases: bottom-k sketch, adaptive Hash-Count with
  // the Theorem 2 prune, verify. Each row is its fastest run.
  KmhMinerConfig kmh;
  kmh.sketch.k = 100;
  kmh.sketch.seed = 12;
  Result<MiningReport> report = MiningReport();
  for (int run = 0; run < kGatedRuns; ++run) {
    report = KmhMiner(kmh).Mine(source, 0.3, execution);
    SANS_CHECK(report.ok());
    const auto fastest = [&](double* seconds, const char* phase) {
      const double run_seconds = report->timers.Total(phase);
      *seconds = run == 0 ? run_seconds : std::min(*seconds, run_seconds);
    };
    fastest(&times.kmh_sketch, kPhaseSignatures);
    fastest(&times.kmh_candidates, kPhaseCandidates);
    fastest(&times.kmh_verify, kPhaseVerify);
  }
  std::fprintf(stderr,
               "[bench] threads=%d kmh sketch=%.2fs candgen=%.2fs "
               "(%llu candidates) verify=%.2fs (%zu pairs)\n",
               threads, times.kmh_sketch, times.kmh_candidates,
               static_cast<unsigned long long>(report->num_candidates),
               times.kmh_verify, report->pairs.size());
  return times;
}

int Main() {
  WeblogConfig config;
  if (bench::SmallScale()) {
    config.num_clients = 20'000;
    config.num_urls = 500;
    config.num_bundles = 20;
  } else {
    config.num_clients = 1'000'000;
    config.num_urls = 4'000;
    config.num_bundles = 120;
  }
  config.seed = 3;
  auto dataset = GenerateWeblog(config);
  SANS_CHECK(dataset.ok());

  const std::filesystem::path table_path =
      std::filesystem::temp_directory_path() / "sans_bench_parallel.sans";
  SANS_CHECK(WriteTableFile(dataset->matrix, table_path.string()).ok());
  const RowId num_rows = dataset->matrix.num_rows();
  const ColumnId num_cols = dataset->matrix.num_cols();
  std::fprintf(stderr, "[bench] table: %u rows x %u cols, %.1f MB on disk\n",
               num_rows, num_cols,
               static_cast<double>(std::filesystem::file_size(table_path)) /
                   1e6);
  // Free the in-memory copy: the measured scans go through the file.
  dataset.value().matrix = BinaryMatrix(0, 0);

  auto source = TableFileSource::Create(table_path.string());
  SANS_CHECK(source.ok());

  // A 1-hardware-thread host runs every "parallel" configuration on
  // the same core, so a speedup number would be fiction (it can only
  // measure scheduling overhead). Refuse to report one: emit null.
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool can_measure_speedup = hardware_threads > 1;
  if (!can_measure_speedup) {
    std::fprintf(stderr,
                 "[bench] WARNING: hardware_threads=%u; speedup cannot be "
                 "measured on a single-core host, emitting null\n",
                 hardware_threads);
  }

  const bool gate = can_measure_speedup && !bench::SmallScale();
  bool gate_failed = false;

  const int kThreadCounts[] = {1, 2, 4, 8};
  std::vector<bench::BenchPhaseResult> results;
  PhaseTimes reference;
  for (int threads : kThreadCounts) {
    const PhaseTimes times = RunOnce(*source, threads);
    if (threads == 1) reference = times;
    const auto emit = [&](const char* phase, double seconds,
                          double reference_seconds) {
      bench::BenchPhaseResult r;
      r.phase = phase;
      r.threads = threads;
      r.seconds = seconds;
      r.rows_per_sec = seconds > 0 ? num_rows / seconds : 0.0;
      r.has_speedup = can_measure_speedup;
      r.speedup_vs_1_thread =
          can_measure_speedup && seconds > 0 ? reference_seconds / seconds
                                             : 0.0;
      results.push_back(r);
    };
    const auto gate_slowdown = [&](const char* phase, double seconds,
                                   double reference_seconds) {
      if (gate && seconds > kMaxSlowdown * reference_seconds) {
        std::fprintf(stderr,
                     "[bench] FAIL: %s at %d threads took %.3fs, more than "
                     "%.1fx the 1-thread %.3fs\n",
                     phase, threads, seconds, kMaxSlowdown,
                     reference_seconds);
        gate_failed = true;
      }
    };
    emit("signatures", times.signatures, reference.signatures);
    gate_slowdown("signatures", times.signatures, reference.signatures);
    emit("candidates", times.candidates, reference.candidates);
    gate_slowdown("candidates", times.candidates, reference.candidates);
    emit("verify", times.verify, reference.verify);
    emit("total", times.Total(), reference.Total());
    emit("kmh_sketch", times.kmh_sketch, reference.kmh_sketch);
    emit("kmh_candidates", times.kmh_candidates, reference.kmh_candidates);
    gate_slowdown("kmh_candidates", times.kmh_candidates,
                  reference.kmh_candidates);
    emit("kmh_verify", times.kmh_verify, reference.kmh_verify);
  }

  bench::WriteBenchJson(
      "BENCH_parallel.json", "parallel",
      {{"rows", bench::JsonNumber(num_rows)},
       {"cols", bench::JsonNumber(num_cols)},
       {"hardware_threads", bench::JsonNumber(hardware_threads)},
       {"scale", bench::SmallScale() ? "\"small\"" : "\"full\""}},
      results);

  std::printf("\n%-14s %8s %10s %14s %10s\n", "phase", "threads", "seconds",
              "rows/sec", "speedup");
  for (const bench::BenchPhaseResult& r : results) {
    if (r.has_speedup) {
      std::printf("%-14s %8d %10.3f %14.0f %9.2fx\n", r.phase.c_str(),
                  r.threads, r.seconds, r.rows_per_sec,
                  r.speedup_vs_1_thread);
    } else {
      std::printf("%-14s %8d %10.3f %14.0f %10s\n", r.phase.c_str(),
                  r.threads, r.seconds, r.rows_per_sec, "n/a");
    }
  }
  std::printf("\nwrote BENCH_parallel.json\n");

  std::filesystem::remove(table_path);
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace sans

int main() { return sans::Main(); }
