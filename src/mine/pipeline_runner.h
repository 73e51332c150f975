// The one driver of the three-phase mining pipeline. Each phase
// (signatures -> candidates -> verify) runs as an explicit stage; the
// miner (mine/miner.h) supplies the two algorithm-specific stages and
// verification is shared. With a checkpoint directory, every stage
// persists its artifact there together with a manifest recording the
// configuration fingerprint and a CRC32C per artifact, and a run
// restarted with resume = true validates the manifest and reuses every
// completed stage whose artifact still checks out, so a mining job
// killed after the expensive signature scan does not pay for it twice.
// Without one, nothing is written: Miner::Mine is this runner with an
// empty checkpoint_dir.
//
// The table scans (phase 1 and phase 3) go through ResilientSource
// whenever it has work to do (retries or degraded mode), so transient
// I/O faults are retried and — in opt-in degraded mode — unreadable
// rows are skipped against a budget, with all fault counters surfaced
// in the run summary.
//
// Reuse is all-or-nothing per prefix: a stage is only reloaded when
// every stage before it was reloaded too, which keeps a resumed run
// bit-identical to an uninterrupted one (same config, same seeds,
// deterministic phases).

#ifndef SANS_MINE_PIPELINE_RUNNER_H_
#define SANS_MINE_PIPELINE_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/resilient_row_stream.h"
#include "matrix/row_stream.h"
#include "mine/miner.h"
#include "obs/run_report.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sans {

/// Configuration of a pipeline run. The algorithm and its parameters
/// are the miner handed to Run().
struct PipelineConfig {
  /// Similarity threshold s* of the query.
  double threshold = 0.5;

  /// Directory artifacts and the manifest live in (created if absent).
  /// Empty: nothing is persisted and nothing is resumed.
  std::string checkpoint_dir;
  /// When true, completed stages found in checkpoint_dir are validated
  /// and reused; when false, the run starts clean (existing artifacts
  /// are overwritten).
  bool resume = false;

  /// Fault tolerance for the two table scans.
  ResilienceOptions resilience;

  /// Parallel execution knobs shared by all stages; the run's only
  /// ExecutionConfig. Deliberately excluded from the checkpoint
  /// fingerprint: outputs are bit-identical for any num_threads, so a
  /// run checkpointed at one thread count may resume at another.
  ExecutionConfig execution;

  /// When non-empty, the structured JSON run report is written here at
  /// the end of a successful run. Observability only — excluded from
  /// the checkpoint fingerprint.
  std::string run_report_path;

  Status Validate() const;
};

/// Outcome of a pipeline run: the usual mining report plus checkpoint
/// reuse and fault-tolerance accounting.
struct PipelineRunSummary {
  MiningReport report;

  /// Which stages were reloaded from the checkpoint directory.
  bool reused_signatures = false;
  bool reused_candidates = false;
  bool reused_pairs = false;

  /// Fault counters aggregated over both table scans.
  uint64_t stream_reopens = 0;
  uint64_t open_failures = 0;
  uint64_t rows_skipped = 0;
  /// Row ids dropped in degraded mode (capped listing).
  std::vector<RowId> skipped_rows;

  /// Human-readable event log ("[pipeline] reusing checkpointed
  /// signatures", ...) for the CLI to surface.
  std::vector<std::string> log;

  /// Structured observability report for the run: phase wall times,
  /// scan/candidate/verify counter deltas, and the span trace. Always
  /// populated; also written to config.run_report_path when set.
  RunReport run_report;
};

/// Drives one mining run. Stateless apart from the config; Run() may
/// be called repeatedly (e.g. resume attempts).
class PipelineRunner {
 public:
  /// Artifact file names inside checkpoint_dir. The signature artifact
  /// holds whatever the miner's phase 1 produces: a signature matrix
  /// (mh, mlsh), a bottom-k sketch (kmh), or the materialized table
  /// (hlsh).
  static constexpr const char* kManifestFile = "MANIFEST.json";
  static constexpr const char* kSignaturesFile = "signatures.bin";
  static constexpr const char* kCandidatesFile = "candidates.bin";
  static constexpr const char* kPairsFile = "pairs.bin";

  explicit PipelineRunner(const PipelineConfig& config);

  /// Runs (or resumes) `miner`'s pipeline over `source`.
  Result<PipelineRunSummary> Run(Miner& miner,
                                 const RowStreamSource& source) const;

  /// Canonical string covering every output-determining knob plus the
  /// source shape: the common fields, then the miner's. Its hash is
  /// the manifest fingerprint. Exposed for tests.
  std::string FingerprintString(const Miner& miner,
                                const RowStreamSource& source) const;

  const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
};

}  // namespace sans

#endif  // SANS_MINE_PIPELINE_RUNNER_H_
