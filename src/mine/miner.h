// The unified three-phase mining pipeline (paper Section 1): every
// algorithm (1) computes signatures in one pass over the table,
// (2) generates candidate pairs in main memory, and (3) verifies the
// candidates exactly in a second pass. Miner is the common interface:
// each concrete miner supplies its two algorithm-specific stages
// (phase-1 artifact and phase-2 candidates) and PipelineRunner
// (mine/pipeline_runner.h) is the one driver of all three phases,
// sharing the phase-3 verifier.

#ifndef SANS_MINE_MINER_H_
#define SANS_MINE_MINER_H_

#include <memory>
#include <string>
#include <vector>

#include "candgen/candidate_set.h"
#include "core/types.h"
#include "matrix/row_stream.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sans {

/// Canonical phase names used in MiningReport::timers.
inline constexpr char kPhaseSignatures[] = "1-signatures";
inline constexpr char kPhaseCandidates[] = "2-candidates";
inline constexpr char kPhaseVerify[] = "3-verify";

/// Outcome of a mining run.
struct MiningReport {
  /// Verified pairs with exact similarity >= the query threshold,
  /// sorted by descending similarity.
  std::vector<SimilarPair> pairs;
  /// Candidate pairs handed to the verifier, in ascending pair order —
  /// the phase-2 output whose false positives/negatives the paper's
  /// S-curves describe.
  std::vector<ColumnPair> candidates;
  /// |candidates| (kept alongside for reporting convenience).
  uint64_t num_candidates = 0;
  /// Wall-clock per phase.
  PhaseTimer timers;

  double TotalSeconds() const { return timers.GrandTotal(); }
};

/// A similar-pair mining algorithm over a (possibly disk-resident)
/// table, expressed as its two algorithm-specific stages. The phase-1
/// artifact is miner state: Sketch() or ReadSketch() sets it, and
/// Candidates() and WriteSketch() read it.
class Miner {
 public:
  virtual ~Miner() = default;

  /// Short algorithm name ("MH", "K-MH", "M-LSH", "H-LSH", ...).
  virtual std::string name() const = 0;
  /// Checkpoint manifest tag ("mh", "kmh", "mlsh", "hlsh").
  virtual std::string tag() const = 0;
  /// Every output-determining knob, as ";key=value" fields appended to
  /// the checkpoint fingerprint.
  virtual std::string FingerprintFields() const = 0;

  /// Phase 1: builds the artifact in one scan of `source`.
  virtual Status Sketch(const RowStreamSource& source,
                        const ExecutionConfig& execution,
                        ThreadPool* pool) = 0;
  virtual Status WriteSketch(const std::string& path) const = 0;
  virtual Status ReadSketch(const std::string& path) = 0;

  /// Phase 2: candidate pairs for threshold s*, in main memory.
  virtual Result<CandidateSet> Candidates(double threshold,
                                          ThreadPool* pool) = 0;

  /// Finds all column pairs with similarity >= threshold: the
  /// PipelineRunner with no checkpoint directory and no retries. The
  /// source is scanned once for signatures and once for verification.
  Result<MiningReport> Mine(const RowStreamSource& source, double threshold,
                            const ExecutionConfig& execution = {});
};

/// Sorts pairs by descending similarity (deterministic tie-break) —
/// shared post-processing for all miners.
void SortPairs(std::vector<SimilarPair>* pairs);

/// Fingerprint rendering of a double: round-trip exact.
std::string FingerprintDouble(double v);

}  // namespace sans

#endif  // SANS_MINE_MINER_H_
