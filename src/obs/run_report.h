// Structured per-run report for a mining run: per-phase wall times,
// CPU times and peak RSS, scan/candidate/verification counts, the
// counter deltas the run produced in the metrics registry, and an
// optional trace tree.
// Rendered two ways: a JSON document (written next to the checkpoint
// manifest via --run-report) and an aligned phase-timing table the CLI
// prints at end of run.

#ifndef SANS_OBS_RUN_REPORT_H_
#define SANS_OBS_RUN_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace sans {

struct RunReport {
  /// "mh", "kmh", "mlsh", "hlsh".
  std::string algorithm;
  double threshold = 0.0;
  uint64_t table_rows = 0;
  uint64_t table_cols = 0;
  int threads = 1;

  struct Phase {
    std::string name;
    double seconds = 0.0;
    /// User + system CPU seconds of every thread of the process spent
    /// in the phase.
    double cpu_s = 0.0;
    /// Peak resident set size of the process at the end of the phase
    /// (a high-water mark, so it never decreases along the phases).
    double peak_rss_mb = 0.0;
  };
  /// Per-phase wall time, CPU time and peak RSS in pipeline order.
  std::vector<Phase> phases;

  /// The Min-Hash kernel variant this process dispatches to
  /// ("avx512f", "avx2" or "baseline"; sketch_kernels.h), so each
  /// timing can be traced to the instruction set it ran on. K-MH does
  /// not run that kernel.
  std::string minhash_kernel;

  /// Headline counts (deltas over the run, pulled from the registry).
  uint64_t rows_scanned = 0;
  uint64_t candidates_generated = 0;
  uint64_t candidates_verified = 0;
  uint64_t true_positives = 0;
  uint64_t false_positives = 0;
  uint64_t pairs_emitted = 0;

  /// Every non-zero counter delta, keyed by registered metric name.
  std::map<std::string, uint64_t> metric_deltas;

  /// Trace::ToJson() output ("[...]"), or empty for no trace.
  std::string trace_json;
};

/// The process's resource use so far, from getrusage(RUSAGE_SELF);
/// phases take the difference of two samples.
struct ResourceUsage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;

  static ResourceUsage Now();
};

/// The report as a JSON document (trailing newline included).
std::string RenderRunReportJson(const RunReport& report);

/// Writes the JSON document to `path` (parent directory must exist).
Status WriteRunReport(const RunReport& report, const std::string& path);

/// Aligned human-readable phase table with percentages, CPU time and
/// peak RSS:
///   phase            seconds      %    cpu_s  peak_mb
///   1-signatures       0.301   56.6    1.120     31.2
///   ...
///   total              0.532  100.0    1.402     31.9
/// followed by the headline counts and the Min-Hash kernel variant.
std::string RenderPhaseTable(const RunReport& report);

}  // namespace sans

#endif  // SANS_OBS_RUN_REPORT_H_
