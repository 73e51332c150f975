#include "mine/miner.h"

#include <algorithm>
#include <cstdio>

#include "mine/pipeline_runner.h"

namespace sans {

Result<MiningReport> Miner::Mine(const RowStreamSource& source,
                                 double threshold,
                                 const ExecutionConfig& execution) {
  PipelineConfig config;
  config.threshold = threshold;
  config.execution = execution;
  // One attempt and no degraded mode: the runner reads `source`
  // directly, so a caller's own ResilientSource keeps its semantics.
  config.resilience.retry.max_attempts = 1;
  SANS_RETURN_IF_ERROR(config.Validate());
  SANS_ASSIGN_OR_RETURN(PipelineRunSummary summary,
                        PipelineRunner(config).Run(*this, source));
  return std::move(summary.report);
}

void SortPairs(std::vector<SimilarPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(), BySimilarityDesc());
}

std::string FingerprintDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace sans
