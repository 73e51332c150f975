#include "mine/pipeline_runner.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>

#include "candgen/candidate_io.h"
#include "mine/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sketch/sketch_kernels.h"
#include "util/crc32c.h"

namespace sans {

Status PipelineConfig::Validate() const {
  if (threshold <= 0.0 || threshold > 1.0) {
    return Status::InvalidArgument("threshold must lie in (0, 1]");
  }
  SANS_RETURN_IF_ERROR(resilience.Validate());
  return execution.Validate();
}

namespace {

/// Pipeline stages in dependency order; manifest entries use these
/// names.
enum StageIndex { kStageSignatures = 0, kStageCandidates, kStagePairs };
constexpr const char* kStageNames[] = {"signatures", "candidates", "pairs"};
constexpr const char* kStageFiles[] = {PipelineRunner::kSignaturesFile,
                                       PipelineRunner::kCandidatesFile,
                                       PipelineRunner::kPairsFile};
/// Log wording per stage ("reusing checkpointed verified pairs").
constexpr const char* kStageLabels[] = {"signatures", "candidates",
                                        "verified pairs"};
constexpr const char* kStagePhases[] = {kPhaseSignatures, kPhaseCandidates,
                                        kPhaseVerify};
constexpr int kNumStages = 3;

struct ManifestStage {
  std::string file;
  uint32_t crc = 0;
};

struct Manifest {
  std::string fingerprint;
  std::optional<ManifestStage> stages[kNumStages];
};

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string HexU32(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08lx", static_cast<unsigned long>(v));
  return buf;
}

/// Whole-file CRC32C, streamed in chunks.
Result<uint32_t> Crc32cOfFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  uint32_t crc = 0;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    crc = Crc32cExtend(crc, buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::IOError("read failed: " + path);
  }
  return crc;
}

/// Extracts the string after `"key": "` starting at `from`; nullopt if
/// the key is absent. Sufficient for the manifests this runner itself
/// writes; anything mangled simply fails to parse and forces a clean
/// recompute.
std::optional<std::string> JsonString(const std::string& text,
                                      const std::string& key,
                                      size_t from = 0) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t pos = text.find(needle, from);
  if (pos == std::string::npos) return std::nullopt;
  const size_t start = pos + needle.size();
  const size_t end = text.find('"', start);
  if (end == std::string::npos) return std::nullopt;
  return text.substr(start, end - start);
}

Result<Manifest> LoadManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no manifest at " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  Manifest manifest;
  std::optional<std::string> fingerprint = JsonString(text, "fingerprint");
  if (!fingerprint.has_value()) {
    return Status::Corruption("manifest missing fingerprint: " + path);
  }
  manifest.fingerprint = *fingerprint;
  for (int i = 0; i < kNumStages; ++i) {
    const std::string needle =
        std::string("\"name\": \"") + kStageNames[i] + "\"";
    const size_t pos = text.find(needle);
    if (pos == std::string::npos) continue;
    std::optional<std::string> file = JsonString(text, "file", pos);
    std::optional<std::string> crc = JsonString(text, "crc32c", pos);
    if (!file.has_value() || !crc.has_value()) {
      return Status::Corruption("manifest stage entry malformed: " + path);
    }
    char* end = nullptr;
    const unsigned long value = std::strtoul(crc->c_str(), &end, 16);
    if (end == crc->c_str() || *end != '\0' || value > 0xfffffffful) {
      return Status::Corruption("manifest crc malformed: " + path);
    }
    manifest.stages[i] =
        ManifestStage{*file, static_cast<uint32_t>(value)};
  }
  return manifest;
}

/// Serializes and atomically replaces the manifest (tmp + rename), so
/// a crash mid-write leaves either the old manifest or the new one,
/// never a torn file.
Status WriteManifest(const std::string& path, const std::string& algorithm,
                     const Manifest& manifest) {
  std::string text = "{\n  \"format\": 1,\n  \"algorithm\": \"" + algorithm +
                     "\",\n  \"fingerprint\": \"" + manifest.fingerprint +
                     "\",\n  \"stages\": [\n";
  bool first = true;
  for (int i = 0; i < kNumStages; ++i) {
    if (!manifest.stages[i].has_value()) continue;
    if (!first) text += ",\n";
    first = false;
    text += std::string("    {\"name\": \"") + kStageNames[i] +
            "\", \"file\": \"" + manifest.stages[i]->file +
            "\", \"crc32c\": \"" + HexU32(manifest.stages[i]->crc) + "\"}";
  }
  text += "\n  ]\n}\n";

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + tmp);
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed: " + path);
  }
  return Status::OK();
}

}  // namespace

PipelineRunner::PipelineRunner(const PipelineConfig& config)
    : config_(config) {
  SANS_CHECK(config.Validate().ok());
}


std::string PipelineRunner::FingerprintString(
    const Miner& miner, const RowStreamSource& source) const {
  // Every knob that can change any stage's output must appear here;
  // source shape stands in for the input identity (the checkpoint dir
  // is expected to be per-dataset). ExecutionConfig is deliberately
  // absent: outputs are bit-identical for any thread count, so a
  // checkpoint taken at one num_threads must resume at another.
  return "v1;algorithm=" + miner.tag() +
         ";threshold=" + FingerprintDouble(config_.threshold) +
         ";rows=" + std::to_string(source.num_rows()) +
         ";cols=" + std::to_string(source.num_cols()) +
         ";degraded=" + (config_.resilience.degraded_mode ? "1" : "0") +
         ";max_skipped=" + std::to_string(config_.resilience.max_skipped_rows) +
         miner.FingerprintFields();
}

Result<PipelineRunSummary> PipelineRunner::Run(
    Miner& miner, const RowStreamSource& source) const {
  SANS_RETURN_IF_ERROR(config_.Validate());
  const bool persist = !config_.checkpoint_dir.empty();
  const std::string dir = config_.checkpoint_dir + "/";
  const std::string manifest_path = dir + kManifestFile;
  if (persist) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir, ec);
    if (ec) {
      return Status::IOError("cannot create checkpoint dir " +
                             config_.checkpoint_dir + ": " + ec.message());
    }
  }

  PipelineRunSummary summary;
  ResilienceStats stats;
  const ResilientSource resilient(&source, config_.resilience, &stats);
  // With one attempt and no degraded mode the wrapper would only pass
  // rows through, so the scans read `source` itself.
  const bool wrap = config_.resilience.retry.max_attempts > 1 ||
                    config_.resilience.degraded_mode;
  const RowStreamSource& scan =
      wrap ? static_cast<const RowStreamSource&>(resilient) : source;
  // One pool shared by all stages (null => sequential reference path).
  const std::unique_ptr<ThreadPool> pool = MaybeCreatePool(config_.execution);

  // Observability: counter deltas over this run against the global
  // registry, and a span tree rooted at "run". The root span stays
  // open across the stage scopes, so stage spans link to it by id.
  const MetricsSnapshot metrics_before = MetricsRegistry::Global().Snapshot();
  Trace trace;
  const int root_span = trace.StartSpan("run", -1);

  Manifest out;
  out.fingerprint = HexU64(Fnv1a64(FingerprintString(miner, source)));

  // Checkpoints recorded by a previous run, if any are trustworthy.
  Manifest prior;
  // Breaks at the first stage that fails validation: later artifacts
  // may exist but were derived from state this run will recompute.
  bool reuse_chain = false;
  if (persist && config_.resume) {
    Result<Manifest> loaded = LoadManifest(manifest_path);
    if (!loaded.ok()) {
      summary.log.push_back("[pipeline] starting clean (" +
                            loaded.status().ToString() + ")");
    } else if (loaded.value().fingerprint != out.fingerprint) {
      summary.log.push_back(
          "[pipeline] config fingerprint changed; recomputing every stage");
    } else {
      prior = std::move(loaded).value();
      reuse_chain = true;
    }
  }

  // Validates a prior stage artifact's checksum against the manifest.
  const auto stage_artifact = [&](int index) -> std::optional<std::string> {
    if (!reuse_chain || !prior.stages[index].has_value()) return std::nullopt;
    const std::string path = dir + prior.stages[index]->file;
    const Result<uint32_t> crc = Crc32cOfFile(path);
    if (!crc.ok()) {
      summary.log.push_back("[pipeline] " + std::string(kStageNames[index]) +
                            " artifact unreadable; recomputing (" +
                            crc.status().ToString() + ")");
      return std::nullopt;
    }
    if (crc.value() != prior.stages[index]->crc) {
      summary.log.push_back("[pipeline] " + std::string(kStageNames[index]) +
                            " artifact checksum mismatch; recomputing");
      return std::nullopt;
    }
    return path;
  };

  // Runs one stage: reloads its checkpoint while the reuse chain
  // holds, else computes it (timed and traced) and, with a checkpoint
  // directory, persists it and commits the manifest. Returns whether
  // the stage was reused.
  using ArtifactIo = std::function<Status(const std::string& path)>;
  const auto run_stage = [&](int index, const ArtifactIo& load,
                             const std::function<Status()>& compute,
                             const ArtifactIo& save) -> Result<bool> {
    const std::string label = kStageLabels[index];
    if (const auto artifact = stage_artifact(index)) {
      const Status loaded = load(*artifact);
      if (loaded.ok()) {
        summary.log.push_back("[pipeline] reusing checkpointed " + label);
        out.stages[index] = prior.stages[index];
        return true;
      }
      summary.log.push_back("[pipeline] " + label +
                            " artifact failed to load; recomputing (" +
                            loaded.ToString() + ")");
    }
    reuse_chain = false;
    const ResourceUsage before = ResourceUsage::Now();
    {
      ScopedPhase phase(&summary.report.timers, kStagePhases[index]);
      TraceSpan span(&trace, kStagePhases[index], root_span);
      SANS_RETURN_IF_ERROR(compute());
    }
    const ResourceUsage after = ResourceUsage::Now();
    // Stages run in pipeline order; a reused stage has no entry, which
    // the report reads as "paid nothing".
    summary.run_report.phases.push_back(RunReport::Phase{
        kStagePhases[index],
        summary.report.timers.Total(kStagePhases[index]),
        after.cpu_s - before.cpu_s, after.peak_rss_mb});
    if (persist) {
      TraceSpan span(&trace, std::string("checkpoint-") + kStageNames[index],
                     root_span);
      SANS_RETURN_IF_ERROR(save(dir + kStageFiles[index]));
      SANS_ASSIGN_OR_RETURN(const uint32_t crc,
                            Crc32cOfFile(dir + kStageFiles[index]));
      out.stages[index] = ManifestStage{kStageFiles[index], crc};
      SANS_RETURN_IF_ERROR(WriteManifest(manifest_path, miner.tag(), out));
      summary.log.push_back("[pipeline] " + label +
                            " computed and checkpointed");
    }
    return false;
  };

  // ---- Stage 1: the miner's phase-1 artifact (one table scan). ----
  SANS_ASSIGN_OR_RETURN(
      summary.reused_signatures,
      run_stage(
          kStageSignatures,
          [&](const std::string& path) { return miner.ReadSketch(path); },
          [&] { return miner.Sketch(scan, config_.execution, pool.get()); },
          [&](const std::string& path) { return miner.WriteSketch(path); }));

  // ---- Stage 2: candidate generation (main memory). ----
  CandidateSet candidates;
  SANS_ASSIGN_OR_RETURN(
      summary.reused_candidates,
      run_stage(
          kStageCandidates,
          [&](const std::string& path) -> Status {
            SANS_ASSIGN_OR_RETURN(candidates, ReadCandidateSet(path));
            return Status::OK();
          },
          [&]() -> Status {
            SANS_ASSIGN_OR_RETURN(
                candidates, miner.Candidates(config_.threshold, pool.get()));
            return Status::OK();
          },
          [&](const std::string& path) {
            return WriteCandidateSet(candidates, path);
          }));
  summary.report.candidates = candidates.SortedPairs();
  summary.report.num_candidates = summary.report.candidates.size();

  // ---- Stage 3: exact verification (second table scan). ----
  std::vector<SimilarPair>& pairs = summary.report.pairs;
  SANS_ASSIGN_OR_RETURN(
      summary.reused_pairs,
      run_stage(
          kStagePairs,
          [&](const std::string& path) -> Status {
            SANS_ASSIGN_OR_RETURN(pairs, ReadSimilarPairs(path));
            return Status::OK();
          },
          [&]() -> Status {
            SANS_ASSIGN_OR_RETURN(
                pairs, VerifyCandidatesParallel(
                           scan, summary.report.candidates, config_.threshold,
                           config_.execution, pool.get()));
            return Status::OK();
          },
          [&](const std::string& path) {
            return WriteSimilarPairs(pairs, path);
          }));

  summary.stream_reopens = stats.reopens.load();
  summary.open_failures = stats.open_failures.load();
  summary.rows_skipped = stats.rows_skipped.load();
  summary.skipped_rows = stats.SkippedRows();
  if (summary.rows_skipped > 0) {
    summary.log.push_back(
        "[pipeline] degraded mode dropped " +
        std::to_string(summary.rows_skipped) +
        " rows; similarities near the threshold may be perturbed");
  }

  trace.EndSpan(root_span);
  const MetricsSnapshot metrics_after = MetricsRegistry::Global().Snapshot();
  RunReport& report = summary.run_report;
  report.algorithm = miner.tag();
  report.threshold = config_.threshold;
  report.table_rows = source.num_rows();
  report.table_cols = source.num_cols();
  report.threads = config_.execution.num_threads;
  report.minhash_kernel = MinHashIsaName(SelectedMinHashIsa());
  report.metric_deltas = CounterDeltas(metrics_before, metrics_after);
  const auto delta = [&report](const char* name) -> uint64_t {
    const auto it = report.metric_deltas.find(name);
    return it == report.metric_deltas.end() ? 0 : it->second;
  };
  report.rows_scanned = delta("sans_scan_rows_total");
  report.candidates_generated = delta("sans_candgen_candidates_total");
  report.candidates_verified = delta("sans_verify_candidates_total");
  report.true_positives = delta("sans_verify_true_positives_total");
  report.false_positives = delta("sans_verify_false_positives_total");
  report.pairs_emitted = summary.report.pairs.size();
  report.trace_json = trace.ToJson();
  if (!config_.run_report_path.empty()) {
    SANS_RETURN_IF_ERROR(WriteRunReport(report, config_.run_report_path));
    summary.log.push_back("[pipeline] run report written to " +
                          config_.run_report_path);
  }
  return summary;
}

}  // namespace sans
