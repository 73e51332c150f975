// Shared pieces of perfbench_tool: flag parsing, JSON output, the
// seeded request sequence and the exact-truth file format.
//
// The tool reaches the program only through the public headers under
// src/. Its subcommands: `prepare` makes a workload's inputs and their
// exact truth, `load` drives a running `sans serve` and checks every
// answer, `trace` times calls into each layer from outside, `exec`
// times a child process and reads its peak RSS, `host` reports the
// compiler, build type and hardware threads.

#ifndef PERFBENCH_TOOL_TOOL_H_
#define PERFBENCH_TOOL_TOOL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/types.h"

namespace perfbench {

/// `--key value` flags. Every flag takes a value.
class Args {
 public:
  Args(int argc, char** argv, int first);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  /// Exits with code 2 when the flag is missing.
  std::string String(const std::string& key) const;
  int64_t Int(const std::string& key) const;
  double Double(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Prints `message` to stderr and exits with code 1.
[[noreturn]] void Die(const std::string& message);

/// Seconds on the steady clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A JSON number or null for a non-finite value.
std::string JsonNumber(double value);
std::string JsonString(const std::string& value);

/// One client request of the serve mix: every tenth is TopK(k=10) of
/// `a`, the rest PairSimilarity(a, b). The same (seed, connection)
/// always yields the same sequence, so the traced run replays the
/// requests the end-to-end run sent.
struct Request {
  bool topk = false;
  sans::ColumnId a = 0;
  sans::ColumnId b = 0;
};

class RequestSequence {
 public:
  RequestSequence(uint64_t seed, int connection, sans::ColumnId num_cols);
  Request Next();

 private:
  std::mt19937_64 rng_;
  sans::ColumnId num_cols_;
  uint64_t issued_ = 0;
};

inline constexpr int kTopK = 10;

/// Exact truth of one input table, as `prepare` writes it:
///   pairs.tsv  one line "a b intersection union" per pair with exact
///              Jaccard similarity >= the mining threshold;
///   topk.tsv   one line per column q: "q n c1 ... cn", the columns
///              whose similarity to q is at least q's 10th-best
///              (ties included), or "q *" when that 10th-best is 0 and
///              every column ties.
struct TopKTruth {
  /// Sorted hit columns per query column; empty with `all` set means
  /// every column is a hit.
  std::vector<std::vector<sans::ColumnId>> hits;
  std::vector<bool> all;

  /// True when `answer` is among the exact top 10 of `query`.
  bool IsHit(sans::ColumnId query, sans::ColumnId answer) const;
};

TopKTruth ReadTopKTruth(const std::string& path);

int RunPrepare(const Args& args);
int RunLoad(const Args& args);
int RunTrace(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_TOOL_H_
