// perfbench_tool entry point and the shared helpers of tool.h.
//
//   perfbench_tool host
//   perfbench_tool exec REPORT_FILE PROGRAM [ARG ...]
//   perfbench_tool prepare --kind K --rows N --cols M --seed S ...
//   perfbench_tool load --port P --index FILE --truth DIR ...
//   perfbench_tool trace --table FILE --algorithm kmh|mlsh ...

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "tool.h"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      Die(std::string("expected --flag value, got '") + argv[i] + "'");
    }
    values_[argv[i] + 2] = argv[i + 1];
  }
}

std::string Args::String(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

int64_t Args::Int(const std::string& key) const {
  return std::strtoll(String(key).c_str(), nullptr, 10);
}

double Args::Double(const std::string& key) const {
  return std::strtod(String(key).c_str(), nullptr);
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(1);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

RequestSequence::RequestSequence(uint64_t seed, int connection,
                                 sans::ColumnId num_cols)
    : rng_(seed * 1'000'003ULL + static_cast<uint64_t>(connection)),
      num_cols_(num_cols) {}

Request RequestSequence::Next() {
  Request request;
  request.topk = issued_++ % 10 == 0;
  request.a = static_cast<sans::ColumnId>(rng_() % num_cols_);
  request.b = static_cast<sans::ColumnId>(rng_() % num_cols_);
  if (request.b == request.a) request.b = (request.b + 1) % num_cols_;
  return request;
}

bool TopKTruth::IsHit(sans::ColumnId query, sans::ColumnId answer) const {
  if (all[query]) return answer != query;
  const auto& list = hits[query];
  return std::binary_search(list.begin(), list.end(), answer);
}

TopKTruth ReadTopKTruth(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  TopKTruth truth;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    uint64_t query = 0;
    std::string count;
    fields >> query >> count;
    if (query != truth.hits.size()) Die("topk truth out of order: " + path);
    truth.hits.emplace_back();
    truth.all.push_back(count == "*");
    sans::ColumnId col = 0;
    while (fields >> col) truth.hits.back().push_back(col);
    std::sort(truth.hits.back().begin(), truth.hits.back().end());
  }
  return truth;
}

namespace {

int RunHost() {
  std::printf("{\"compiler\": %s, \"build_type\": %s, "
              "\"hardware_concurrency\": %u}\n",
              JsonString(PERFBENCH_COMPILER).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              std::thread::hardware_concurrency());
  return 0;
}

/// Runs a program as a child and writes its exit code, wall time and
/// peak RSS to REPORT_FILE. A child's rusage peak includes the memory
/// of the process that forked it, so children are forked from this
/// small process rather than from the benchmark's interpreter.
int RunExec(int argc, char** argv) {
  if (argc < 4) Die("exec needs REPORT_FILE PROGRAM [ARG ...]");
  const double start = Now();
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    execvp(argv[3], argv + 3);
    std::perror(argv[3]);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) Die("wait4 failed");
  const double wall = Now() - start;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::FILE* report = std::fopen(argv[2], "w");
  if (report == nullptr) Die(std::string("cannot write ") + argv[2]);
  std::fprintf(report, "{\"exit\": %d, \"wall_s\": %s, \"peak_rss_mb\": %s}\n",
               code, JsonNumber(wall).c_str(),
               JsonNumber(usage.ru_maxrss / 1024.0).c_str());
  std::fclose(report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool host|exec|prepare|load|trace "
                         "[--flag value ...]\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "exec") return perfbench::RunExec(argc, argv);
  const perfbench::Args args(argc, argv, 2);
  if (command == "host") return perfbench::RunHost();
  if (command == "prepare") return perfbench::RunPrepare(args);
  if (command == "load") return perfbench::RunLoad(args);
  if (command == "trace") return perfbench::RunTrace(args);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
