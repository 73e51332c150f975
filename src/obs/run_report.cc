#include "obs/run_report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace sans {

namespace {

void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  return buf;
}

}  // namespace

ResourceUsage ResourceUsage::Now() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  ResourceUsage now;
  now.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  now.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return now;
}

std::string RenderRunReportJson(const RunReport& report) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"algorithm\": ";
  AppendJsonString(out, report.algorithm);
  out << ",\n";
  out << "  \"threshold\": " << FormatSeconds(report.threshold) << ",\n";
  out << "  \"table_rows\": " << report.table_rows << ",\n";
  out << "  \"table_cols\": " << report.table_cols << ",\n";
  out << "  \"threads\": " << report.threads << ",\n";
  out << "  \"minhash_kernel\": ";
  AppendJsonString(out, report.minhash_kernel);
  out << ",\n";
  out << "  \"phases\": [";
  for (size_t i = 0; i < report.phases.size(); ++i) {
    if (i > 0) out << ',';
    out << "\n    {\"name\": ";
    AppendJsonString(out, report.phases[i].name);
    out << ", \"seconds\": " << FormatSeconds(report.phases[i].seconds)
        << ", \"cpu_s\": " << FormatSeconds(report.phases[i].cpu_s)
        << ", \"peak_rss_mb\": " << FormatSeconds(report.phases[i].peak_rss_mb)
        << '}';
  }
  if (!report.phases.empty()) out << "\n  ";
  out << "],\n";
  out << "  \"rows_scanned\": " << report.rows_scanned << ",\n";
  out << "  \"candidates_generated\": " << report.candidates_generated
      << ",\n";
  out << "  \"candidates_verified\": " << report.candidates_verified << ",\n";
  out << "  \"true_positives\": " << report.true_positives << ",\n";
  out << "  \"false_positives\": " << report.false_positives << ",\n";
  out << "  \"pairs_emitted\": " << report.pairs_emitted << ",\n";
  out << "  \"metric_deltas\": {";
  size_t i = 0;
  for (const auto& [name, delta] : report.metric_deltas) {
    if (i++ > 0) out << ',';
    out << "\n    ";
    AppendJsonString(out, name);
    out << ": " << delta;
  }
  if (!report.metric_deltas.empty()) out << "\n  ";
  out << "},\n";
  out << "  \"trace\": "
      << (report.trace_json.empty() ? "[]" : report.trace_json) << "\n";
  out << "}\n";
  return out.str();
}

Status WriteRunReport(const RunReport& report, const std::string& path) {
  const std::string json = RenderRunReportJson(report);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open run report for writing: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::IOError("short write to run report: " + path);
  }
  return Status::OK();
}

std::string RenderPhaseTable(const RunReport& report) {
  double total = 0.0;
  double total_cpu = 0.0;
  double peak = 0.0;
  size_t name_width = 5;  // "total"
  for (const RunReport::Phase& phase : report.phases) {
    total += phase.seconds;
    total_cpu += phase.cpu_s;
    peak = std::max(peak, phase.peak_rss_mb);
    name_width = std::max(name_width, phase.name.size());
  }
  std::ostringstream out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%-*s  %9s  %6s  %8s  %8s\n",
                static_cast<int>(name_width), "phase", "seconds", "%",
                "cpu_s", "peak_mb");
  out << buf;
  const auto row = [&](const std::string& name, double seconds,
                       double cpu_s, double peak_rss_mb) {
    const double pct = total > 0.0 ? 100.0 * seconds / total : 0.0;
    std::snprintf(buf, sizeof(buf), "%-*s  %9.3f  %6.1f  %8.3f  %8.1f\n",
                  static_cast<int>(name_width), name.c_str(), seconds, pct,
                  cpu_s, peak_rss_mb);
    out << buf;
  };
  for (const RunReport::Phase& phase : report.phases) {
    row(phase.name, phase.seconds, phase.cpu_s, phase.peak_rss_mb);
  }
  row("total", total, total_cpu, peak);
  std::snprintf(
      buf, sizeof(buf),
      "rows scanned: %llu  candidates: %llu  verified: %llu  pairs: %llu\n",
      static_cast<unsigned long long>(report.rows_scanned),
      static_cast<unsigned long long>(report.candidates_generated),
      static_cast<unsigned long long>(report.candidates_verified),
      static_cast<unsigned long long>(report.pairs_emitted));
  out << buf;
  if (!report.minhash_kernel.empty()) {
    out << "min-hash kernel: " << report.minhash_kernel << '\n';
  }
  return out.str();
}

}  // namespace sans
