// `prepare`: generates one workload input with the repository's
// generators, writes it as a .sans table, and computes its exact
// truth by brute force: every column pair's intersection is counted
// from the rows, so the mined pairs and the served top 10 can be
// checked against exact Jaccard similarities.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "data/news_generator.h"
#include "data/synthetic_generator.h"
#include "data/weblog_generator.h"
#include "matrix/table_file.h"
#include "tool.h"

namespace perfbench {
namespace {

using sans::BinaryMatrix;
using sans::ColumnId;
using sans::RowId;

BinaryMatrix Generate(const Args& args) {
  const std::string kind = args.String("kind");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  if (kind == "synthetic") {
    // The paper's Section 5 recipe: five similarity bands, one planted
    // pair per 100 columns.
    sans::SyntheticConfig config;
    config.num_rows = static_cast<RowId>(args.Int("rows"));
    config.num_cols = static_cast<ColumnId>(args.Int("cols"));
    const int per_band = static_cast<int>(config.num_cols / 100 / 5);
    config.bands = {{per_band, 85.0, 95.0}, {per_band, 75.0, 85.0},
                    {per_band, 65.0, 75.0}, {per_band, 55.0, 65.0},
                    {per_band, 45.0, 55.0}};
    config.seed = seed;
    auto dataset = sans::GenerateSynthetic(config);
    if (!dataset.ok()) Die(dataset.status().ToString());
    return std::move(dataset->matrix);
  }
  if (kind == "weblog") {
    sans::WeblogConfig config;
    config.num_clients = static_cast<RowId>(args.Int("rows"));
    config.num_urls = static_cast<ColumnId>(args.Int("cols"));
    config.num_bundles = static_cast<int>(args.Int("bundles"));
    config.seed = seed;
    auto dataset = sans::GenerateWeblog(config);
    if (!dataset.ok()) Die(dataset.status().ToString());
    return std::move(dataset->matrix);
  }
  if (kind == "news") {
    sans::NewsConfig config;
    config.num_docs = static_cast<RowId>(args.Int("rows"));
    config.vocab_size = static_cast<ColumnId>(args.Int("cols"));
    config.num_collocations = static_cast<int>(args.Int("collocations"));
    config.collocation_docs = static_cast<int>(args.Int("collocation-docs"));
    config.seed = seed;
    auto dataset = sans::GenerateNews(config);
    if (!dataset.ok()) Die(dataset.status().ToString());
    return std::move(dataset->matrix);
  }
  Die("unknown --kind " + kind);
}

/// Index of pair (a, b), a < b, in a packed upper triangle over n
/// columns.
inline size_t TriangleIndex(size_t n, size_t a, size_t b) {
  return a * n - a * (a + 1) / 2 + (b - a - 1);
}

/// |C_a ∩ C_b| for every pair a < b, counted from the rows on up to
/// four threads, one packed triangle per thread.
std::vector<uint32_t> CountIntersections(const BinaryMatrix& matrix) {
  const size_t n = matrix.num_cols();
  const size_t pairs = n * (n - 1) / 2;
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::vector<std::vector<uint32_t>> partial(threads);
  std::vector<std::thread> workers;
  const RowId rows = matrix.num_rows();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint32_t>& counts = partial[t];
      counts.assign(pairs, 0);
      const RowId begin = static_cast<RowId>(uint64_t{rows} * t / threads);
      const RowId end = static_cast<RowId>(uint64_t{rows} * (t + 1) / threads);
      for (RowId r = begin; r < end; ++r) {
        const auto cols = matrix.Row(r);
        for (size_t i = 0; i < cols.size(); ++i) {
          const size_t base = TriangleIndex(n, cols[i], cols[i] + 1);
          for (size_t j = i + 1; j < cols.size(); ++j) {
            ++counts[base + (cols[j] - cols[i] - 1)];
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 1; t < threads; ++t) {
    for (size_t i = 0; i < pairs; ++i) partial[0][i] += partial[t][i];
    std::vector<uint32_t>().swap(partial[t]);
  }
  return std::move(partial[0]);
}

/// Jaccard similarity exactly as the verifier computes it.
inline double Jaccard(uint64_t intersection, uint64_t size_a,
                      uint64_t size_b) {
  const uint64_t union_size = size_a + size_b - intersection;
  return union_size == 0 ? 0.0
                         : static_cast<double>(intersection) / union_size;
}

}  // namespace

int RunPrepare(const Args& args) {
  const std::filesystem::path out = args.String("out");
  const double threshold = args.Double("threshold");
  std::filesystem::create_directories(out);

  const double gen_start = Now();
  const BinaryMatrix matrix = Generate(args);
  const sans::Status written =
      sans::WriteTableFile(matrix, (out / "table.sans").string());
  if (!written.ok()) Die(written.ToString());
  const double gen_s = Now() - gen_start;

  const double truth_start = Now();
  const size_t n = matrix.num_cols();
  const std::vector<uint32_t> counts = CountIntersections(matrix);
  std::vector<uint64_t> sizes(n);
  for (size_t c = 0; c < n; ++c) sizes[c] = matrix.ColumnCardinality(c);
  const auto intersection = [&](size_t a, size_t b) -> uint64_t {
    if (a == b) return sizes[a];
    return a < b ? counts[TriangleIndex(n, a, b)]
                 : counts[TriangleIndex(n, b, a)];
  };

  std::ofstream pairs_out(out / "pairs.tsv");
  size_t exact_pairs = 0;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      const uint64_t inter = intersection(a, b);
      if (inter > 0 && Jaccard(inter, sizes[a], sizes[b]) >= threshold) {
        pairs_out << a << ' ' << b << ' ' << inter << ' '
                  << sizes[a] + sizes[b] - inter << '\n';
        ++exact_pairs;
      }
    }
  }

  std::ofstream topk_out(out / "topk.tsv");
  std::vector<double> similarity(n);
  std::vector<double> scratch;
  for (size_t q = 0; q < n; ++q) {
    for (size_t c = 0; c < n; ++c) {
      similarity[c] =
          c == q ? -1.0 : Jaccard(intersection(q, c), sizes[q], sizes[c]);
    }
    scratch = similarity;
    const size_t rank = std::min<size_t>(kTopK, n - 1) - 1;
    std::nth_element(scratch.begin(), scratch.begin() + rank, scratch.end(),
                     std::greater<double>());
    const double tenth = scratch[rank];
    topk_out << q;
    if (tenth <= 0.0) {
      topk_out << " *\n";
      continue;
    }
    std::vector<size_t> hits;
    for (size_t c = 0; c < n; ++c) {
      if (c != q && similarity[c] >= tenth) hits.push_back(c);
    }
    topk_out << ' ' << hits.size();
    for (const size_t c : hits) topk_out << ' ' << c;
    topk_out << '\n';
  }
  pairs_out.close();
  topk_out.close();
  if (!pairs_out || !topk_out) Die("cannot write truth files in " + out.string());

  std::printf("{\"rows\": %u, \"cols\": %u, \"ones\": %llu, "
              "\"exact_pairs\": %zu, \"generate_s\": %s, \"truth_s\": %s}\n",
              matrix.num_rows(), matrix.num_cols(),
              static_cast<unsigned long long>(matrix.num_ones()), exact_pairs,
              JsonNumber(gen_s).c_str(),
              JsonNumber(Now() - truth_start).c_str());
  return 0;
}

}  // namespace perfbench
