// Web-log scenario (the paper's Sun Microsystems use case): find URLs
// that are accessed by nearly the same set of client IPs — in
// practice, images and applets auto-loaded by a parent page. Compares
// the M-LSH miner (with optimizer-chosen parameters) against the
// planted bundle ground truth.
//
// Run: ./weblog_similarity [num_clients] [num_urls]

#include <cstdio>
#include <cstdlib>

#include "data/weblog_generator.h"
#include "lsh/distribution_estimator.h"
#include "matrix/row_stream.h"
#include "mine/mlsh_miner.h"

int main(int argc, char** argv) {
  sans::WeblogConfig data_config;
  data_config.num_clients = argc > 1 ? std::atoi(argv[1]) : 20'000;
  data_config.num_urls = argc > 2 ? std::atoi(argv[2]) : 1'300;
  data_config.num_bundles = 40;
  data_config.seed = 7;

  std::printf("simulating web log: %u clients x %u urls...\n",
              data_config.num_clients, data_config.num_urls);
  auto dataset = sans::GenerateWeblog(data_config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("  %llu hits recorded\n",
              static_cast<unsigned long long>(dataset->matrix.num_ones()));

  // Estimate the similarity distribution: column sampling for the
  // dominant low mass, min-hash sketching for the rare high tail
  // (which drives the optimizer's false-negative bound), then let the
  // Section 4.1 optimizer pick (r, l) for a <= ~5 FN budget.
  sans::DistributionEstimatorOptions est_options;
  est_options.sample_columns = 300;
  est_options.seed = 1;
  auto low =
      sans::EstimateSimilarityDistribution(dataset->matrix, est_options);
  sans::SketchDistributionOptions sketch_options;
  sketch_options.seed = 2;
  auto high = sans::EstimateSimilarityDistributionSketch(dataset->matrix,
                                                         sketch_options);
  if (!low.ok() || !high.ok()) {
    std::fprintf(stderr, "distribution estimation failed\n");
    return 1;
  }
  const sans::SimilarityDistribution distr_value =
      sans::MergeDistributions(*low, *high, 0.25);
  const sans::Result<sans::SimilarityDistribution> distr(distr_value);

  sans::LshOptimizerOptions opt_options;
  opt_options.s0 = 0.7;
  opt_options.max_false_negatives = 5.0;
  opt_options.max_false_positives = 50'000.0;
  auto miner = sans::MlshMiner::FromDistribution(
      *distr, opt_options, /*seed=*/3);
  if (!miner.ok()) {
    std::fprintf(stderr, "optimizer found no feasible (r, l): %s\n",
                 miner.status().ToString().c_str());
    return 1;
  }
  std::printf("optimizer chose r=%d, l=%d (k=%d min-hashes)\n",
              miner->config().lsh.rows_per_band,
              miner->config().lsh.num_bands,
              miner->config().lsh.rows_per_band *
                  miner->config().lsh.num_bands);

  sans::InMemorySource source(&dataset->matrix);
  auto report = miner->Mine(source, 0.7);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("\nfound %zu URL pairs with similarity >= 0.7 "
              "(%llu candidates, %.3fs)\n",
              report->pairs.size(),
              static_cast<unsigned long long>(report->num_candidates),
              report->TotalSeconds());
  const size_t show = report->pairs.size() < 12 ? report->pairs.size() : 12;
  for (size_t i = 0; i < show; ++i) {
    const sans::SimilarPair& p = report->pairs[i];
    std::printf("  %.3f  %-34s %s\n", p.similarity,
                dataset->url_names[p.pair.first].c_str(),
                dataset->url_names[p.pair.second].c_str());
  }

  // Score against the planted bundles.
  int bundle_pairs = 0;
  int bundle_found = 0;
  for (const sans::UrlBundle& bundle : dataset->bundles) {
    for (sans::ColumnId res : bundle.resources) {
      if (dataset->matrix.Similarity(bundle.parent, res) < 0.7) continue;
      ++bundle_pairs;
      for (const sans::SimilarPair& p : report->pairs) {
        if (p.pair == sans::ColumnPair(bundle.parent, res)) {
          ++bundle_found;
          break;
        }
      }
    }
  }
  std::printf("\nbundle recall: %d / %d parent-resource pairs above the "
              "threshold were found\n",
              bundle_found, bundle_pairs);
  return 0;
}
