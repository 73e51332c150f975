// `load`: a closed loop against a running `sans serve`. One process
// opens --connections blocking clients, one per thread; each sends its
// seeded request sequence (tool.h) back to back for --seconds and
// times every request at the client, from send to reply. The latencies
// are printed in the order the requests were sent, across connections,
// so that the caller can split the window into consecutive parts.
//
// Only after the timed window are the answers checked, against the
// same calls made in-process on the same index file: every
// PairSimilarity answer, and every TopK answer (each distinct query
// column is asked in-process once, on all hardware threads). Every
// TopK answer is also scored against the exact top 10 (recall@10).
// The summary is one JSON object on stdout.

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "serve/client.h"
#include "serve/query_engine.h"
#include "serve/similarity_index.h"
#include "tool.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using sans::ColumnId;
using sans::Neighbor;

struct Reply {
  Request request;
  double start_s = 0.0;
  double latency_s = 0.0;
  bool ok = false;
  double similarity = 0.0;
  std::vector<Neighbor> neighbors;
};

std::vector<Reply> RunConnection(const sans::ClientConfig& config,
                                 uint64_t seed, int connection,
                                 ColumnId num_cols, double deadline) {
  std::vector<Reply> replies;
  auto client = sans::Client::Connect(config);
  if (!client.ok()) {
    std::fprintf(stderr, "connection %d: %s\n", connection,
                 client.status().ToString().c_str());
    replies.push_back(Reply{});
    return replies;
  }
  RequestSequence sequence(seed, connection, num_cols);
  while (Now() < deadline) {
    Reply reply;
    reply.request = sequence.Next();
    reply.start_s = Now();
    if (reply.request.topk) {
      auto answer = (*client)->TopK(reply.request.a, kTopK);
      reply.ok = answer.ok();
      if (answer.ok()) reply.neighbors = std::move(*answer);
    } else {
      auto answer =
          (*client)->PairSimilarity(reply.request.a, reply.request.b);
      reply.ok = answer.ok();
      if (answer.ok()) reply.similarity = *answer;
    }
    reply.latency_s = Now() - reply.start_s;
    replies.push_back(std::move(reply));
  }
  return replies;
}

/// The latencies of (send time, latency) samples, in send order.
std::string JsonArray(std::vector<std::pair<double, double>> samples) {
  std::sort(samples.begin(), samples.end());
  std::string out = "[";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonNumber(samples[i].second);
  }
  return out + "]";
}

}  // namespace

int RunLoad(const Args& args) {
  const std::string index_path = args.String("index");
  const int connections = static_cast<int>(args.Int("connections"));
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const TopKTruth truth = ReadTopKTruth(args.String("truth"));
  const auto num_cols = static_cast<ColumnId>(truth.hits.size());

  sans::ClientConfig config;
  config.port = static_cast<uint16_t>(args.Int("port"));
  std::vector<std::vector<Reply>> per_connection(connections);
  std::vector<std::thread> threads;
  const double start = Now();
  const double deadline = start + args.Double("seconds");
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      per_connection[c] = RunConnection(config, seed, c, num_cols, deadline);
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = Now() - start;

  // Untimed from here on: check the answers.
  auto loaded = sans::SimilarityIndex::Load(index_path);
  if (!loaded.ok()) Die(loaded.status().ToString());
  const sans::QueryEngine engine(
      std::make_shared<const sans::SimilarityIndex>(std::move(*loaded)));

  std::vector<std::pair<double, double>> topk_latency;
  std::vector<std::pair<double, double>> pair_latency;
  uint64_t attempted = 0;
  uint64_t rpc_errors = 0;
  uint64_t pair_mismatches = 0;
  double hits = 0.0;
  std::map<ColumnId, std::vector<Neighbor>> expected_topk;
  for (const auto& replies : per_connection) {
    for (const Reply& reply : replies) {
      ++attempted;
      if (!reply.ok) {
        ++rpc_errors;
        continue;
      }
      if (!reply.request.topk) {
        pair_latency.emplace_back(reply.start_s, reply.latency_s);
        auto expected =
            engine.PairSimilarity(reply.request.a, reply.request.b);
        if (!expected.ok() || *expected != reply.similarity) {
          ++pair_mismatches;
        }
        continue;
      }
      topk_latency.emplace_back(reply.start_s, reply.latency_s);
      for (const Neighbor& n : reply.neighbors) {
        if (truth.IsHit(reply.request.a, n.col)) hits += 1.0;
      }
      expected_topk.emplace(reply.request.a, std::vector<Neighbor>{});
    }
  }

  std::vector<ColumnId> cols;
  for (const auto& [col, answer] : expected_topk) cols.push_back(col);
  sans::ThreadPool pool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  auto expected = engine.BatchTopK(cols, kTopK, 0.0, &pool);
  if (!expected.ok()) Die(expected.status().ToString());
  for (size_t i = 0; i < cols.size(); ++i) {
    expected_topk[cols[i]] = std::move((*expected)[i]);
  }
  uint64_t topk_mismatches = 0;
  for (const auto& replies : per_connection) {
    for (const Reply& reply : replies) {
      if (reply.ok && reply.request.topk &&
          expected_topk.at(reply.request.a) != reply.neighbors) {
        ++topk_mismatches;
      }
    }
  }

  std::printf(
      "{\"elapsed_s\": %s, \"attempted\": %llu, \"rpc_errors\": %llu, "
      "\"pair_mismatches\": %llu, \"topk_mismatches\": %llu, "
      "\"topk_columns\": %zu, \"recall_at_10\": %s, "
      "\"topk_latency_s\": %s, \"pair_latency_s\": %s}\n",
      JsonNumber(elapsed).c_str(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(rpc_errors),
      static_cast<unsigned long long>(pair_mismatches),
      static_cast<unsigned long long>(topk_mismatches), cols.size(),
      JsonNumber(topk_latency.empty()
                     ? 0.0
                     : hits / (kTopK * static_cast<double>(
                                           topk_latency.size())))
          .c_str(),
      JsonArray(topk_latency).c_str(), JsonArray(pair_latency).c_str());
  return 0;
}

}  // namespace perfbench
