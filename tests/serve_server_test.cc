#include "serve/server.h"

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "data/synthetic_generator.h"
#include "matrix/row_stream.h"
#include "serve/client.h"
#include "util/endian.h"

namespace sans {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sans_serve_server_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Builds, persists, and loads a small planted index.
  std::shared_ptr<const SimilarityIndex> MakeIndex(const std::string& name,
                                                   uint64_t seed) {
    SyntheticConfig data;
    data.num_rows = 300;
    data.num_cols = 80;
    data.bands = {{3, 70.0, 90.0}};
    data.spread_pairs = false;
    data.seed = seed;
    auto dataset = GenerateSynthetic(data);
    EXPECT_TRUE(dataset.ok());

    SimilarityIndexConfig config;
    config.sketch_k = 64;
    config.rows_per_band = 4;
    config.num_bands = 10;
    config.seed = 3;
    const std::string path = Path(name);
    const Status built = IndexBuilder(config).Build(
        InMemorySource(&dataset->matrix), path);
    EXPECT_TRUE(built.ok()) << built.ToString();
    auto index = SimilarityIndex::Load(path);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return std::make_shared<const SimilarityIndex>(std::move(*index));
  }

  std::unique_ptr<Server> StartServer(int threads = 2,
                                      bool allow_reload = false) {
    ServerConfig config;
    config.num_threads = threads;
    config.poll_interval_ms = 20;
    config.allow_reload = allow_reload;
    auto server = Server::Start(MakeIndex("index.sidx", 17), config);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(*server);
  }

  std::unique_ptr<Client> Connect(uint16_t port) {
    ClientConfig config;
    config.port = port;
    config.recv_timeout_ms = 5000;
    auto client = Client::Connect(config);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// Raw TCP socket for malformed-bytes attacks.
  int RawConnect(uint16_t port) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    timeval tv{};
    tv.tv_sec = 5;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
  }

  static int counter_;
  std::filesystem::path dir_;
};

int ServerTest::counter_ = 0;

TEST_F(ServerTest, PingTopKPairAndStatsRoundTrip) {
  auto server = StartServer();
  auto client = Connect(server->port());

  EXPECT_TRUE(client->Ping().ok());

  auto neighbors = client->TopK(0, 5);
  ASSERT_TRUE(neighbors.ok()) << neighbors.status().ToString();
  EXPECT_LE(neighbors->size(), 5u);
  // Column 0 is half of a planted pair with column 1.
  ASSERT_FALSE(neighbors->empty());
  EXPECT_EQ(neighbors->front().col, 1u);

  auto similarity = client->PairSimilarity(0, 1);
  ASSERT_TRUE(similarity.ok());
  EXPECT_GT(*similarity, 0.5);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->requests, 3u);
  EXPECT_EQ(stats->errors, 0u);
  EXPECT_EQ(stats->epoch, 1u);
}

TEST_F(ServerTest, ServerSideErrorsComeBackAsStatus) {
  auto server = StartServer();
  auto client = Connect(server->port());

  // Out-of-range column: InvalidArgument with the server's message.
  auto bad_col = client->TopK(1u << 20, 5);
  ASSERT_FALSE(bad_col.ok());
  EXPECT_EQ(bad_col.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_col.status().message().find("out of range"),
            std::string::npos);

  // k beyond the server's cap.
  auto bad_k = client->TopK(0, 1u << 30);
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), StatusCode::kInvalidArgument);

  // Reload is disabled by default.
  auto reload = client->Reload("/nonexistent");
  ASSERT_FALSE(reload.ok());
  EXPECT_EQ(reload.status().code(), StatusCode::kInvalidArgument);

  // The connection survived all three errors.
  EXPECT_TRUE(client->Ping().ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->errors, 3u);
}

TEST_F(ServerTest, UnknownOpcodeGetsErrorFrameNotCrash) {
  auto server = StartServer();
  const int fd = RawConnect(server->port());
  WireWriter w;
  w.PutU8(200);  // no such opcode
  ASSERT_TRUE(WriteFrame(fd, w.payload()).ok());
  std::vector<unsigned char> payload;
  auto event = ReadFrame(fd, &payload, {});
  ASSERT_TRUE(event.ok());
  ASSERT_EQ(*event, FrameEvent::kPayload);
  WireReader r(payload);
  ASSERT_EQ(DecodeResponseCode(&r).value(), ResponseCode::kError);
  const Status carried = DecodeErrorResponse(&r);
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  close(fd);
  // Server still answers on a fresh connection.
  auto client = Connect(server->port());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, OversizedLengthPrefixGetsErrorFrameThenClose) {
  auto server = StartServer();
  const int fd = RawConnect(server->port());
  unsigned char header[4];
  EncodeLE32(0xfffffff0u, header);
  ASSERT_EQ(send(fd, header, sizeof(header), 0), 4);
  std::vector<unsigned char> payload;
  auto event = ReadFrame(fd, &payload, {});
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  ASSERT_EQ(*event, FrameEvent::kPayload);
  WireReader r(payload);
  ASSERT_EQ(DecodeResponseCode(&r).value(), ResponseCode::kError);
  EXPECT_EQ(DecodeErrorResponse(&r).code(), StatusCode::kCorruption);
  // The server drops the unframed connection afterwards.
  auto next = ReadFrame(fd, &payload, {});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, FrameEvent::kClosed);
  close(fd);
  auto client = Connect(server->port());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, TruncatedRequestBodyGetsErrorFrame) {
  auto server = StartServer();
  const int fd = RawConnect(server->port());
  // A TopK opcode with a short body: framing is intact, decoding fails.
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(Opcode::kTopK));
  w.PutU32(0);  // missing k and min_similarity
  ASSERT_TRUE(WriteFrame(fd, w.payload()).ok());
  std::vector<unsigned char> payload;
  auto event = ReadFrame(fd, &payload, {});
  ASSERT_TRUE(event.ok());
  ASSERT_EQ(*event, FrameEvent::kPayload);
  WireReader r(payload);
  ASSERT_EQ(DecodeResponseCode(&r).value(), ResponseCode::kError);
  EXPECT_EQ(DecodeErrorResponse(&r).code(), StatusCode::kCorruption);
  // Framed error: the same connection keeps working.
  WireWriter ping;
  ping.PutU8(static_cast<uint8_t>(Opcode::kPing));
  ASSERT_TRUE(WriteFrame(fd, ping.payload()).ok());
  auto pong = ReadFrame(fd, &payload, {});
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, FrameEvent::kPayload);
  close(fd);
}

TEST_F(ServerTest, MidFrameDisconnectDoesNotCrashServer) {
  auto server = StartServer();
  const int fd = RawConnect(server->port());
  unsigned char header[4];
  EncodeLE32(1000, header);  // promise 1000 bytes
  ASSERT_EQ(send(fd, header, sizeof(header), 0), 4);
  close(fd);  // deliver none
  // Server survives: a fresh client still gets answers.
  auto client = Connect(server->port());
  EXPECT_TRUE(client->Ping().ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->errors, 1u);
}

TEST_F(ServerTest, ConcurrentQueriesMatchSequential) {
  auto server = StartServer(/*threads=*/4);
  const std::vector<ColumnId> cols = {0, 1, 2, 5, 9, 17, 33, 60};

  // Sequential reference answers.
  auto reference_client = Connect(server->port());
  std::vector<std::vector<Neighbor>> reference;
  for (ColumnId c : cols) {
    auto neighbors = reference_client->TopK(c, 4);
    ASSERT_TRUE(neighbors.ok());
    reference.push_back(std::move(*neighbors));
  }

  // Hammer the same queries from concurrent connections; every answer
  // must be identical to the sequential one (the index is immutable
  // and the engine deterministic).
  constexpr int kClientThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kClientThreads, 0);
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientConfig config;
      config.port = server->port();
      auto client = Client::Connect(config);
      if (!client.ok()) {
        mismatches[t] = 1000;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < cols.size(); ++i) {
          auto neighbors = (*client)->TopK(cols[i], 4);
          if (!neighbors.ok() || *neighbors != reference[i]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kClientThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "client thread " << t;
  }
}

TEST_F(ServerTest, ReloadSwapsEpochWithoutDroppingClients) {
  auto server = StartServer(/*threads=*/2, /*allow_reload=*/true);
  auto client = Connect(server->port());
  ASSERT_TRUE(client->Ping().ok());

  // Build a second index (for the file side effect), reload into it.
  (void)MakeIndex("replacement.sidx", 99);
  auto epoch = client->Reload(Path("replacement.sidx"));
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);

  // The existing connection keeps working on the new epoch.
  auto neighbors = client->TopK(0, 3);
  ASSERT_TRUE(neighbors.ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 2u);
  EXPECT_EQ(stats->reloads, 1u);

  // Reloading a corrupt path fails cleanly and keeps the old epoch.
  auto bad = client->Reload(Path("missing.sidx"));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(client->Ping().ok());
  stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 2u);
}

TEST_F(ServerTest, ProgrammaticReloadIsVisibleToClients) {
  auto server = StartServer();
  auto client = Connect(server->port());
  server->Reload(MakeIndex("swap.sidx", 41));
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 2u);
  EXPECT_TRUE(client->TopK(0, 3).ok());
}

TEST_F(ServerTest, StopIsIdempotentAndDrains) {
  auto server = StartServer();
  auto client = Connect(server->port());
  EXPECT_TRUE(client->Ping().ok());
  server->Stop();
  server->Stop();  // second call is a no-op
  const ServerStatsSnapshot stats = server->Stats();
  EXPECT_GE(stats.requests, 1u);
  // A request after stop fails at the transport level, not with a hang.
  EXPECT_FALSE(client->Ping().ok());
}

TEST_F(ServerTest, LatencyQuantilesPopulateAfterTraffic) {
  auto server = StartServer();
  auto client = Connect(server->port());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->TopK(static_cast<ColumnId>(i % 80), 3).ok());
  }
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->requests, 50u);
  EXPECT_GT(stats->p50_seconds, 0.0);
  EXPECT_GE(stats->p99_seconds, stats->p50_seconds);
}

TEST_F(ServerTest, MetricsExpositionOverTheWire) {
  auto server = StartServer();
  auto client = Connect(server->port());
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->TopK(0, 3).ok());

  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // Per-request-type counters with the traffic we just generated.
  EXPECT_NE(text->find("# TYPE sans_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text->find("sans_serve_requests_total{type=\"ping\"} 1"),
            std::string::npos);
  EXPECT_NE(text->find("sans_serve_requests_total{type=\"topk\"} 1"),
            std::string::npos);
  // Latency histogram families and derived quantiles per type.
  EXPECT_NE(text->find("# TYPE sans_serve_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text->find("sans_serve_request_seconds_bucket{type=\"topk\","),
            std::string::npos);
  EXPECT_NE(text->find("sans_serve_request_seconds_count{type=\"topk\"}"),
            std::string::npos);
  EXPECT_NE(text->find("sans_serve_request_seconds_p99{type=\"topk\"}"),
            std::string::npos);
  // Transport and connection gauges.
  EXPECT_NE(text->find("sans_serve_bytes_read_total"), std::string::npos);
  EXPECT_NE(text->find("sans_serve_active_connections 1"),
            std::string::npos);
}

TEST_F(ServerTest, TopKFilterCountersInMetricsExposition) {
  auto server = StartServer();
  auto client = Connect(server->port());
  // k above the column count: no bucket can supply it, so the query
  // searches every column and reranks at least one.
  ASSERT_TRUE(client->TopK(0, 100).ok());

  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("# TYPE sans_serve_topk_fallback_total counter"),
            std::string::npos);
  EXPECT_NE(text->find("sans_serve_topk_fallback_total 1\n"),
            std::string::npos);
  EXPECT_NE(text->find("# TYPE sans_serve_topk_reranked_total counter"),
            std::string::npos);
  EXPECT_NE(text->find("sans_serve_topk_reranked_total "),
            std::string::npos);
  EXPECT_EQ(text->find("sans_serve_topk_reranked_total 0\n"),
            std::string::npos);
}

TEST_F(ServerTest, MetricsRegistriesAreIsolatedPerServer) {
  auto server_a = StartServer();
  auto server_b = StartServer();
  auto client_a = Connect(server_a->port());
  ASSERT_TRUE(client_a->Ping().ok());

  auto client_b = Connect(server_b->port());
  auto text_b = client_b->Metrics();
  ASSERT_TRUE(text_b.ok());
  // Server B saw no pings; A's traffic must not leak into its registry.
  EXPECT_NE(text_b->find("sans_serve_requests_total{type=\"ping\"} 0"),
            std::string::npos);
}

}  // namespace
}  // namespace sans
