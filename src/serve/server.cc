#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace sans {

Status ServerConfig::Validate() const {
  if (num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (max_top_k < 1) {
    return Status::InvalidArgument("max_top_k must be >= 1");
  }
  if (poll_interval_ms < 1) {
    return Status::InvalidArgument("poll_interval_ms must be >= 1");
  }
  return Status::OK();
}

namespace {

void SetRecvTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Label value per RequestType, indexable by the enum.
constexpr const char* kTypeLabels[] = {"ping",    "topk",   "pair",
                                       "stats",   "metrics", "reload",
                                       "invalid"};

}  // namespace

Server::Server(std::shared_ptr<const SimilarityIndex> index,
               const ServerConfig& config)
    : config_(config), index_(std::move(index)) {
  for (int t = 0; t < kNumRequestTypes; ++t) {
    const std::string label = std::string("{type=\"") + kTypeLabels[t] + "\"}";
    per_type_[t].requests =
        metrics_.GetCounter("sans_serve_requests_total" + label);
    per_type_[t].latency =
        metrics_.GetHistogram("sans_serve_request_seconds" + label);
  }
  errors_ = metrics_.GetCounter("sans_serve_errors_total");
  bytes_read_ = metrics_.GetCounter("sans_serve_bytes_read_total");
  bytes_written_ = metrics_.GetCounter("sans_serve_bytes_written_total");
  reloads_ = metrics_.GetCounter("sans_serve_index_reloads_total");
  topk_fallbacks_ = metrics_.GetCounter("sans_serve_topk_fallback_total");
  topk_reranked_ = metrics_.GetCounter("sans_serve_topk_reranked_total");
  active_connections_ = metrics_.GetGauge("sans_serve_active_connections");
}

Result<std::unique_ptr<Server>> Server::Start(
    std::shared_ptr<const SimilarityIndex> index, const ServerConfig& config) {
  if (index == nullptr) {
    return Status::InvalidArgument("server needs a loaded index");
  }
  SANS_RETURN_IF_ERROR(config.Validate());

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  const int enable = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  if (inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("cannot parse bind address \"" +
                                   config.host + "\"");
  }
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::IOError(
        "bind to " + config.host + ":" + std::to_string(config.port) +
        " failed: " + std::strerror(errno));
    close(fd);
    return status;
  }
  if (listen(fd, 64) != 0) {
    const Status status =
        Status::IOError(std::string("listen failed: ") + std::strerror(errno));
    close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const Status status = Status::IOError(std::string("getsockname failed: ") +
                                          std::strerror(errno));
    close(fd);
    return status;
  }

  std::unique_ptr<Server> server(new Server(std::move(index), config));
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->pool_ = std::make_unique<ThreadPool>(config.num_threads);
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  SANS_LOG(kInfo) << "sans serve listening on " << config.host << ":"
                  << server->port_ << " (" << config.num_threads
                  << " worker threads)";
  return server;
}

Server::~Server() { Stop(); }

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = poll(&pfd, 1, config_.poll_interval_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    SetRecvTimeout(conn, config_.poll_interval_ms);
    pool_->Submit([this, conn] { ServeConnection(conn); });
  }
}

void Server::ServeConnection(int fd) {
  active_connections_->Increment();
  ReadFrameOptions options;
  options.cancel = &stopping_;
  options.retry_timeouts_midframe = true;
  std::vector<unsigned char> payload;
  while (!stopping_.load(std::memory_order_acquire)) {
    auto event = ReadFrame(fd, &payload, options);
    if (!event.ok()) {
      // Framing is lost (oversized prefix, mid-frame EOF, socket
      // error): answer with an error frame if the transport still
      // works, then drop the connection — resynchronization inside a
      // byte stream is guesswork.
      errors_->Increment();
      per_type_[kTypeInvalid].requests->Increment();
      const std::vector<unsigned char> error =
          EncodeErrorResponse(event.status());
      if (WriteFrame(fd, error).ok()) {
        bytes_written_->Increment(error.size() + 4);
      }
      break;
    }
    if (*event == FrameEvent::kClosed) break;
    if (*event == FrameEvent::kTimeout) continue;  // poll tick
    bytes_read_->Increment(payload.size() + 4);  // +4: length prefix

    Stopwatch watch;
    RequestType type = kTypeInvalid;
    const std::vector<unsigned char> response = HandleRequest(payload, &type);
    per_type_[type].latency->Record(watch.ElapsedSeconds());
    per_type_[type].requests->Increment();
    if (!WriteFrame(fd, response).ok()) break;
    bytes_written_->Increment(response.size() + 4);
  }
  close(fd);
  active_connections_->Decrement();
}

std::vector<unsigned char> Server::HandleRequest(
    std::span<const unsigned char> payload, RequestType* type) {
  WireReader reader(payload);
  const auto fail = [this](const Status& status) {
    errors_->Increment();
    return EncodeErrorResponse(status);
  };

  *type = kTypeInvalid;
  auto opcode = reader.GetU8();
  if (!opcode.ok()) return fail(opcode.status());

  switch (static_cast<Opcode>(*opcode)) {
    case Opcode::kPing: {
      *type = kTypePing;
      const Status trailing = reader.ExpectEnd();
      if (!trailing.ok()) return fail(trailing);
      return EncodeOkResponse();
    }
    case Opcode::kTopK: {
      *type = kTypeTopK;
      auto request = DecodeTopKRequest(&reader);
      if (!request.ok()) return fail(request.status());
      if (request->k == 0 || request->k > config_.max_top_k) {
        return fail(Status::InvalidArgument(
            "k must lie in [1, " + std::to_string(config_.max_top_k) +
            "], got " + std::to_string(request->k)));
      }
      const QueryEngine engine(Index());
      TopKInfo info;
      auto neighbors = engine.TopK(request->col,
                                   static_cast<int>(request->k),
                                   request->min_similarity, &info);
      if (!neighbors.ok()) return fail(neighbors.status());
      if (info.fallback_scan) topk_fallbacks_->Increment();
      topk_reranked_->Increment(info.reranked);
      return EncodeTopKResponse(*neighbors);
    }
    case Opcode::kPairSimilarity: {
      *type = kTypePair;
      auto request = DecodePairSimilarityRequest(&reader);
      if (!request.ok()) return fail(request.status());
      const QueryEngine engine(Index());
      auto similarity = engine.PairSimilarity(request->first, request->second);
      if (!similarity.ok()) return fail(similarity.status());
      return EncodePairSimilarityResponse(*similarity);
    }
    case Opcode::kStats: {
      *type = kTypeStats;
      const Status trailing = reader.ExpectEnd();
      if (!trailing.ok()) return fail(trailing);
      return EncodeStatsResponse(Stats());
    }
    case Opcode::kMetrics: {
      *type = kTypeMetrics;
      const Status trailing = reader.ExpectEnd();
      if (!trailing.ok()) return fail(trailing);
      return EncodeMetricsResponse(MetricsText());
    }
    case Opcode::kReload: {
      *type = kTypeReload;
      auto path = DecodeReloadRequest(&reader);
      if (!path.ok()) return fail(path.status());
      if (!config_.allow_reload) {
        return fail(Status::InvalidArgument(
            "reload is disabled on this server (start with --allow_reload)"));
      }
      auto index = SimilarityIndex::Load(*path);
      if (!index.ok()) return fail(index.status());
      Reload(std::make_shared<const SimilarityIndex>(std::move(*index)));
      return EncodeReloadResponse(epoch_.load(std::memory_order_acquire));
    }
  }
  return fail(Status::InvalidArgument("unknown opcode " +
                                      std::to_string(*opcode)));
}

std::shared_ptr<const SimilarityIndex> Server::Index() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return index_;
}

void Server::Reload(std::shared_ptr<const SimilarityIndex> index) {
  SANS_CHECK(index != nullptr);
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    index_ = std::move(index);
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  reloads_->Increment();
  SANS_LOG(kInfo) << "index reloaded, now epoch "
                  << epoch_.load(std::memory_order_acquire);
}

ServerStatsSnapshot Server::Stats() const {
  ServerStatsSnapshot stats;
  // The wire snapshot aggregates over request types; the full per-type
  // breakdown travels through kMetrics instead.
  LatencyHistogram merged;
  for (const TypeInstruments& type : per_type_) {
    stats.requests += type.requests->Value();
    merged.MergeFrom(*type.latency);
  }
  stats.errors = errors_->Value();
  stats.reloads = reloads_->Value();
  stats.epoch = epoch_.load(std::memory_order_acquire);
  stats.p50_seconds = merged.P50();
  stats.p95_seconds = merged.P95();
  stats.p99_seconds = merged.P99();
  return stats;
}

std::string Server::MetricsText() const { return metrics_.RenderText(); }

void Server::Stop() {
  // Serialize concurrent Stop() calls (e.g. explicit Stop then the
  // destructor); only the first does the teardown.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drains queued connection tasks (each exits fast on stopping_) and
  // joins the workers.
  pool_.reset();
  const ServerStatsSnapshot final_stats = Stats();
  LatencyHistogram merged;
  for (const TypeInstruments& type : per_type_) {
    merged.MergeFrom(*type.latency);
  }
  SANS_LOG(kInfo) << "sans serve drained: " << final_stats.requests
                  << " requests served, " << final_stats.errors
                  << " errors; latency " << merged.ToString();
}

}  // namespace sans
