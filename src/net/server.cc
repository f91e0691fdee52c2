#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/macros.h"

namespace rtb::net {
namespace {

constexpr size_t kReadChunk = 64 * 1024;

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

// Bucket index for the log-scale latency histogram: two buckets per
// doubling of microseconds.
size_t LatencyBucket(uint64_t us) {
  if (us == 0) return 0;
  const int bits = 63 - __builtin_clzll(us);
  const size_t half = (us >> (bits > 0 ? bits - 1 : 0)) & 1;
  const size_t idx = static_cast<size_t>(bits) * 2 + half;
  return std::min(idx, size_t{63});
}

// Representative value (bucket midpoint) for percentile reporting.
double BucketValueUs(size_t idx) {
  const double lo = idx == 0 ? 0.0 : std::exp2(static_cast<double>(idx) / 2.0);
  const double hi = std::exp2(static_cast<double>(idx + 1) / 2.0);
  return (lo + hi) / 2.0;
}

double Percentile(const uint64_t* hist, size_t buckets, uint64_t total,
                  double p) {
  if (total == 0) return 0.0;
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(total)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets; ++i) {
    seen += hist[i];
    if (seen >= target) return BucketValueUs(i);
  }
  return BucketValueUs(buckets - 1);
}

}  // namespace

Server::Server(ServingStack* stack, ServerOptions options)
    : stack_(stack), options_(options) {
  options_.max_batch = std::max<uint32_t>(1, options_.max_batch);
  options_.max_inflight = std::max<uint32_t>(1, options_.max_inflight);
  options_.max_queue = std::max(options_.max_queue, options_.max_batch);
  scheduler_ = std::make_unique<rtree::LevelScheduler>(
      stack->pool(), options_.search_workers);
  search_exec_ = std::make_unique<rtree::BatchExecutor>(stack->tree(),
                                                        scheduler_.get());
  update_exec_ = std::make_unique<rtree::UpdateBatchExecutor>(
      stack->tree(), scheduler_.get());
}

Server::~Server() {
  for (auto& [fd, conn] : conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  conns_.clear();
  for (auto& [fd, conn] : dead_conns_) close(fd);
  dead_conns_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
}

Status Server::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    return Errno("bind");
  }
  if (listen(listen_fd_, options_.backlog) < 0) return Errno("listen");

  socklen_t len = sizeof addr;
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  if (pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) < 0) return Errno("pipe2");

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_pipe_[0];
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev) < 0) {
    return Errno("epoll_ctl(wake pipe)");
  }
  return Status::OK();
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  // A full pipe already guarantees a pending wakeup, so EAGAIN is fine.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = write(wake_pipe_[1], &byte, 1);
}

Status Server::Serve() {
  epoll_event events[128];
  while (true) {
    const bool stopping = shutdown_requested_.load(std::memory_order_acquire);
    // The coalescing window: with requests queued, sleep only until the
    // oldest one's deadline; idle, sleep until a socket or the wake pipe
    // fires. Shutdown drains whatever is queued immediately.
    int timeout_ms = -1;
    if (!queue_.empty()) {
      if (stopping || queue_.size() >= options_.max_batch) {
        timeout_ms = 0;
      } else {
        const auto deadline =
            queue_.front().admitted + std::chrono::microseconds(
                                          options_.max_wait_us);
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          timeout_ms = 0;
        } else {
          const auto left = std::chrono::duration_cast<std::chrono::
              milliseconds>(deadline - now).count();
          // Round up so a sub-millisecond remainder does not busy-spin.
          timeout_ms = static_cast<int>(left) + 1;
        }
      }
    }

    const int n =
        epoll_wait(epoll_fd_, events, 128, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_pipe_[0]) {
        char buf[64];
        while (read(wake_pipe_[0], buf, sizeof buf) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        if (!shutdown_requested_.load(std::memory_order_acquire)) {
          RTB_RETURN_IF_ERROR(HandleAccept());
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // Closed by an earlier event.
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(fd);
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
      if (conns_.find(fd) == conns_.end()) continue;
      if (events[i].events & EPOLLIN) HandleReadable(conn);
    }

    // Drain when a window bound tripped (or on the shutdown path).
    const bool stop_now =
        shutdown_requested_.load(std::memory_order_acquire);
    while (queue_.size() >= options_.max_batch ||
           (!queue_.empty() &&
            (stop_now ||
             std::chrono::steady_clock::now() - queue_.front().admitted >=
                 std::chrono::microseconds(options_.max_wait_us)))) {
      RTB_RETURN_IF_ERROR(ExecuteDrain());
    }

    if (stop_now) {
      while (!queue_.empty()) RTB_RETURN_IF_ERROR(ExecuteDrain());
      // Flush remaining replies with blocking-ish retries, then leave.
      // Snapshot the fds first: FlushOutput can close (and so erase) a
      // connection, which would invalidate a live conns_ iterator.
      std::vector<int> fds;
      fds.reserve(conns_.size());
      for (auto& [fd, conn] : conns_) fds.push_back(fd);
      for (const int fd : fds) {
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Connection* conn = it->second.get();
        int spins = 0;
        while (conn->fd >= 0 && conn->out_off < conn->out.size() &&
               spins++ < 10000) {
          FlushOutput(conn);
        }
      }
      fds.clear();
      for (auto& [fd, conn] : conns_) fds.push_back(fd);
      for (const int fd : fds) CloseConnection(fd);
      ReapDeadConnections();
      return Status::OK();
    }
    ReapDeadConnections();
  }
}

Status Server::HandleAccept() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      if (errno == ECONNABORTED) continue;  // That one died in the backlog.
      if (errno == EMFILE || errno == ENFILE) {
        // Fd exhaustion: the unaccepted connection keeps EPOLLIN asserted
        // on the listener (level-triggered), so polling it again would
        // busy-spin. Stop watching it until a connection close frees an fd
        // (ReapDeadConnections re-arms).
        if (!accept_paused_) {
          accept_paused_ = true;
          epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        }
        return Status::OK();
      }
      return Errno("accept4");
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close(fd);
      continue;
    }
    conns_[fd] = std::move(conn);
    ++stats_.connections_accepted;
  }
}

void Server::HandleReadable(Connection* conn) {
  // DrainInput below can close the connection (fd < 0 afterwards; the
  // object stays valid until ReapDeadConnections).
  while (conn->fd >= 0 && !conn->paused && !conn->closing) {
    const size_t at = conn->in.size();
    conn->in.resize(at + kReadChunk);
    const ssize_t n = read(conn->fd, conn->in.data() + at, kReadChunk);
    if (n > 0) {
      conn->in.resize(at + static_cast<size_t>(n));
      DrainInput(conn);
      if (static_cast<size_t>(n) < kReadChunk) return;
      continue;
    }
    conn->in.resize(at);
    if (n == 0) {
      // Peer closed its write side. Finish flushing replies, then close.
      if (conn->out_off < conn->out.size() || conn->inflight > 0) {
        conn->closing = true;
        UpdateReadInterest(conn);
      } else {
        CloseConnection(conn->fd);
      }
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(conn->fd);
    return;
  }
}

void Server::DrainInput(Connection* conn) {
  size_t pos = 0;
  while (conn->fd >= 0 && !conn->closing) {
    if (conn->paused) break;
    Frame frame;
    size_t consumed = 0;
    const DecodeResult r = DecodeFrame(conn->in.data() + pos,
                                      conn->in.size() - pos, &frame,
                                      &consumed);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kMalformed) {
      // Framing lost: one error reply (request id 0 — the real id is
      // unknowable) and a flush-then-close.
      ++stats_.malformed_disconnects;
      AppendErrorReply(0, MsgType::kStats,
                       Status::InvalidArgument("malformed frame header"),
                       &conn->out);
      ++stats_.replies_sent;
      conn->closing = true;
      conn->in.clear();
      UpdateReadInterest(conn);
      FlushOutput(conn);
      return;
    }
    pos += consumed;
    ++stats_.frames_received;
    Request req;
    const Status parsed = ParseRequest(frame, &req);
    if (!parsed.ok()) {
      ++stats_.protocol_errors;
      const MsgType t = (frame.type & kReplyBit) == 0 &&
                                frame.type >=
                                    static_cast<uint8_t>(MsgType::kSearch) &&
                                frame.type <=
                                    static_cast<uint8_t>(MsgType::kStats)
                            ? static_cast<MsgType>(frame.type)
                            : MsgType::kStats;
      AppendErrorReply(frame.request_id, t, parsed, &conn->out);
      ++stats_.replies_sent;
      FlushOutput(conn);
      if (conn->fd < 0) return;
      continue;
    }
    queue_.push_back(Pending{conn->fd, req, std::chrono::steady_clock::now()});
    ++conn->inflight;
    ++stats_.requests_admitted;
    if (conn->inflight >= options_.max_inflight ||
        queue_.size() >= options_.max_queue) {
      UpdateReadInterest(conn);
      if (queue_.size() >= options_.max_queue) RecomputeAllReadInterest();
    }
  }
  if (pos > 0) conn->in.erase(conn->in.begin(), conn->in.begin() + pos);
}

void Server::HandleWritable(Connection* conn) { FlushOutput(conn); }

void Server::FlushOutput(Connection* conn) {
  if (conn->fd < 0) return;  // Already closed by a caller up the stack.
  while (conn->out_off < conn->out.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection must surface as EPIPE
    // (close the conn), not as a process-killing SIGPIPE.
    const ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                           conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        epoll_event ev{};
        ev.events = EPOLLOUT | (conn->paused ? 0u : uint32_t{EPOLLIN});
        ev.data.fd = conn->fd;
        epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      }
      return;
    }
    CloseConnection(conn->fd);
    return;
  }
  // Fully flushed: reclaim the buffer and drop EPOLLOUT interest.
  conn->out.clear();
  conn->out_off = 0;
  if (conn->want_write) {
    conn->want_write = false;
    epoll_event ev{};
    ev.events = conn->paused ? 0u : uint32_t{EPOLLIN};
    ev.data.fd = conn->fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  if (conn->closing && conn->inflight == 0) CloseConnection(conn->fd);
}

void Server::CloseConnection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Abandon this connection's queued requests (replies would have nowhere
  // to go); the drained stats only count executed requests.
  if (it->second->inflight > 0) {
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [fd](const Pending& p) { return p.fd == fd; }),
                 queue_.end());
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // Deferred close: mark the object dead and park it until the end of the
  // event-loop iteration. Callers holding `conn` across a FlushOutput /
  // DrainInput that closed it see fd < 0 instead of freed memory, and the
  // kernel cannot hand the fd number to a new accept this iteration.
  it->second->fd = -1;
  dead_conns_.emplace_back(fd, std::move(it->second));
  conns_.erase(it);
  ++stats_.connections_closed;
}

void Server::ReapDeadConnections() {
  if (dead_conns_.empty()) return;
  for (auto& [fd, conn] : dead_conns_) close(fd);
  dead_conns_.clear();
  // Fds were just freed: resume accepting if EMFILE/ENFILE paused it.
  if (accept_paused_) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
      accept_paused_ = false;
    }
  }
}

void Server::UpdateReadInterest(Connection* conn) {
  const bool should_pause = conn->closing ||
                            conn->inflight >= options_.max_inflight ||
                            queue_.size() >= options_.max_queue;
  if (should_pause == conn->paused) return;
  conn->paused = should_pause;
  if (should_pause) ++stats_.pauses;
  epoll_event ev{};
  ev.events = (conn->paused ? 0u : uint32_t{EPOLLIN}) |
              (conn->want_write ? uint32_t{EPOLLOUT} : 0u);
  ev.data.fd = conn->fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  // A resumed connection may already hold complete frames read before the
  // pause; level-triggered epoll only reports fresh socket bytes, so the
  // buffered backlog has to be decoded here or it would never drain.
  if (!conn->paused && !conn->closing && !conn->in.empty()) DrainInput(conn);
}

void Server::RecomputeAllReadInterest() {
  // Snapshot the fds: UpdateReadInterest on a resumed connection re-enters
  // DrainInput, which can close (erase) connections mid-iteration.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    auto it = conns_.find(fd);
    if (it != conns_.end()) UpdateReadInterest(it->second.get());
  }
}

void Server::RecordLatency(std::chrono::steady_clock::time_point admitted,
                           std::chrono::steady_clock::time_point now) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - admitted)
          .count();
  ++latency_hist_[LatencyBucket(static_cast<uint64_t>(std::max<int64_t>(
      0, us)))];
  ++stats_.latency.samples;
}

Status Server::ExecuteDrain() {
  const size_t take = std::min<size_t>(queue_.size(), options_.max_batch);
  if (take == 0) return Status::OK();
  ++stats_.batches;

  drain_updates_.clear();
  drain_searches_.clear();
  drain_knns_.clear();
  drain_stats_.clear();
  for (size_t i = 0; i < take; ++i) {
    switch (queue_[i].req.type) {
      case MsgType::kInsert:
      case MsgType::kDelete:
        drain_updates_.push_back(i);
        break;
      case MsgType::kSearch:
        drain_searches_.push_back(i);
        break;
      case MsgType::kKnn:
        drain_knns_.push_back(i);
        break;
      case MsgType::kStats:
        drain_stats_.push_back(i);
        break;
    }
  }

  auto conn_of = [this](int fd) -> Connection* {
    auto it = conns_.find(fd);
    return it == conns_.end() ? nullptr : it->second.get();
  };
  auto replied = [&](const Pending& p, Connection* conn,
                     std::chrono::steady_clock::time_point now) {
    if (conn != nullptr) {
      ++stats_.replies_sent;
      if (conn->inflight > 0) --conn->inflight;
    }
    RecordLatency(p.admitted, now);
  };

  // 1. Updates: one executor run in arrival order; the run WAL-commits
  // (when a log is attached) before returning, so replies encoded after it
  // acknowledge logged-committed state.
  if (!drain_updates_.empty()) {
    update_ops_.clear();
    update_found_.assign(drain_updates_.size(), 0);
    for (const size_t i : drain_updates_) {
      const Request& req = queue_[i].req;
      if (req.type == MsgType::kInsert) {
        update_ops_.push_back(rtree::UpdateOp::Insert(req.rect, req.id));
        ++stats_.inserts;
      } else {
        update_ops_.push_back(rtree::UpdateOp::Delete(req.rect, req.id));
        ++stats_.deletes;
      }
    }
    const Status run = update_exec_->Run(
        std::span<const rtree::UpdateOp>(update_ops_), &stats_.update_batch,
        &update_found_);
    const auto now = std::chrono::steady_clock::now();
    for (size_t u = 0; u < drain_updates_.size(); ++u) {
      const Pending& p = queue_[drain_updates_[u]];
      Connection* conn = conn_of(p.fd);
      if (conn != nullptr) {
        if (!run.ok()) {
          AppendErrorReply(p.req.request_id, p.req.type, run, &conn->out);
          ++stats_.protocol_errors;
        } else if (p.req.type == MsgType::kInsert) {
          AppendInsertReply(p.req.request_id, &conn->out);
        } else {
          AppendDeleteReply(p.req.request_id, update_found_[u] != 0,
                            &conn->out);
        }
      }
      replied(p, conn, now);
    }
    // An executor error can leave the tree partially updated; that is the
    // serial-update contract too, and the error went back to the clients.
  }

  // 2. Searches and kNN: one level-synchronous batch over every SEARCH
  // rectangle and every kNN's square, sized by the density estimate.
  if (!drain_searches_.empty() || !drain_knns_.empty()) {
    search_rects_.clear();
    for (const size_t i : drain_searches_) {
      search_rects_.push_back(queue_[i].req.rect);
    }
    knn_queries_.clear();
    for (const size_t i : drain_knns_) {
      const Request& req = queue_[i].req;
      knn_queries_.push_back(rtree::KnnQuery{
          req.point, req.k, stack_->knn_radius().Estimate(req.point, req.k)});
    }
    const Status run = search_exec_->Run(
        std::span<const geom::Rect>(search_rects_),
        std::span<const rtree::KnnQuery>(knn_queries_), &search_results_,
        &knn_results_, &stats_.search_batch);
    const auto now = std::chrono::steady_clock::now();
    for (size_t s = 0; s < drain_searches_.size(); ++s) {
      const Pending& p = queue_[drain_searches_[s]];
      Connection* conn = conn_of(p.fd);
      if (conn != nullptr) {
        if (!run.ok()) {
          AppendErrorReply(p.req.request_id, MsgType::kSearch, run,
                           &conn->out);
          ++stats_.protocol_errors;
        } else if (sizeof(uint32_t) +
                       search_results_[s].size() * sizeof(uint64_t) >
                   kMaxPayloadBytes) {
          AppendErrorReply(
              p.req.request_id, MsgType::kSearch,
              Status::ResourceExhausted("search result exceeds frame cap"),
              &conn->out);
          ++stats_.protocol_errors;
        } else {
          AppendSearchReply(p.req.request_id, search_results_[s], &conn->out);
        }
      }
      replied(p, conn, now);
      ++stats_.searches;
    }
    // ParseRequest caps k at kMaxKnnK, so a kNN reply always fits a frame.
    for (size_t j = 0; j < drain_knns_.size(); ++j) {
      const Pending& p = queue_[drain_knns_[j]];
      Connection* conn = conn_of(p.fd);
      if (conn != nullptr) {
        if (!run.ok()) {
          AppendErrorReply(p.req.request_id, MsgType::kKnn, run, &conn->out);
          ++stats_.protocol_errors;
        } else {
          wire_neighbors_.clear();
          for (const rtree::Neighbor& nb : knn_results_[j]) {
            wire_neighbors_.push_back(WireNeighbor{nb.id, nb.distance});
          }
          AppendKnnReply(p.req.request_id, wire_neighbors_, &conn->out);
        }
      }
      replied(p, conn, now);
      ++stats_.knns;
    }
  }

  // 3. STATS: answered after the drain's work so the counters include it.
  for (const size_t i : drain_stats_) {
    const Pending& p = queue_[i];
    Connection* conn = conn_of(p.fd);
    const auto now = std::chrono::steady_clock::now();
    ++stats_.stats_requests;
    if (conn != nullptr) {
      AppendStatsReply(p.req.request_id, StatsJson().ToString(), &conn->out);
    }
    replied(p, conn, now);
  }

  queue_.erase(queue_.begin(), queue_.begin() + take);

  // Fan the replies out and re-admit paused readers.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection* conn = (it++)->second.get();
    if (!conn->out.empty()) FlushOutput(conn);
  }
  RecomputeAllReadInterest();
  return Status::OK();
}

report::JsonDict Server::StatsJson() const {
  report::JsonDict doc;
  doc.PutStr("report", "rtb-serve");
  // Optional-feature bitmask (net/protocol.h): clients probe this before
  // sending frames old servers would reject, e.g. open-bound SEARCH.
  doc.PutInt("capabilities", kServerCapabilities);
  report::JsonDict server;
  server.PutInt("connections_accepted", stats_.connections_accepted);
  server.PutInt("connections_closed", stats_.connections_closed);
  server.PutInt("frames_received", stats_.frames_received);
  server.PutInt("replies_sent", stats_.replies_sent);
  server.PutInt("protocol_errors", stats_.protocol_errors);
  server.PutInt("malformed_disconnects", stats_.malformed_disconnects);
  server.PutInt("requests_admitted", stats_.requests_admitted);
  server.PutInt("batches", stats_.batches);
  server.PutNum("effective_batch", stats_.EffectiveBatch());
  server.PutInt("searches", stats_.searches);
  server.PutInt("knns", stats_.knns);
  server.PutInt("inserts", stats_.inserts);
  server.PutInt("deletes", stats_.deletes);
  server.PutInt("stats_requests", stats_.stats_requests);
  server.PutInt("pauses", stats_.pauses);
  server.PutNum("latency_p50_us",
                Percentile(latency_hist_, kLatencyBuckets,
                           stats_.latency.samples, 0.50));
  server.PutNum("latency_p99_us",
                Percentile(latency_hist_, kLatencyBuckets,
                           stats_.latency.samples, 0.99));
  server.PutInt("latency_samples", stats_.latency.samples);
  doc.PutDict("server", std::move(server));

  report::JsonDict batch;
  batch.PutInt("search_workers", scheduler_->workers());
  // What the level scheduler did: levels split over the workers, shards
  // each worker claimed (the serving thread first), and the serving
  // thread's wait at those levels' barriers.
  const rtree::SchedulerStats sched = scheduler_->stats();
  batch.PutInt("parallel_levels", sched.parallel_levels);
  batch.PutIntArray("shard_claims", sched.shard_claims);
  batch.PutInt("barrier_wait_us", sched.barrier_wait_us);
  batch.PutInt("search_node_accesses", stats_.search_batch.node_accesses);
  batch.PutInt("search_page_visits", stats_.search_batch.page_visits);
  // Rounds per kNN is knn_rounds / server.knns; a round is one level pass.
  batch.PutInt("knn_rounds", stats_.search_batch.knn_rounds);
  batch.PutInt("knn_candidates", stats_.search_batch.knn_candidates);
  batch.PutInt("update_inserts", stats_.update_batch.inserts);
  batch.PutInt("update_deletes_found", stats_.update_batch.deletes_found);
  batch.PutInt("update_deletes_missing", stats_.update_batch.deletes_missing);
  batch.PutInt("update_node_accesses", stats_.update_batch.node_accesses);
  batch.PutInt("update_pages_mutated", stats_.update_batch.pages_mutated);
  batch.PutInt("update_splits", stats_.update_batch.splits);
  batch.PutInt("update_condensed", stats_.update_batch.condensed_nodes);
  batch.PutInt("update_passes", stats_.update_batch.passes);
  batch.PutInt("update_commits", stats_.update_batch.commits);
  doc.PutDict("executor", std::move(batch));

  const storage::BufferStats bs = stack_->pool()->AggregateStats();
  report::JsonDict pool;
  pool.PutInt("requests", bs.requests);
  pool.PutInt("hits", bs.hits);
  pool.PutInt("misses", bs.misses);
  pool.PutInt("evictions", bs.evictions);
  pool.PutInt("writebacks", bs.writebacks);
  pool.PutNum("hit_rate", bs.HitRate());
  pool.PutInt("shards", stack_->pool()->num_shards());
  // Shard-lock acquisitions that found the lock held: the workers walk
  // disjoint shards within a level, so this stays near 0.
  pool.PutInt("lock_waits", stack_->pool()->lock_waits());
  doc.PutDict("pool", std::move(pool));

  if (stack_->wal_active()) {
    const storage::WalStats ws = stack_->wal_stats();
    report::JsonDict wal;
    wal.PutInt("records", ws.records);
    wal.PutInt("bytes", ws.bytes);
    wal.PutInt("commits", ws.commits);
    wal.PutInt("fsyncs", ws.fsyncs);
    // Frames the no-steal pool took beyond capacity (0 when every update
    // drain's slices fit).
    wal.PutInt("spare_frames", bs.spare_frames);
    doc.PutDict("wal", std::move(wal));
  }
  return doc;
}

}  // namespace rtb::net
