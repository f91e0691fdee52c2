// The rtb_server admission/coalescing loop.
//
// One thread runs the reactor: an epoll(7) loop accepts connections, reads
// pipelined frames (net/protocol.h) into per-connection buffers, and parks
// each decoded request in an admission queue. The queue drains into ONE
// executor run when either bound of the coalescing window trips —
// `max_batch` requests are waiting, or the oldest has waited `max_wait_us`
// — so the effective batch size, and with it the effective buffer hit rate
// (DESIGN.md §10), scales with *server load* rather than with any single
// client's pipelining depth. A drain executes in a fixed order:
//
//   1. updates   — one UpdateBatchExecutor::Run over every INSERT/DELETE
//                  in arrival order; with a WAL attached the run commits
//                  (group-commit window applies) before any reply is
//                  encoded, so an acked update is logged-committed. Its
//                  page reads (the descent levels and the read round of the
//                  target pages) run on the same workers as the searches;
//                  every change to the tree stays on the serving thread;
//   2. searches  — one BatchExecutor::Run over every SEARCH rectangle and
//                  every KNN, observing this drain's updates. A KNN rides
//                  the same level pass as the square of the radius
//                  ServingStack::knn_radius() expects to hold k objects;
//                  one whose k-th neighbour may lie outside its square
//                  takes another pass. Each tree level's page runs are
//                  bucketed by buffer shard, and ServerOptions::
//                  search_workers threads (the serving thread and parked
//                  helpers of one rtree::LevelScheduler) claim the shards;
//                  the serving thread waits for the level to finish;
//   3. stats     — answered from the counters after 1-2.
//
// Everything but the level walks — admission, applying updates, STATS and
// reply encoding — runs on the serving thread.
//
// Replies are encoded into per-connection output buffers and flushed with
// nonblocking writes (EPOLLOUT on short writes), out-of-order across
// request ids by construction.
//
// Backpressure is a two-level pause/resume state machine on EPOLLIN
// interest:
//   * per-connection: a connection with `max_inflight` unanswered requests
//     stops being read until a drain answers some;
//   * global: when the admission queue reaches `max_queue` no connection
//     is read until the next drain.
// Paused connections keep their already-buffered bytes; nothing is dropped.
//
// Shutdown: RequestShutdown() (async-signal-safe — it writes one byte to a
// self-pipe) makes Serve() stop accepting, drain the admission queue
// through the normal executor path, flush every reply, close the
// connections and return. The caller then closes the ServingStack in the
// PR 8 pool -> wal -> store order.

#ifndef RTB_NET_SERVER_H_
#define RTB_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "net/serving.h"
#include "report/json.h"
#include "rtree/batch.h"
#include "rtree/level_scheduler.h"
#include "rtree/update_batch.h"
#include "util/result.h"

namespace rtb::net {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with port()).
  uint16_t port = 0;
  /// Coalescing window: a drain fires at `max_batch` admitted requests ...
  uint32_t max_batch = 256;
  /// ... or when the oldest admitted request has waited this long.
  uint64_t max_wait_us = 500;
  /// Per-connection inflight bound (requests admitted or queued but not
  /// yet replied); reads pause at the bound.
  uint32_t max_inflight = 1024;
  /// Global admission-queue bound; all reads pause at the bound.
  uint32_t max_queue = 4096;
  /// listen(2) backlog.
  int backlog = 256;
  /// Threads each drain's tree levels run on — the search levels and the
  /// update reads (the serving thread plus search_workers - 1 helpers;
  /// clamped to the pool's shard count).
  size_t search_workers = rtree::DefaultSearchWorkers();
};

/// p50/p99 request latency from a log-scale microsecond histogram
/// (admission to reply-encoded; the flush to the socket is not included).
struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t samples = 0;
};

/// Global counters over the server's lifetime.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t replies_sent = 0;       // Encoded reply frames.
  uint64_t protocol_errors = 0;    // Typed error replies sent.
  uint64_t malformed_disconnects = 0;
  uint64_t requests_admitted = 0;
  uint64_t batches = 0;            // Admission drains executed.
  uint64_t searches = 0;
  uint64_t knns = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t stats_requests = 0;
  uint64_t pauses = 0;             // Read-pause transitions (either level).
  rtree::BatchStats search_batch;  // BatchExecutor accumulation.
  rtree::UpdateBatchStats update_batch;
  LatencySummary latency;

  double EffectiveBatch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests_admitted) /
                              static_cast<double>(batches);
  }
};

class Server {
 public:
  /// `stack` is not owned and must outlive the server.
  Server(ServingStack* stack, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:port, listens, and sets up epoll + the shutdown pipe.
  Status Start();

  /// The bound port (valid after Start; equals options.port unless 0).
  uint16_t port() const { return port_; }

  /// Threads the tree levels run on (search_workers after clamping).
  size_t search_workers() const { return scheduler_->workers(); }

  /// Runs the admission loop until RequestShutdown(). Returns OK after a
  /// graceful drain; an error only for unrecoverable executor/epoll
  /// failures (per-connection socket errors just close that connection).
  Status Serve();

  /// Async-signal-safe shutdown trigger (usable from a signal handler and
  /// from other threads).
  void RequestShutdown();

  /// Snapshot of the global counters. Single-threaded like Serve(); call
  /// between Serve() returning, or from within the serving thread.
  ServerStats stats() const { return stats_; }

  /// The STATS reply document: server counters plus the stack's
  /// BufferStats (hit rate) and WAL counters.
  report::JsonDict StatsJson() const;

 private:
  struct Connection {
    int fd = -1;
    std::vector<uint8_t> in;    // Unconsumed received bytes.
    std::vector<uint8_t> out;   // Encoded, not yet written reply bytes.
    size_t out_off = 0;         // Prefix of `out` already written.
    uint32_t inflight = 0;      // Admitted, not yet replied.
    bool paused = false;        // EPOLLIN interest removed.
    bool want_write = false;    // EPOLLOUT interest registered.
    bool closing = false;       // Close after the out buffer flushes.
  };

  struct Pending {
    int fd = -1;  // Owning connection (key into conns_).
    Request req;
    std::chrono::steady_clock::time_point admitted;
  };

  // Epoll loop bodies.
  Status HandleAccept();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  // Decodes every complete frame in conn->in; admits requests, encodes
  // typed error replies, or marks the connection closing on a malformed
  // header.
  void DrainInput(Connection* conn);
  // Nonblocking flush of conn->out; registers/unregisters EPOLLOUT.
  void FlushOutput(Connection* conn);
  // Marks the connection dead (fd = -1, erased from conns_, queued requests
  // abandoned) and parks it in dead_conns_. The close(2) and destruction
  // happen in ReapDeadConnections() so that callers up the stack can keep
  // dereferencing `conn` (checking fd < 0), and so the kernel cannot reuse
  // the fd number for a new connection within the same event batch.
  void CloseConnection(int fd);
  // Closes and destroys dead connections; re-arms the listener if accept
  // was paused on fd exhaustion. Called once per event-loop iteration.
  void ReapDeadConnections();

  // Executes the admission queue as one coalesced drain (the fixed
  // updates -> searches and kNN -> stats order above), encodes the replies
  // and flushes each touched connection.
  Status ExecuteDrain();

  // Pause/resume reads (per-connection and global); no-ops when already in
  // the requested state.
  void UpdateReadInterest(Connection* conn);
  void RecomputeAllReadInterest();

  void RecordLatency(std::chrono::steady_clock::time_point admitted,
                     std::chrono::steady_clock::time_point now);

  ServingStack* stack_;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_requested_{false};
  // Listener removed from the epoll set after EMFILE/ENFILE (re-added when
  // a connection close frees an fd); level-triggered epoll would otherwise
  // busy-spin on the pending connection we cannot accept.
  bool accept_paused_ = false;

  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  // Connections closed this iteration: (os fd still open, dead object).
  std::vector<std::pair<int, std::unique_ptr<Connection>>> dead_conns_;
  std::vector<Pending> queue_;
  // One level scheduler for both executors: its helpers serve the search
  // levels and the update reads.
  std::unique_ptr<rtree::LevelScheduler> scheduler_;
  std::unique_ptr<rtree::BatchExecutor> search_exec_;
  std::unique_ptr<rtree::UpdateBatchExecutor> update_exec_;

  ServerStats stats_;
  // Log-scale (power-of-sqrt2) microsecond histogram behind the latency
  // percentiles.
  static constexpr size_t kLatencyBuckets = 64;
  uint64_t latency_hist_[kLatencyBuckets] = {};

  // Reused scratch for ExecuteDrain.
  std::vector<size_t> drain_updates_;
  std::vector<size_t> drain_searches_;
  std::vector<size_t> drain_knns_;
  std::vector<size_t> drain_stats_;
  std::vector<geom::Rect> search_rects_;
  std::vector<std::vector<rtree::ObjectId>> search_results_;
  std::vector<rtree::KnnQuery> knn_queries_;
  std::vector<std::vector<rtree::Neighbor>> knn_results_;
  std::vector<WireNeighbor> wire_neighbors_;
  std::vector<rtree::UpdateOp> update_ops_;
  std::vector<uint8_t> update_found_;
};

}  // namespace rtb::net

#endif  // RTB_NET_SERVER_H_
