// End-to-end tests for the coalescing server (net/server.h): wire-level
// round-trips, the coalescing determinism contract (N concurrent clients
// produce the same node accesses and BufferStats as one offline
// BatchExecutor run over the same request multiset, kNNs included), the
// KNN k cap at the reply frame, backpressure,
// protocol-error handling on a live socket, and the graceful-shutdown
// fix-path (drain + WAL checkpoint + PR 8 close order => a clean,
// nothing-to-redo log under OpenWithRecovery).
//
// The serve loop runs on a std::thread; clients run on the test thread (or
// their own). Everything joins before stats are read, so the suite is
// TSan-clean by construction — the only cross-thread edges are the socket
// and Server::RequestShutdown's atomic + self-pipe.

#include "net/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/serving.h"
#include "rtree/batch.h"
#include "rtree/knn.h"
#include "rtree/node.h"
#include "rtree/update_batch.h"
#include "rtree/validate.h"
#include "storage/buffer_pool.h"
#include "storage/file_page_store.h"
#include "util/rng.h"

namespace rtb::net {
namespace {

using geom::Point;
using geom::Rect;

engine::ExperimentSpec SmallSpec(uint64_t n = 2000, uint64_t pool_pages = 16) {
  engine::ExperimentSpec spec;
  spec.name = "server_test";
  spec.dataset.kind = "uniform";
  spec.dataset.n = n;
  spec.dataset.seed = 7;
  spec.tree.fanout = 25;
  spec.pool.buffer_pages = pool_pages;
  spec.run.seed = 1;
  return spec;
}

// Starts `server` on a background thread; the destructor (or Stop) shuts
// it down and joins.
class ServeThread {
 public:
  explicit ServeThread(Server* server) : server_(server) {
    thread_ = std::thread([this] { status_ = server_->Serve(); });
  }
  ~ServeThread() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
  }

  const Status& status() const { return status_; }

 private:
  Server* server_;
  std::thread thread_;
  Status status_;
};

std::vector<Rect> MakeQueries(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double x = rng.NextDouble() * 0.95;
    const double y = rng.NextDouble() * 0.95;
    queries.push_back(Rect(x, y, x + 0.03, y + 0.03));
  }
  return queries;
}

TEST(ServerTest, RoundTripsEveryRequestType) {
  auto stack = ServingStack::Open(SmallSpec());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  ServerOptions options;
  options.max_batch = 8;
  options.max_wait_us = 200;
  Server server(stack->get(), options);
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Insert a recognizable point, search it, kNN it, delete it, re-delete
  // (must miss), and fetch stats.
  const Rect probe(0.111, 0.222, 0.111, 0.222);
  ASSERT_TRUE((*client)->Insert(probe, 999'999).ok());

  auto found = (*client)->Search(Rect(0.11, 0.22, 0.112, 0.223));
  ASSERT_TRUE(found.ok());
  EXPECT_NE(std::find(found->begin(), found->end(), 999'999), found->end());

  const uint64_t knn_id = (*client)->QueueKnn(Point{0.111, 0.222}, 1);
  auto knn = (*client)->WaitFor(knn_id);
  ASSERT_TRUE(knn.ok());
  ASSERT_TRUE(knn->ok());
  ASSERT_EQ(knn->neighbors.size(), 1u);
  EXPECT_EQ(knn->neighbors[0].id, 999'999u);
  EXPECT_EQ(knn->neighbors[0].distance, 0.0);

  auto deleted = (*client)->Delete(probe, 999'999);
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(*deleted);
  deleted = (*client)->Delete(probe, 999'999);
  ASSERT_TRUE(deleted.ok());
  EXPECT_FALSE(*deleted);

  const uint64_t stats_id = (*client)->QueueStats();
  auto stats = (*client)->WaitFor(stats_id);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->ok());
  EXPECT_NE(stats->text.find("\"report\": \"rtb-serve\""), std::string::npos);
  EXPECT_NE(stats->text.find("\"hit_rate\""), std::string::npos);

  serving.Stop();
  EXPECT_TRUE(serving.status().ok()) << serving.status().ToString();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.deletes, 2u);
  EXPECT_EQ(s.searches, 1u);
  EXPECT_EQ(s.knns, 1u);
  EXPECT_EQ(s.stats_requests, 1u);
  EXPECT_EQ(s.replies_sent, 6u);
  ASSERT_TRUE((*stack)->Close().ok());
}

// An open-bound SEARCH (partial match: one axis lo=-inf, hi=+inf) must be
// served, must equal the same query with the open axis widened to the full
// data domain, and the capability must be advertised in STATS so clients
// can probe before sending frames old servers reject.
TEST(ServerTest, OpenBoundSearchServedAndAdvertised) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto stack = ServingStack::Open(SmallSpec());
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  Server server(stack->get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // The dataset lives in [0,1]^2, so a finite query spanning the whole x
  // domain is an oracle for the open-x encoding.
  auto open_x = (*client)->Search(Rect(-kInf, 0.4, kInf, 0.45));
  ASSERT_TRUE(open_x.ok()) << open_x.status().ToString();
  auto full_x = (*client)->Search(Rect(0.0, 0.4, 1.0, 0.45));
  ASSERT_TRUE(full_x.ok());
  std::sort(open_x->begin(), open_x->end());
  std::sort(full_x->begin(), full_x->end());
  EXPECT_FALSE(open_x->empty());
  EXPECT_EQ(*open_x, *full_x);

  // A lone infinity is still a typed error, and the connection survives it.
  const uint64_t bad_id =
      (*client)->QueueSearch(Rect(0.1, 0.2, kInf, 0.4));
  auto bad = (*client)->WaitFor(bad_id);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->ok());

  const uint64_t stats_id = (*client)->QueueStats();
  auto stats = (*client)->WaitFor(stats_id);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->ok());
  EXPECT_NE(stats->text.find("\"capabilities\": 1"), std::string::npos);

  serving.Stop();
  EXPECT_TRUE(serving.status().ok()) << serving.status().ToString();
  ASSERT_TRUE((*stack)->Close().ok());
}

// The tentpole contract: N concurrent pipelining clients against a small
// pool produce exactly the node accesses and BufferStats of ONE offline
// BatchExecutor run over the same query multiset. The server is configured
// so the whole multiset coalesces into a single drain (max_batch == total,
// effectively infinite wait); within one batch the executor's sorted
// frontier makes the counters independent of arrival order, which is the
// only thing the threads leave unspecified.
TEST(ServerTest, CoalescedStatsMatchOfflineBatchRun) {
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 32;
  constexpr size_t kTotal = kClients * kPerClient;

  const auto spec = SmallSpec(/*n=*/4000, /*pool_pages=*/12);
  std::vector<std::vector<Rect>> per_client;
  for (size_t c = 0; c < kClients; ++c) {
    per_client.push_back(MakeQueries(kPerClient, 100 + c));
  }

  // Offline oracle: same spec, one executor, one batch of the multiset.
  rtree::BatchStats offline_stats;
  storage::BufferStats offline_pool;
  std::vector<size_t> offline_result_sizes;
  {
    auto stack = ServingStack::Open(spec);
    ASSERT_TRUE(stack.ok());
    std::vector<Rect> all;
    for (const auto& qs : per_client) {
      all.insert(all.end(), qs.begin(), qs.end());
    }
    rtree::BatchExecutor exec((*stack)->tree());
    std::vector<std::vector<rtree::ObjectId>> results;
    ASSERT_TRUE(exec.Run(std::span<const Rect>(all), &results,
                         &offline_stats).ok());
    offline_pool = (*stack)->pool()->AggregateStats();
    for (const auto& r : results) offline_result_sizes.push_back(r.size());
    ASSERT_TRUE((*stack)->Close().ok());
  }

  // Served: the same multiset from 8 threads, coalesced into one drain.
  auto stack = ServingStack::Open(spec);
  ASSERT_TRUE(stack.ok());
  ServerOptions options;
  options.max_batch = kTotal;
  options.max_wait_us = 60'000'000;  // Only the batch bound may trip.
  Server server(stack->get(), options);
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  std::vector<size_t> served_result_sizes(kTotal);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(server.port());
      ASSERT_TRUE(client.ok());
      std::vector<uint64_t> ids;
      for (const Rect& q : per_client[c]) {
        ids.push_back((*client)->QueueSearch(q));
      }
      ASSERT_TRUE((*client)->Flush().ok());
      for (size_t i = 0; i < ids.size(); ++i) {
        auto reply = (*client)->WaitFor(ids[i]);
        ASSERT_TRUE(reply.ok());
        ASSERT_TRUE(reply->ok());
        served_result_sizes[c * kPerClient + i] = reply->ids.size();
      }
    });
  }
  for (auto& t : threads) t.join();
  serving.Stop();
  ASSERT_TRUE(serving.status().ok());

  const ServerStats s = server.stats();
  EXPECT_EQ(s.requests_admitted, kTotal);
  EXPECT_EQ(s.batches, 1u) << "the whole multiset must coalesce";
  EXPECT_EQ(s.search_batch.node_accesses, offline_stats.node_accesses);
  EXPECT_EQ(s.search_batch.page_visits, offline_stats.page_visits);

  const storage::BufferStats served_pool = (*stack)->pool()->AggregateStats();
  EXPECT_EQ(served_pool.requests, offline_pool.requests);
  EXPECT_EQ(served_pool.hits, offline_pool.hits);
  EXPECT_EQ(served_pool.misses, offline_pool.misses);
  EXPECT_EQ(served_pool.evictions, offline_pool.evictions);

  // Result multiset sanity: per-query result sizes line up 1:1 (each
  // client's queries are answered in its own submission order).
  std::vector<size_t> sorted_served = served_result_sizes;
  std::sort(sorted_served.begin(), sorted_served.end());
  std::vector<size_t> sorted_offline = offline_result_sizes;
  std::sort(sorted_offline.begin(), sorted_offline.end());
  EXPECT_EQ(sorted_served, sorted_offline);
  ASSERT_TRUE((*stack)->Close().ok());
}

// Collects up to `count` leaf entries of the stack's tree, depth first.
std::vector<rtree::Entry> SomeLeafEntries(ServingStack* stack, size_t count) {
  std::vector<rtree::Entry> out;
  std::vector<storage::PageId> pages{stack->tree()->root()};
  while (!pages.empty() && out.size() < count) {
    auto guard = stack->pool()->Fetch(pages.back());
    pages.pop_back();
    RTB_CHECK(guard.ok());
    auto view = rtree::NodeView::Create(guard->data(),
                                        stack->pool()->page_size());
    RTB_CHECK(view.ok());
    for (uint16_t i = 0; i < view->count(); ++i) {
      if (view->is_leaf()) {
        if (out.size() < count) out.push_back(view->entry(i));
      } else {
        pages.push_back(static_cast<storage::PageId>(view->id(i)));
      }
    }
  }
  return out;
}

// The same contract on a 512-frame serving pool of 16 shards, with updates
// ahead of the searches in the drain: the server runs the update reads and
// each search level over 4 workers, the offline run uses one, and every
// BufferStats counter still agrees exactly, because each shard sees the
// same accesses whatever the worker count. The updates (inserts that split
// leaves, deletes that find their entry and deletes that miss) reach the
// STATS counters exactly as one offline UpdateBatchExecutor run counts them.
// STATS reports the worker, shard, scheduler and lock-wait figures.
TEST(ServerTest, CoalescedStatsMatchOfflineRunAcrossWorkers) {
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 32;
  constexpr size_t kTotal = kClients * kPerClient;

  const auto spec = SmallSpec(/*n=*/40000, /*pool_pages=*/512);
  std::vector<Rect> all;
  for (size_t c = 0; c < kClients; ++c) {
    const std::vector<Rect> qs = MakeQueries(kPerClient, 300 + c);
    all.insert(all.end(), qs.begin(), qs.end());
  }
  std::vector<rtree::UpdateOp> updates;
  {
    auto stack = ServingStack::Open(spec);
    ASSERT_TRUE(stack.ok());
    for (const rtree::Entry& e : SomeLeafEntries(stack->get(), 24)) {
      updates.push_back(rtree::UpdateOp::Delete(e.rect, e.id));
    }
    ASSERT_TRUE((*stack)->Close().ok());
  }
  const std::vector<Rect> fresh = MakeQueries(72, 900);
  for (size_t i = 0; i < fresh.size(); ++i) {
    updates.push_back(rtree::UpdateOp::Insert(fresh[i], 1'000'000 + i));
    if (i % 9 == 0) {
      updates.push_back(rtree::UpdateOp::Delete(fresh[i], 2'000'000 + i));
    }
  }

  rtree::BatchStats offline_stats;
  storage::BufferStats offline_pool;
  rtree::UpdateBatchStats offline_updates;
  std::vector<uint8_t> offline_found;
  {
    auto stack = ServingStack::Open(spec);
    ASSERT_TRUE(stack.ok());
    ASSERT_EQ((*stack)->pool()->num_shards(), 16u);
    rtree::UpdateBatchExecutor update_exec((*stack)->tree());
    ASSERT_TRUE(
        update_exec.Run(updates, &offline_updates, &offline_found).ok());
    rtree::BatchExecutor exec((*stack)->tree(), /*workers=*/1);
    std::vector<std::vector<rtree::ObjectId>> results;
    ASSERT_TRUE(exec.Run(std::span<const Rect>(all), &results,
                         &offline_stats).ok());
    offline_pool = (*stack)->pool()->AggregateStats();
    ASSERT_TRUE((*stack)->Close().ok());
  }
  ASSERT_GT(offline_pool.evictions, 0u) << "the pool must be under pressure";
  ASSERT_GT(offline_updates.splits, 0u);
  ASSERT_GT(offline_updates.deletes_found, 0u);
  ASSERT_GT(offline_updates.deletes_missing, 0u);

  auto stack = ServingStack::Open(spec);
  ASSERT_TRUE(stack.ok());
  ServerOptions options;
  // The searches, the updates and one STATS request.
  options.max_batch = static_cast<uint32_t>(kTotal + updates.size() + 1);
  options.max_wait_us = 60'000'000;  // Only the batch bound may trip.
  options.search_workers = 4;
  Server server(stack->get(), options);
  ASSERT_EQ(server.search_workers(), 4u);
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(server.port());
      ASSERT_TRUE(client.ok());
      std::vector<uint64_t> ids;
      for (size_t i = 0; i < kPerClient; ++i) {
        ids.push_back((*client)->QueueSearch(all[c * kPerClient + i]));
      }
      ASSERT_TRUE((*client)->Flush().ok());
      for (const uint64_t id : ids) {
        auto reply = (*client)->WaitFor(id);
        ASSERT_TRUE(reply.ok());
        ASSERT_TRUE(reply->ok());
      }
    });
  }
  // The updates come from one connection, so the drain runs them in the
  // offline order.
  std::vector<uint8_t> served_found(updates.size(), 0);
  threads.emplace_back([&] {
    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok());
    std::vector<uint64_t> ids;
    for (const rtree::UpdateOp& op : updates) {
      ids.push_back(op.kind == rtree::UpdateOp::Kind::kInsert
                        ? (*client)->QueueInsert(op.rect, op.id)
                        : (*client)->QueueDelete(op.rect, op.id));
    }
    ASSERT_TRUE((*client)->Flush().ok());
    for (size_t i = 0; i < ids.size(); ++i) {
      auto reply = (*client)->WaitFor(ids[i]);
      ASSERT_TRUE(reply.ok());
      ASSERT_TRUE(reply->ok());
      served_found[i] = reply->found ? 1 : 0;
    }
  });
  // STATS rides in the same drain and is answered after the searches.
  std::string stats_text;
  threads.emplace_back([&] {
    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok());
    auto stats = (*client)->WaitFor((*client)->QueueStats());
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(stats->ok());
    stats_text = stats->text;
  });
  for (auto& t : threads) t.join();
  serving.Stop();
  ASSERT_TRUE(serving.status().ok());
  EXPECT_NE(stats_text.find("\"search_workers\": 4"), std::string::npos)
      << stats_text;
  EXPECT_NE(stats_text.find("\"shards\": 16"), std::string::npos);
  EXPECT_NE(stats_text.find("\"lock_waits\": "), std::string::npos);
  EXPECT_NE(stats_text.find("\"shard_claims\": ["), std::string::npos);
  EXPECT_NE(stats_text.find("\"barrier_wait_us\": "), std::string::npos);
  EXPECT_EQ(stats_text.find("\"parallel_levels\": 0"), std::string::npos)
      << "the update reads and the search levels split over the workers";
  EXPECT_NE(stats_text.find("\"update_splits\": " +
                            std::to_string(offline_updates.splits)),
            std::string::npos);
  EXPECT_NE(stats_text.find("\"update_condensed\": " +
                            std::to_string(offline_updates.condensed_nodes)),
            std::string::npos);
  EXPECT_NE(stats_text.find("\"update_passes\": " +
                            std::to_string(offline_updates.passes)),
            std::string::npos);
  EXPECT_NE(stats_text.find("\"update_commits\": 1"), std::string::npos);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.batches, 1u) << "the whole multiset must coalesce";
  EXPECT_EQ(s.search_batch.node_accesses, offline_stats.node_accesses);
  EXPECT_EQ(s.search_batch.page_visits, offline_stats.page_visits);
  const storage::BufferStats served_pool = (*stack)->pool()->AggregateStats();
  EXPECT_EQ(served_pool.requests, offline_pool.requests);
  EXPECT_EQ(served_pool.hits, offline_pool.hits);
  EXPECT_EQ(served_pool.misses, offline_pool.misses);
  EXPECT_EQ(served_pool.evictions, offline_pool.evictions);
  const rtree::UpdateBatchStats& u = s.update_batch;
  EXPECT_EQ(u.inserts, offline_updates.inserts);
  EXPECT_EQ(u.deletes_found, offline_updates.deletes_found);
  EXPECT_EQ(u.deletes_missing, offline_updates.deletes_missing);
  EXPECT_EQ(u.node_accesses, offline_updates.node_accesses);
  EXPECT_EQ(u.pages_mutated, offline_updates.pages_mutated);
  EXPECT_EQ(u.splits, offline_updates.splits);
  EXPECT_EQ(u.condensed_nodes, offline_updates.condensed_nodes);
  EXPECT_EQ(u.passes, offline_updates.passes);
  EXPECT_EQ(u.commits, offline_updates.commits);
  EXPECT_EQ(served_found, offline_found);
  ASSERT_TRUE((*stack)->Close().ok());
}

// SEARCH and KNN in one drain: the server runs both in one level pass over
// 4 workers, and every reply and every counter equals one offline
// single-worker Run over the same rectangles and kNNs, each kNN sized by the
// stack's radius estimator.
TEST(ServerTest, CoalescedSearchAndKnnMatchOfflineRunAcrossWorkers) {
  constexpr size_t kClients = 8;
  constexpr size_t kSearches = 32;
  constexpr size_t kKnns = 8;
  constexpr size_t kTotal = kClients * (kSearches + kKnns);

  const auto spec = SmallSpec(/*n=*/40000, /*pool_pages=*/512);
  std::vector<Rect> rects;
  std::vector<Point> points;
  std::vector<uint32_t> ks;
  Rng rng(77);
  for (size_t c = 0; c < kClients; ++c) {
    const std::vector<Rect> qs = MakeQueries(kSearches, 500 + c);
    rects.insert(rects.end(), qs.begin(), qs.end());
    for (size_t i = 0; i < kKnns; ++i) {
      // Every fourth point lies outside the [0,1]^2 data.
      const double x = rng.NextDouble() * (i % 4 == 3 ? 3.0 : 1.0);
      points.push_back(Point{x, rng.NextDouble()});
      ks.push_back(static_cast<uint32_t>(1 + (c * kKnns + i) * 7 % 64));
    }
  }

  rtree::BatchStats offline_stats;
  storage::BufferStats offline_pool;
  std::vector<std::vector<rtree::ObjectId>> offline_results;
  std::vector<std::vector<rtree::Neighbor>> offline_neighbors;
  {
    auto stack = ServingStack::Open(spec);
    ASSERT_TRUE(stack.ok());
    std::vector<rtree::KnnQuery> knns;
    for (size_t j = 0; j < points.size(); ++j) {
      knns.push_back(rtree::KnnQuery{
          points[j], ks[j], (*stack)->knn_radius().Estimate(points[j], ks[j])});
    }
    rtree::BatchExecutor exec((*stack)->tree(), /*workers=*/1);
    ASSERT_TRUE(exec.Run(std::span<const Rect>(rects),
                         std::span<const rtree::KnnQuery>(knns),
                         &offline_results, &offline_neighbors,
                         &offline_stats)
                    .ok());
    offline_pool = (*stack)->pool()->AggregateStats();
    ASSERT_TRUE((*stack)->Close().ok());
  }
  ASSERT_GT(offline_pool.evictions, 0u) << "the pool must be under pressure";
  ASSERT_GE(offline_stats.knn_rounds, points.size());

  auto stack = ServingStack::Open(spec);
  ASSERT_TRUE(stack.ok());
  ServerOptions options;
  options.max_batch = kTotal + 1;  // The requests and one STATS request.
  options.max_wait_us = 60'000'000;  // Only the batch bound may trip.
  options.search_workers = 4;
  Server server(stack->get(), options);
  ASSERT_EQ(server.search_workers(), 4u);
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  std::vector<std::vector<rtree::ObjectId>> served_results(rects.size());
  std::vector<std::vector<WireNeighbor>> served_neighbors(points.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(server.port());
      ASSERT_TRUE(client.ok());
      std::vector<uint64_t> search_ids, knn_ids;
      for (size_t i = 0; i < kSearches; ++i) {
        search_ids.push_back(
            (*client)->QueueSearch(rects[c * kSearches + i]));
        if (i % 4 == 0) {
          const size_t j = c * kKnns + i / 4;
          knn_ids.push_back((*client)->QueueKnn(points[j], ks[j]));
        }
      }
      ASSERT_TRUE((*client)->Flush().ok());
      for (size_t i = 0; i < kSearches; ++i) {
        auto reply = (*client)->WaitFor(search_ids[i]);
        ASSERT_TRUE(reply.ok());
        ASSERT_TRUE(reply->ok());
        served_results[c * kSearches + i] = reply->ids;
      }
      for (size_t i = 0; i < kKnns; ++i) {
        auto reply = (*client)->WaitFor(knn_ids[i]);
        ASSERT_TRUE(reply.ok());
        ASSERT_TRUE(reply->ok());
        served_neighbors[c * kKnns + i] = reply->neighbors;
      }
    });
  }
  std::string stats_text;
  threads.emplace_back([&] {
    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok());
    auto stats = (*client)->WaitFor((*client)->QueueStats());
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(stats->ok());
    stats_text = stats->text;
  });
  for (auto& t : threads) t.join();
  serving.Stop();
  ASSERT_TRUE(serving.status().ok());

  for (size_t q = 0; q < rects.size(); ++q) {
    std::sort(served_results[q].begin(), served_results[q].end());
    std::sort(offline_results[q].begin(), offline_results[q].end());
    EXPECT_EQ(served_results[q], offline_results[q]) << "search " << q;
  }
  for (size_t j = 0; j < points.size(); ++j) {
    ASSERT_EQ(served_neighbors[j].size(), offline_neighbors[j].size())
        << "kNN " << j;
    for (size_t i = 0; i < served_neighbors[j].size(); ++i) {
      EXPECT_EQ(served_neighbors[j][i].id, offline_neighbors[j][i].id);
      EXPECT_EQ(served_neighbors[j][i].distance,
                offline_neighbors[j][i].distance);
    }
  }

  const ServerStats s = server.stats();
  EXPECT_EQ(s.batches, 1u) << "the whole multiset must coalesce";
  EXPECT_EQ(s.knns, points.size());
  EXPECT_EQ(s.search_batch.node_accesses, offline_stats.node_accesses);
  EXPECT_EQ(s.search_batch.page_visits, offline_stats.page_visits);
  EXPECT_EQ(s.search_batch.knn_rounds, offline_stats.knn_rounds);
  EXPECT_EQ(s.search_batch.knn_candidates, offline_stats.knn_candidates);
  EXPECT_NE(stats_text.find("\"knn_rounds\": " +
                            std::to_string(offline_stats.knn_rounds)),
            std::string::npos)
      << stats_text;
  EXPECT_NE(stats_text.find("\"knn_candidates\": "), std::string::npos);
  const storage::BufferStats served_pool = (*stack)->pool()->AggregateStats();
  EXPECT_EQ(served_pool.requests, offline_pool.requests);
  EXPECT_EQ(served_pool.hits, offline_pool.hits);
  EXPECT_EQ(served_pool.misses, offline_pool.misses);
  EXPECT_EQ(served_pool.evictions, offline_pool.evictions);
  ASSERT_TRUE((*stack)->Close().ok());
}

// The largest k whose reply fits one frame is served; one more is a typed
// error, and the connection keeps its framing.
TEST(ServerTest, KnnKAtTheFrameCap) {
  auto stack = ServingStack::Open(SmallSpec(/*n=*/70000, /*pool_pages=*/64));
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  ServerOptions options;
  options.max_wait_us = 200;
  Server server(stack->get(), options);
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  const Point p{0.3, 0.6};
  auto full = (*client)->WaitFor((*client)->QueueKnn(p, kMaxKnnK));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(full->ok()) << full->text;
  ASSERT_EQ(full->neighbors.size(), kMaxKnnK);

  auto over = (*client)->WaitFor((*client)->QueueKnn(p, kMaxKnnK + 1));
  ASSERT_TRUE(over.ok()) << over.status().ToString();
  EXPECT_FALSE(over->ok());
  EXPECT_NE(over->text.find("KNN k must be <="), std::string::npos)
      << over->text;

  auto after = (*client)->WaitFor((*client)->QueueKnn(p, 3));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after->ok());
  EXPECT_EQ(after->neighbors.size(), 3u);

  serving.Stop();
  ASSERT_TRUE(serving.status().ok());
  const ServerStats s = server.stats();
  EXPECT_EQ(s.protocol_errors, 1u);
  EXPECT_EQ(s.malformed_disconnects, 0u);

  // The served distances are the best-first search's.
  auto oracle = rtree::SearchKnn(*(*stack)->tree(), p, kMaxKnnK);
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(oracle->size(), full->neighbors.size());
  for (size_t i = 0; i < oracle->size(); ++i) {
    ASSERT_EQ(full->neighbors[i].distance, (*oracle)[i].distance) << i;
  }
  ASSERT_TRUE((*stack)->Close().ok());
}

// With many small drains instead of one big one, BufferStats legitimately
// differ (batch boundaries change eviction decisions) but summed logical
// node accesses and per-query results must not.
TEST(ServerTest, NodeAccessesAreBatchBoundaryIndependent) {
  const auto spec = SmallSpec(/*n=*/3000, /*pool_pages=*/12);
  const auto queries = MakeQueries(96, 42);

  rtree::BatchStats offline_stats;
  std::vector<std::vector<rtree::ObjectId>> offline_results;
  {
    auto stack = ServingStack::Open(spec);
    ASSERT_TRUE(stack.ok());
    rtree::BatchExecutor exec((*stack)->tree());
    ASSERT_TRUE(exec.Run(std::span<const Rect>(queries), &offline_results,
                         &offline_stats).ok());
    ASSERT_TRUE((*stack)->Close().ok());
  }

  auto stack = ServingStack::Open(spec);
  ASSERT_TRUE(stack.ok());
  ServerOptions options;
  options.max_batch = 7;  // Forces ragged batch boundaries.
  options.max_wait_us = 100;
  Server server(stack->get(), options);
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  std::vector<uint64_t> ids;
  for (const Rect& q : queries) ids.push_back((*client)->QueueSearch(q));
  ASSERT_TRUE((*client)->Flush().ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto reply = (*client)->WaitFor(ids[i]);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->ok());
    std::vector<rtree::ObjectId> sorted = reply->ids;
    std::sort(sorted.begin(), sorted.end());
    std::vector<rtree::ObjectId> expect = offline_results[i];
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(sorted, expect) << "query " << i;
  }
  serving.Stop();
  ASSERT_TRUE(serving.status().ok());

  const ServerStats s = server.stats();
  EXPECT_GT(s.batches, 1u);
  EXPECT_EQ(s.search_batch.node_accesses, offline_stats.node_accesses);
  ASSERT_TRUE((*stack)->Close().ok());
}

// A connection pipelining far past max_inflight must be paused and
// resumed — every request still answered, pauses observed.
TEST(ServerTest, BackpressurePausesAndResumes) {
  auto stack = ServingStack::Open(SmallSpec());
  ASSERT_TRUE(stack.ok());
  ServerOptions options;
  options.max_batch = 16;
  options.max_wait_us = 200;
  options.max_inflight = 8;
  Server server(stack->get(), options);
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  constexpr size_t kRequests = 300;
  const auto queries = MakeQueries(kRequests, 5);
  std::vector<uint64_t> ids;
  for (const Rect& q : queries) ids.push_back((*client)->QueueSearch(q));
  ASSERT_TRUE((*client)->Flush().ok());
  size_t answered = 0;
  for (const uint64_t id : ids) {
    auto reply = (*client)->WaitFor(id);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->ok());
    ++answered;
  }
  EXPECT_EQ(answered, kRequests);
  serving.Stop();
  ASSERT_TRUE(serving.status().ok());

  const ServerStats s = server.stats();
  EXPECT_EQ(s.searches, kRequests);
  EXPECT_GT(s.pauses, 0u) << "a 300-deep pipeline must trip max_inflight=8";
  ASSERT_TRUE((*stack)->Close().ok());
}

// Typed protocol errors keep the connection alive; a malformed header
// closes it (after an error reply) without taking the server down.
TEST(ServerTest, ProtocolErrorsOverTheWire) {
  auto stack = ServingStack::Open(SmallSpec());
  ASSERT_TRUE(stack.ok());
  ServerOptions options;
  options.max_wait_us = 200;
  Server server(stack->get(), options);
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  {
    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok());
    // Unknown type: typed error reply, connection continues.
    std::vector<uint8_t> raw;
    AppendRawFrame(42, 0, 7, nullptr, 0, &raw);
    (*client)->QueueRaw(raw);
    ASSERT_TRUE((*client)->Flush().ok());
    auto reply = (*client)->ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply->ok());
    EXPECT_EQ(reply->request_id, 7u);
    // The same connection still serves valid requests.
    auto found = (*client)->Search(Rect(0.4, 0.4, 0.45, 0.45));
    EXPECT_TRUE(found.ok());

    // An empty-rect insert is refused at parse time with a typed error.
    const uint64_t bad = (*client)->QueueInsert(Rect(0.9, 0.9, 0.1, 0.1), 5);
    auto bad_reply = (*client)->WaitFor(bad);
    ASSERT_TRUE(bad_reply.ok());
    EXPECT_FALSE(bad_reply->ok());
    EXPECT_EQ(bad_reply->status,
              static_cast<uint8_t>(StatusCode::kInvalidArgument));
  }
  {
    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok());
    // Oversized length prefix: one error reply (id 0), then disconnect.
    std::vector<uint8_t> evil(8, 0xFF);
    (*client)->QueueRaw(evil);
    ASSERT_TRUE((*client)->Flush().ok());
    auto reply = (*client)->ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply->ok());
    EXPECT_EQ(reply->request_id, 0u);
    auto eof = (*client)->ReadReply();
    EXPECT_FALSE(eof.ok());
    EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  }
  // The server survived both and still serves fresh connections.
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Search(Rect(0.2, 0.2, 0.25, 0.25)).ok());

  serving.Stop();
  ASSERT_TRUE(serving.status().ok());
  const ServerStats s = server.stats();
  EXPECT_GE(s.protocol_errors, 2u);
  EXPECT_EQ(s.malformed_disconnects, 1u);
  ASSERT_TRUE((*stack)->Close().ok());
}

// Regression for the deferred-close rework: a client that provokes a burst
// of parse-error replies (each one triggers a FlushOutput mid-DrainInput)
// and then resets the connection (SO_LINGER 0 => RST on close) used to
// make FlushOutput destroy the Connection while DrainInput and
// HandleReadable still held the pointer — a use-after-free the ASan server
// leg watches for. The server must just drop the connection and keep
// serving. The RST's arrival relative to the server's reads is inherently
// racy, so several rounds alternate reset-close with plain close (which
// also RSTs once unread replies are pending).
TEST(ServerTest, ResetDuringErrorBurstSurvives) {
  auto stack = ServingStack::Open(SmallSpec());
  ASSERT_TRUE(stack.ok());
  ServerOptions options;
  options.max_wait_us = 100;
  Server server(stack->get(), options);
  ASSERT_TRUE(server.Start().ok());
  ServeThread serving(&server);

  for (int round = 0; round < 16; ++round) {
    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok());
    std::vector<uint8_t> raw;
    for (uint64_t i = 0; i < 64; ++i) {
      AppendRawFrame(42, 0, i + 1, nullptr, 0, &raw);  // Unknown type.
      AppendSearchRequest(1000 + i, Rect(0.1, 0.1, 0.2, 0.2), &raw);
    }
    (*client)->QueueRaw(raw);
    ASSERT_TRUE((*client)->Flush().ok());
    if (round % 2 == 0) {
      const linger hard{1, 0};
      setsockopt((*client)->fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
    }
    // ~Client closes without reading a single reply.
  }

  // The server survived every reset and still serves fresh connections.
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Search(Rect(0.2, 0.2, 0.25, 0.25)).ok());

  serving.Stop();
  ASSERT_TRUE(serving.status().ok()) << serving.status().ToString();
  ASSERT_TRUE((*stack)->Close().ok());
}

// Graceful shutdown under a durable spec: updates over the wire, shutdown
// (drain + reply flush), PR 8 close order. Reopening with OpenWithRecovery
// must find a checkpoint-only log — nothing to redo, nothing to undo.
TEST(ServerTest, GracefulShutdownLeavesCleanWal) {
  const std::string path = "/tmp/rtb_server_test_wal.store";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  engine::ExperimentSpec spec = SmallSpec(/*n=*/2000, /*pool_pages=*/32);
  spec.storage.backend = "file";
  spec.storage.path = path;
  spec.storage.wal.enabled = true;
  spec.storage.wal.group_commit_window = 4;

  storage::PageId root = 0;
  uint16_t height = 0;
  {
    auto stack = ServingStack::Open(spec);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    ServerOptions options;
    options.max_batch = 16;
    options.max_wait_us = 200;
    Server server(stack->get(), options);
    ASSERT_TRUE(server.Start().ok());
    ServeThread serving(&server);

    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok());
    Rng rng(11);
    std::vector<uint64_t> ids;
    for (uint64_t i = 0; i < 64; ++i) {
      const double x = rng.NextDouble();
      const double y = rng.NextDouble();
      ids.push_back(
          (*client)->QueueInsert(Rect(x, y, x, y), 1'000'000 + i));
    }
    ASSERT_TRUE((*client)->Flush().ok());
    for (const uint64_t id : ids) {
      auto reply = (*client)->WaitFor(id);
      ASSERT_TRUE(reply.ok());
      ASSERT_TRUE(reply->ok());
    }

    serving.Stop();
    ASSERT_TRUE(serving.status().ok());
    root = (*stack)->tree()->root();
    height = (*stack)->tree()->height();
    ASSERT_TRUE((*stack)->Close().ok());
  }

  storage::WalRecoveryReport report;
  auto store =
      storage::FilePageStore::OpenWithRecovery(path, path + ".wal", &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(report.wal_found);
  EXPECT_FALSE(report.tail_torn);
  EXPECT_EQ(report.records_scanned, 1u) << "checkpoint-only log expected";
  EXPECT_EQ(report.redo_pages, 0u);

  const auto validation = rtree::ValidateTree(
      store->get(), root, rtree::RTreeConfig::WithFanout(spec.tree.fanout),
      {.check_min_fill = false});
  EXPECT_TRUE(validation.ok);
  EXPECT_EQ(validation.num_data_entries, 2000u + 64u);
  (void)height;
  ASSERT_TRUE((*store)->Close().ok());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace rtb::net
