// micro_server_qps — cross-connection batch coalescing under load.
//
// An in-process rtb_server serves a file-backed tree through a cold,
// deliberately small buffer pool (<= 64 frames against a multi-thousand
// page tree). A load generator opens hundreds of pipelined connections and
// pushes the same query multiset through two server configurations:
//
//   * batch_1   — the admission loop drains every request by itself:
//                 request/reply serving with no cross-request locality,
//                 the classical one-query-at-a-time baseline.
//   * coalesced — requests admitted within the window drain as one
//                 BatchExecutor run: the sorted shared frontier turns
//                 concurrent queries touching the same pages into single
//                 pool requests, so the effective hit rate climbs with
//                 load instead of being fixed by the pool size.
//
// Each variant runs three times, alternated with the other, and reports
// its median-QPS run: wall-clock QPS, effective batch size, pool hit rate,
// and node accesses per query. The acceptance criterion (asserted on those
// medians): under a deep pipeline the coalesced server reaches at least
// 1.5x the QPS of batch_1 on the identical workload — buffering the
// *requests* buys back what the tiny page buffer cannot.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/serving.h"
#include "storage/buffer_pool.h"

namespace rtb::bench {
namespace {

using geom::Rect;

struct Measurement {
  double qps = 0.0;
  double seconds = 0.0;
  uint64_t queries = 0;
  double effective_batch = 0.0;
  uint64_t batches = 0;
  double hit_rate = 0.0;
  double effective_hit_rate = 0.0;
  uint64_t pool_requests = 0;
  uint64_t pool_misses = 0;
  uint64_t node_accesses = 0;
  double node_accesses_per_query = 0.0;
  uint64_t results = 0;  // Checksum: rows must agree.
};

// The serving workload: `conns * per_conn` small region queries, the same
// multiset for every variant (rects depend only on seed and index).
std::vector<Rect> MakeQueries(uint64_t count, uint64_t seed, double extent) {
  Rng rng(seed);
  std::vector<Rect> queries;
  queries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const double x = rng.NextDouble() * (1.0 - extent);
    const double y = rng.NextDouble() * (1.0 - extent);
    queries.push_back(Rect(x, y, x + extent, y + extent));
  }
  return queries;
}

Measurement RunVariant(const engine::ExperimentSpec& spec, uint32_t max_batch,
                       uint64_t max_wait_us, uint64_t conns, uint64_t per_conn,
                       uint64_t threads, const std::vector<Rect>& queries) {
  std::remove(spec.storage.path.c_str());
  auto stack = net::ServingStack::Open(spec);
  RTB_CHECK(stack.ok());

  net::ServerOptions options;
  options.max_batch = max_batch;
  options.max_wait_us = max_wait_us;
  net::Server server(stack->get(), options);
  RTB_CHECK(server.Start().ok());
  std::thread serve_thread([&server] { RTB_CHECK(server.Serve().ok()); });

  // Connect everything up front (serially, cheap); time only the load.
  std::vector<std::unique_ptr<net::Client>> clients;
  clients.reserve(conns);
  for (uint64_t c = 0; c < conns; ++c) {
    auto client = net::Client::Connect(server.port());
    RTB_CHECK(client.ok());
    clients.push_back(std::move(*client));
  }
  const storage::BufferStats cold = (*stack)->pool()->AggregateStats();

  std::vector<uint64_t> results_per_thread(threads, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> loaders;
  for (uint64_t t = 0; t < threads; ++t) {
    loaders.emplace_back([&, t] {
      // Each loader owns a contiguous slice of connections: queue the full
      // pipeline on every connection first (that is what piles requests
      // into one admission window), then harvest replies.
      uint64_t found = 0;
      for (uint64_t c = t; c < conns; c += threads) {
        net::Client* client = clients[c].get();
        for (uint64_t q = 0; q < per_conn; ++q) {
          client->QueueSearch(queries[c * per_conn + q]);
        }
        RTB_CHECK(client->Flush().ok());
      }
      for (uint64_t c = t; c < conns; c += threads) {
        net::Client* client = clients[c].get();
        for (uint64_t q = 0; q < per_conn; ++q) {
          auto reply = client->ReadReply();
          RTB_CHECK(reply.ok());
          RTB_CHECK(reply->ok());
          found += reply->ids.size();
        }
      }
      results_per_thread[t] = found;
    });
  }
  for (auto& thread : loaders) thread.join();
  const auto end = std::chrono::steady_clock::now();

  server.RequestShutdown();
  serve_thread.join();

  Measurement m;
  m.seconds = std::chrono::duration<double>(end - start).count();
  m.queries = conns * per_conn;
  m.qps = m.seconds > 0.0 ? static_cast<double>(m.queries) / m.seconds : 0.0;
  const net::ServerStats s = server.stats();
  RTB_CHECK(s.searches == m.queries);
  m.effective_batch = s.EffectiveBatch();
  m.batches = s.batches;
  m.node_accesses = s.search_batch.node_accesses;
  m.node_accesses_per_query =
      static_cast<double>(m.node_accesses) / static_cast<double>(m.queries);
  const storage::BufferStats warm = (*stack)->pool()->AggregateStats();
  m.pool_requests = warm.requests - cold.requests;
  m.pool_misses = warm.misses - cold.misses;
  m.hit_rate = m.pool_requests > 0
                   ? 1.0 - static_cast<double>(m.pool_misses) /
                               static_cast<double>(m.pool_requests)
                   : 0.0;
  // The number that scales with load: of all *logical* node accesses the
  // query multiset performed, how many were absorbed by buffering — the
  // page buffer's hits plus the shared frontier's cross-query dedup. For
  // batch_1 this equals the raw pool hit rate (one pool request per
  // logical access); coalescing pushes it up without adding a frame.
  m.effective_hit_rate =
      m.node_accesses > 0 ? 1.0 - static_cast<double>(m.pool_misses) /
                                      static_cast<double>(m.node_accesses)
                          : 0.0;
  for (const uint64_t r : results_per_thread) m.results += r;

  clients.clear();
  RTB_CHECK((*stack)->Close().ok());
  std::remove(spec.storage.path.c_str());
  std::remove((spec.storage.path + ".wal").c_str());
  return m;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"seed", "1998"},
               {"n", "60000"},
               {"fanout", "50"},
               // The point of the experiment: a pool far smaller than the
               // tree, so per-request serving misses constantly.
               {"buffer_pages", "64"},
               {"conns", "256"},
               {"per_conn", "16"},
               {"threads", "8"},
               {"extent", "0.02"},
               {"max_batch", "256"},
               {"max_wait_us", "1000"},
               {"path", "/tmp/rtb_micro_server_qps.store"},
               {"json", ""}});
  const uint64_t seed = flags.GetInt("seed");
  const uint64_t conns = std::max<uint64_t>(1, flags.GetInt("conns"));
  const uint64_t per_conn = std::max<uint64_t>(1, flags.GetInt("per_conn"));
  const uint64_t threads =
      std::min<uint64_t>(std::max<uint64_t>(1, flags.GetInt("threads")), conns);
  const double extent = flags.GetDouble("extent");

  engine::ExperimentSpec spec;
  spec.name = "micro_server_qps";
  spec.dataset.kind = "uniform";
  spec.dataset.n = flags.GetInt("n");
  spec.dataset.seed = seed + 7;
  spec.tree.fanout = static_cast<uint32_t>(flags.GetInt("fanout"));
  spec.pool.buffer_pages = flags.GetInt("buffer_pages");
  spec.storage.backend = "file";
  spec.storage.path = flags.GetString("path");

  Banner("micro: server QPS under coalescing",
         Table::Int(conns) + " pipelined connections x " +
             Table::Int(per_conn) + " queries against a " +
             Table::Int(spec.dataset.n) + "-object file-backed tree, cold " +
             Table::Int(spec.pool.buffer_pages) + "-frame pool",
         seed);

  const auto queries = MakeQueries(conns * per_conn, seed + 31, extent);

  BenchReport report("micro_server_qps");
  report.meta().PutInt("seed", seed);
  report.meta().PutInt("n", spec.dataset.n);
  report.meta().PutInt("fanout", spec.tree.fanout);
  report.meta().PutInt("buffer_pages", spec.pool.buffer_pages);
  report.meta().PutInt("conns", conns);
  report.meta().PutInt("per_conn", per_conn);
  report.meta().PutInt("threads", threads);
  report.meta().PutNum("extent", extent);

  Table table({"config", "qps", "eff. batch", "eff. hit rate", "nodes/query"});
  auto add = [&](const std::string& name, const Measurement& m) {
    JsonDict& row = report.AddConfig(name);
    row.PutNum("queries_per_sec", m.qps);
    row.PutNum("seconds", m.seconds);
    row.PutInt("queries", m.queries);
    row.PutNum("effective_batch", m.effective_batch);
    row.PutInt("batches", m.batches);
    row.PutNum("hit_rate", m.hit_rate);
    row.PutNum("effective_hit_rate", m.effective_hit_rate);
    row.PutInt("pool_requests", m.pool_requests);
    row.PutInt("pool_misses", m.pool_misses);
    row.PutInt("node_accesses", m.node_accesses);
    row.PutNum("node_accesses_per_query", m.node_accesses_per_query);
    row.PutInt("results", m.results);
    table.AddRow({name, Table::Num(m.qps, 0), Table::Num(m.effective_batch, 1),
                  Table::Num(m.effective_hit_rate, 3),
                  Table::Num(m.node_accesses_per_query, 1)});
  };

  // One 4,096-query run lasts tens of milliseconds, so a single slowed run
  // on a shared host can halve its QPS; the median of three cannot be moved
  // by one such run.
  constexpr int kRuns = 3;
  std::vector<Measurement> batch1_runs;
  std::vector<Measurement> coalesced_runs;
  for (int r = 0; r < kRuns; ++r) {
    batch1_runs.push_back(RunVariant(spec, /*max_batch=*/1,
                                     /*max_wait_us=*/0, conns, per_conn,
                                     threads, queries));
    coalesced_runs.push_back(RunVariant(
        spec, static_cast<uint32_t>(flags.GetInt("max_batch")),
        flags.GetInt("max_wait_us"), conns, per_conn, threads, queries));
  }
  auto median_run = [](std::vector<Measurement> runs) {
    std::sort(runs.begin(), runs.end(),
              [](const Measurement& a, const Measurement& b) {
                return a.qps < b.qps;
              });
    return runs[runs.size() / 2];
  };
  const Measurement batch1 = median_run(std::move(batch1_runs));
  add("batch_1", batch1);
  const Measurement coalesced = median_run(std::move(coalesced_runs));
  add("coalesced", coalesced);

  table.Print();

  // Identical multiset, identical tree: the total result volume must match
  // exactly. The frontier dedup means coalescing does *fewer* pool
  // requests, not a higher ratio on the same denominator — the honest
  // comparison is absolute disk reads, which must not grow.
  RTB_CHECK(coalesced.results == batch1.results);
  RTB_CHECK(coalesced.effective_batch > 1.0);
  RTB_CHECK(coalesced.pool_misses <= batch1.pool_misses);
  RTB_CHECK(coalesced.effective_hit_rate >= batch1.effective_hit_rate);
  // The acceptance bar: coalescing buys at least 1.5x throughput on a deep
  // pipeline over a cold, undersized pool.
  RTB_CHECK(coalesced.qps >= 1.5 * batch1.qps);

  if (!report.WriteFile(flags.GetString("json"))) return 1;
  return 0;
}

}  // namespace
}  // namespace rtb::bench

int main(int argc, char** argv) { return rtb::bench::Run(argc, argv); }
