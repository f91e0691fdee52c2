// micro_batch_query — batched (level-synchronous) query execution vs. the
// serial per-query loop.
//
// Two buffer regimes, both on the uniform-region workload:
//
//   * resident — the pool holds the whole tree, so the measurement isolates
//     CPU cost: guard churn per node visit (batching pins each distinct
//     page once per batch) and the entry sweep (NodeView::Intersects in
//     place vs. the scan kernel over the gathered SoA scratch). Rows:
//     serial, batched; the acceptance criterion is batched >= 1.3x serial
//     queries/sec.
//   * smallbuf — a pool of --small_buffer_pages frames (default 40, a few
//     percent of the tree), the paper's buffer-starved regime. Here the
//     interesting number is buffer behavior, reported two ways:
//       - pool_hit_rate: hits/requests at the pool interface. Batching
//         *lowers* this by construction — the easy repeat requests never
//         reach the pool (a page shared by k queries of a batch is
//         requested once), so the denominator loses mostly-hits.
//       - effective_hit_rate: 1 - disk_reads/node_accesses, the fraction
//         of logical node visits served without touching disk. This is the
//         number comparable across execution strategies — same
//         denominator, and exactly 1 - (paper's cost metric)/visit. The
//         acceptance criterion is batched effective_hit_rate > serial
//         effective_hit_rate at batch_size >= 64.
//
// Two rows split each tree level over executor workers:
//   * region_smallbuf_workers1 / region_smallbuf_workers4 — the tree copied
//     into a FilePageStore, read through a cold 128-frame ShardedBufferPool
//     of four shards (about a third of the default tree) in batches of 256,
//     by one executor with 1 or 4 workers.
//     Workers walk disjoint shards, so both rows must report the same
//     checksum and the same pool misses (asserted); queries_per_sec is what
//     the extra cores buy.
//
// Two more rows time the node-scan sweep alone, over one full leaf (fanout
// entries) and --queries rectangles inside its MBR; queries_per_sec there
// is sweeps per second:
//   * portable — detail::SweepPortable, called directly: what an x86-64
//     CPU without AVX2 runs. Gated so it cannot silently lose its
//     vectorization again.
//   * active — ScanIntersecting, the sweep the batch executor runs on this
//     CPU (the AVX2 instantiation where the CPU has it).
//
// Every mode replays the identical query stream (generators draw one Rng
// value per query, independent of batching) and the result-id checksums are
// asserted equal, so the rows differ only in execution strategy.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "rtree/batch.h"
#include "rtree/scan_kernel.h"
#include "storage/file_page_store.h"
#include "storage/sharded_buffer_pool.h"

namespace rtb::bench {
namespace {

using geom::Rect;

struct Measurement {
  double queries_per_sec = 0.0;
  double nodes_per_query = 0.0;
  double pool_hit_rate = 0.0;
  double effective_hit_rate = 0.0;
  double disk_reads_per_query = 0.0;
  uint64_t node_accesses = 0;
  uint64_t result_count = 0;  // Checksum: total ids returned.
};

// Derives the per-query rates of `m` (whose node_accesses is set) from the
// pool counters of a `queries`-query phase timed [start, end).
void FillRates(Measurement* m, const storage::BufferStats& buffer,
               uint64_t queries, std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  const double seconds = std::chrono::duration<double>(end - start).count();
  m->queries_per_sec =
      seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
  m->nodes_per_query = queries > 0 ? static_cast<double>(m->node_accesses) /
                                         static_cast<double>(queries)
                                   : 0.0;
  m->pool_hit_rate = buffer.HitRate();
  m->effective_hit_rate =
      m->node_accesses > 0
          ? 1.0 - static_cast<double>(buffer.misses) /
                      static_cast<double>(m->node_accesses)
          : 0.0;
  m->disk_reads_per_query =
      queries > 0 ? static_cast<double>(buffer.misses) /
                        static_cast<double>(queries)
                  : 0.0;
}

// Runs `queries` region queries (after `warmup` unmeasured ones) against a
// fresh pool of `buffer_pages` frames. `batch_size <= 1` is the serial
// RTree::Search loop; otherwise the BatchExecutor runs chunks of
// `batch_size`.
Measurement RunMode(const Workload& w, sim::QueryGenerator* gen,
                    uint64_t buffer_pages, uint64_t seed, uint64_t warmup,
                    uint64_t queries, uint64_t batch_size) {
  auto pool = storage::BufferPool::MakeLru(w.store.get(), buffer_pages);
  auto tree = rtree::RTree::Open(pool.get(),
                                 rtree::RTreeConfig::WithFanout(w.fanout),
                                 w.tree.root, w.tree.height);
  RTB_CHECK(tree.ok());

  Rng rng(seed);
  Measurement m;
  rtree::BatchExecutor executor(&*tree);
  std::vector<Rect> batch;
  std::vector<std::vector<rtree::ObjectId>> results;
  std::vector<rtree::ObjectId> sink;

  // One phase pass: runs `n` queries; only counts when `measure` is set.
  rtree::QueryStats serial_stats;
  rtree::BatchStats batch_stats;
  auto run_phase = [&](uint64_t n, bool measure) {
    if (batch_size <= 1) {
      for (uint64_t i = 0; i < n; ++i) {
        sink.clear();
        RTB_CHECK(tree->Search(gen->Next(rng), &sink,
                               measure ? &serial_stats : nullptr)
                      .ok());
        if (measure) m.result_count += sink.size();
      }
      return;
    }
    uint64_t done = 0;
    while (done < n) {
      const uint64_t chunk = std::min(batch_size, n - done);
      batch.clear();
      for (uint64_t i = 0; i < chunk; ++i) batch.push_back(gen->Next(rng));
      RTB_CHECK(executor.Run(batch, &results,
                             measure ? &batch_stats : nullptr)
                    .ok());
      if (measure) {
        for (const auto& r : results) m.result_count += r.size();
      }
      done += chunk;
    }
  };

  run_phase(warmup, /*measure=*/false);
  pool->ResetStats();
  const auto start = std::chrono::steady_clock::now();
  run_phase(queries, /*measure=*/true);
  const auto end = std::chrono::steady_clock::now();

  m.node_accesses =
      batch_size <= 1 ? serial_stats.nodes_accessed : batch_stats.node_accesses;
  FillRates(&m, pool->AggregateStats(), queries, start, end);
  return m;
}

// Runs `queries` region queries in batches of `batch_size` from a cold
// sharded pool of `buffer_pages` frames in four shards over the file-backed
// copy of the tree, with one executor of `workers` threads.
Measurement RunWorkers(const Workload& w, storage::PageStore* file_store,
                       sim::QueryGenerator* gen, uint64_t buffer_pages,
                       uint64_t seed, uint64_t queries, uint64_t batch_size,
                       size_t workers) {
  storage::ShardedBufferPool::Options options;
  options.num_shards = 4;
  storage::ShardedBufferPool pool(file_store, buffer_pages, options);
  auto tree = rtree::RTree::Open(&pool,
                                 rtree::RTreeConfig::WithFanout(w.fanout),
                                 w.tree.root, w.tree.height);
  RTB_CHECK(tree.ok());
  rtree::BatchExecutor executor(&*tree, workers);

  Rng rng(seed);
  Measurement m;
  rtree::BatchStats stats;
  std::vector<Rect> batch;
  std::vector<std::vector<rtree::ObjectId>> results;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t done = 0; done < queries; done += batch.size()) {
    batch.clear();
    const uint64_t chunk = std::min(batch_size, queries - done);
    for (uint64_t i = 0; i < chunk; ++i) batch.push_back(gen->Next(rng));
    RTB_CHECK(executor.Run(batch, &results, &stats).ok());
    for (const auto& r : results) m.result_count += r.size();
  }
  const auto end = std::chrono::steady_clock::now();
  m.node_accesses = stats.node_accesses;
  FillRates(&m, pool.AggregateStats(), queries, start, end);
  return m;
}

void EmitRow(JsonDict& row, const Measurement& m, const Measurement& serial,
             uint64_t buffer_pages, uint64_t batch_size) {
  row.PutInt("buffer_pages", buffer_pages);
  row.PutInt("batch_size", batch_size);
  row.PutNum("queries_per_sec", m.queries_per_sec);
  row.PutNum("speedup_vs_serial", serial.queries_per_sec > 0.0
                                      ? m.queries_per_sec /
                                            serial.queries_per_sec
                                      : 0.0);
  row.PutNum("nodes_per_query", m.nodes_per_query);
  row.PutNum("pool_hit_rate", m.pool_hit_rate);
  row.PutNum("effective_hit_rate", m.effective_hit_rate);
  row.PutNum("serial_effective_hit_rate", serial.effective_hit_rate);
  row.PutNum("disk_reads_per_query", m.disk_reads_per_query);
  row.PutInt("result_count", m.result_count);
}

// Sweeps/s of `sweep` over the first leaf of the tree (left-most path),
// against `queries` rects inside that leaf's MBR. `*matches` receives the
// total slots reported, a checksum the two sweep rows must agree on.
double TimeSweep(const Workload& w, uint64_t seed, uint64_t queries,
                 size_t (*sweep)(const rtree::ScanScratch&, const Rect&,
                                 uint32_t*),
                 uint64_t* matches) {
  const size_t page_size = w.store->page_size();
  std::vector<uint8_t> page(page_size);
  storage::PageId id = w.tree.root;
  for (;;) {
    RTB_CHECK(w.store->Read(id, page.data()).ok());
    auto view = rtree::NodeView::Create(page.data(), page_size);
    RTB_CHECK(view.ok());
    if (view->is_leaf()) break;
    id = static_cast<storage::PageId>(view->id(0));
  }
  auto view = rtree::NodeView::Create(page.data(), page_size);
  rtree::ScanScratch scratch;
  scratch.Load(*view);
  Rect mbr = Rect::Empty();
  for (uint16_t i = 0; i < view->count(); ++i) mbr = Union(mbr, view->rect(i));
  const double w_side = (mbr.hi.x - mbr.lo.x) / 4;
  const double h_side = (mbr.hi.y - mbr.lo.y) / 4;
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(queries);
  for (uint64_t q = 0; q < queries; ++q) {
    const double x = mbr.lo.x + rng.NextDouble() * (mbr.hi.x - mbr.lo.x);
    const double y = mbr.lo.y + rng.NextDouble() * (mbr.hi.y - mbr.lo.y);
    rects.emplace_back(x, y, x + w_side, y + h_side);
  }
  std::vector<uint32_t> out(scratch.count());
  *matches = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const Rect& q : rects) *matches += sweep(scratch, q, out.data());
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  return seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"seed", "1998"},
               {"points", "40000"},
               {"fanout", "100"},
               {"queries", "40000"},
               {"warmup", "4000"},
               {"region_side", "0.03"},
               {"batch", "1024"},
               {"small_buffer_pages", "40"},
               {"path", "/tmp/rtb_micro_batch_query.store"},
               {"json", ""}});
  const uint64_t seed = flags.GetInt("seed");
  const uint64_t queries = flags.GetInt("queries");
  const uint64_t warmup = flags.GetInt("warmup");
  const uint64_t batch = std::max<uint64_t>(2, flags.GetInt("batch"));
  const double region_side = flags.GetDouble("region_side");
  const uint64_t small_buffer = flags.GetInt("small_buffer_pages");
  constexpr uint64_t kShardedBufferPages = 128;

  Banner("micro: batched query execution",
         "level-synchronous batches vs. the serial loop; " +
             Table::Int(flags.GetInt("points")) + " uniform points, fanout " +
             Table::Int(flags.GetInt("fanout")) + ", batch " +
             Table::Int(batch),
         seed);

  Rng rng(seed);
  auto rects = data::GenerateUniformPoints(flags.GetInt("points"), &rng);
  Workload w = BuildWorkload(rects,
                             static_cast<uint32_t>(flags.GetInt("fanout")),
                             rtree::LoadAlgorithm::kHilbertSort);
  const uint64_t total_pages = w.summary->NumNodes();

  BenchReport report("micro_batch_query");
  report.meta().PutInt("seed", seed);
  report.meta().PutInt("points", flags.GetInt("points"));
  report.meta().PutInt("fanout", flags.GetInt("fanout"));
  report.meta().PutInt("tree_pages", total_pages);
  report.meta().PutInt("tree_height", w.tree.height);
  report.meta().PutInt("queries", queries);
  report.meta().PutInt("warmup", warmup);
  report.meta().PutNum("region_side", region_side);
  report.meta().PutInt("small_buffer_pages", small_buffer);
  report.meta().PutInt("sharded_buffer_pages", kShardedBufferPages);

  Table table({"config", "batch", "queries/s", "speedup", "pool hit",
               "effective hit", "reads/query"});
  auto add = [&](const std::string& name, const Measurement& m,
                 const Measurement& serial, uint64_t buffer_pages,
                 uint64_t batch_size) {
    EmitRow(report.AddConfig(name), m, serial, buffer_pages, batch_size);
    table.AddRow(
        {name, Table::Int(batch_size), Table::Num(m.queries_per_sec, 0),
         Table::Num(m.queries_per_sec /
                        std::max(serial.queries_per_sec, 1e-9),
                    2) +
             "x",
         Table::Num(100.0 * m.pool_hit_rate, 2) + "%",
         Table::Num(100.0 * m.effective_hit_rate, 2) + "%",
         Table::Num(m.disk_reads_per_query, 3)});
  };

  sim::UniformRegionGenerator gen(region_side, region_side);
  const uint64_t query_seed = seed + 17;

  // Resident regime: pure CPU comparison.
  const Measurement res_serial =
      RunMode(w, &gen, total_pages, query_seed, warmup, queries,
              /*batch_size=*/1);
  const Measurement res_batched = RunMode(w, &gen, total_pages, query_seed,
                                          warmup, queries, batch);
  RTB_CHECK(res_batched.result_count == res_serial.result_count);
  add("region_resident_serial", res_serial, res_serial, total_pages, 1);
  add("region_resident_batched_simd", res_batched, res_serial, total_pages,
      batch);

  // Buffer-starved regime: hit-rate comparison from batch 64 up.
  const Measurement small_serial =
      RunMode(w, &gen, small_buffer, query_seed, warmup, queries,
              /*batch_size=*/1);
  add("region_smallbuf_serial", small_serial, small_serial, small_buffer, 1);
  std::vector<uint64_t> small_batches = {64, batch, batch * 4};
  std::sort(small_batches.begin(), small_batches.end());
  small_batches.erase(
      std::unique(small_batches.begin(), small_batches.end()),
      small_batches.end());
  for (uint64_t b : small_batches) {
    const Measurement m = RunMode(w, &gen, small_buffer, query_seed, warmup,
                                  queries, b);
    RTB_CHECK(m.result_count == small_serial.result_count);
    add("region_smallbuf_batched" + Table::Int(b), m, small_serial,
        small_buffer, b);
  }

  // Shard-split levels: the tree copied into a file, cold sharded pools,
  // batch 256, one executor with 1 and with 4 workers.
  {
    const std::string path =
        flags.GetString("path") + "." + std::to_string(::getpid());
    auto file_store = storage::FilePageStore::Create(path);
    RTB_CHECK(file_store.ok());
    std::vector<uint8_t> page(w.store->page_size());
    for (storage::PageId p = 0; p < w.store->num_pages(); ++p) {
      auto id = (*file_store)->Allocate();
      RTB_CHECK(id.ok() && *id == p);
      RTB_CHECK(w.store->Read(p, page.data()).ok());
      RTB_CHECK((*file_store)->Write(p, page.data()).ok());
    }
    constexpr uint64_t kWorkersBatch = 256;
    const Measurement one =
        RunWorkers(w, file_store->get(), &gen, kShardedBufferPages,
                   query_seed, queries, kWorkersBatch, /*workers=*/1);
    const Measurement four =
        RunWorkers(w, file_store->get(), &gen, kShardedBufferPages,
                   query_seed, queries, kWorkersBatch, /*workers=*/4);
    RTB_CHECK(one.result_count == four.result_count);
    RTB_CHECK(one.disk_reads_per_query == four.disk_reads_per_query);
    add("region_smallbuf_workers1", one, small_serial, kShardedBufferPages,
        kWorkersBatch);
    add("region_smallbuf_workers4", four, small_serial, kShardedBufferPages,
        kWorkersBatch);
    RTB_CHECK((*file_store)->Close().ok());
    std::remove(path.c_str());
  }

  // The sweep alone: the portable instantiation next to the dispatched one.
  uint64_t portable_matches = 0;
  uint64_t active_matches = 0;
  Measurement portable;
  portable.queries_per_sec = TimeSweep(w, query_seed, queries,
                                       rtree::detail::SweepPortable,
                                       &portable_matches);
  Measurement active;
  active.queries_per_sec = TimeSweep(w, query_seed, queries,
                                     rtree::ScanIntersecting, &active_matches);
  RTB_CHECK(portable_matches == active_matches);
  portable.result_count = portable_matches;
  active.result_count = active_matches;
  add("portable", portable, active, total_pages, 1);
  add("active", active, active, total_pages, 1);

  table.Print();
  if (!report.WriteFile(flags.GetString("json"))) return 1;
  return 0;
}

}  // namespace
}  // namespace rtb::bench

int main(int argc, char** argv) { return rtb::bench::Run(argc, argv); }
