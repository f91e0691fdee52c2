// micro_file_io — coalesced (preadv) reads on a file-backed store, under
// the batched query executor with a cold, small buffer pool.
//
// The tree is bulk-loaded into a FilePageStore, so every pool miss is a
// real positioned read against the file. The batch executor hands each
// fetch window's miss set to the pool; the serial pool sorts the misses by
// page id and hands FilePageStore::ReadBatch one frame pointer per page,
// and the store reads each run of consecutive ids with one preadv that
// scatters straight into the frames. The bench reports:
//
//   * reads/query          — per-page read count (the paper's disk
//                            accesses); the same however pages travel.
//   * syscalls/query       — reads - batch_pages + read_batches, per
//                            query; the number coalescing shrinks.
//   * read_batches, pages/batch — how often runs coalesced and how wide.
//
// Reading page by page costs one syscall per read, so the acceptance
// criterion is syscalls < reads.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "rtree/batch.h"

namespace rtb::bench {
namespace {

using geom::Rect;

struct Measurement {
  double queries_per_sec = 0.0;
  double reads_per_query = 0.0;
  double syscalls_per_query = 0.0;
  double pages_per_batch = 0.0;
  uint64_t reads = 0;
  uint64_t syscalls = 0;
  uint64_t read_batches = 0;
  uint64_t batch_pages = 0;
  uint64_t result_count = 0;  // Checksum: total ids returned.
};

// Runs the batched workload against a fresh cold pool over `store`. The
// store counters are reset after warm-up, so the reported I/O is the
// measured phase only.
Measurement RunVariant(storage::FilePageStore* store,
                       const rtree::BuiltTree& built, uint32_t fanout,
                       uint64_t buffer_pages, uint64_t seed, uint64_t warmup,
                       uint64_t queries, uint64_t batch_size,
                       double region_side) {
  auto pool = storage::BufferPool::MakeLru(store, buffer_pages);
  auto tree = rtree::RTree::Open(pool.get(),
                                 rtree::RTreeConfig::WithFanout(fanout),
                                 built.root, built.height);
  RTB_CHECK(tree.ok());

  sim::UniformRegionGenerator gen(region_side, region_side);
  Rng rng(seed);
  Measurement m;
  rtree::BatchExecutor executor(&*tree);
  std::vector<Rect> batch;
  std::vector<std::vector<rtree::ObjectId>> results;

  auto run_phase = [&](uint64_t n, bool measure) {
    uint64_t done = 0;
    while (done < n) {
      const uint64_t chunk = std::min(batch_size, n - done);
      batch.clear();
      for (uint64_t i = 0; i < chunk; ++i) batch.push_back(gen.Next(rng));
      RTB_CHECK(executor.Run(batch, &results, nullptr).ok());
      if (measure) {
        for (const auto& r : results) m.result_count += r.size();
      }
      done += chunk;
    }
  };

  run_phase(warmup, /*measure=*/false);
  store->ResetStats();
  const auto start = std::chrono::steady_clock::now();
  run_phase(queries, /*measure=*/true);
  const auto end = std::chrono::steady_clock::now();

  const double seconds = std::chrono::duration<double>(end - start).count();
  const storage::IoStats io = store->stats();
  m.reads = io.reads;
  m.syscalls = io.ReadSyscalls();
  m.read_batches = io.read_batches;
  m.batch_pages = io.batch_pages;
  m.pages_per_batch = io.PagesPerBatch();
  m.queries_per_sec =
      seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
  const double q = static_cast<double>(queries);
  m.reads_per_query = q > 0 ? static_cast<double>(io.reads) / q : 0.0;
  m.syscalls_per_query = q > 0 ? static_cast<double>(m.syscalls) / q : 0.0;
  return m;
}

void EmitRow(JsonDict& row, const Measurement& m) {
  row.PutNum("queries_per_sec", m.queries_per_sec);
  row.PutNum("reads_per_query", m.reads_per_query);
  row.PutNum("syscalls_per_query", m.syscalls_per_query);
  // Against one pread per page, whose syscalls equal the reads.
  row.PutNum("syscall_reduction_vs_scalar",
             m.syscalls_per_query > 0.0
                 ? m.reads_per_query / m.syscalls_per_query
                 : 0.0);
  row.PutInt("reads", m.reads);
  row.PutInt("read_batches", m.read_batches);
  row.PutInt("batch_pages", m.batch_pages);
  row.PutNum("pages_per_batch", m.pages_per_batch);
  row.PutInt("result_count", m.result_count);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"seed", "1998"},
               {"points", "40000"},
               {"fanout", "100"},
               {"queries", "20000"},
               {"warmup", "2000"},
               {"region_side", "0.03"},
               {"batch", "256"},
               {"buffer_pages", "40"},
               {"path", "/tmp/rtb_micro_file_io.store"},
               {"json", ""}});
  const uint64_t seed = flags.GetInt("seed");
  const uint64_t queries = flags.GetInt("queries");
  const uint64_t warmup = flags.GetInt("warmup");
  const uint64_t batch = std::max<uint64_t>(2, flags.GetInt("batch"));
  const uint64_t buffer_pages = flags.GetInt("buffer_pages");
  const double region_side = flags.GetDouble("region_side");
  const uint32_t fanout = static_cast<uint32_t>(flags.GetInt("fanout"));
  const std::string path = flags.GetString("path");

  Banner("micro: file-store vectored I/O",
         "preadv-coalesced reads on a file-backed tree; " +
             Table::Int(flags.GetInt("points")) + " uniform points, fanout " +
             Table::Int(fanout) + ", " + Table::Int(buffer_pages) +
             "-page pool, batch " + Table::Int(batch),
         seed);

  Rng rng(seed);
  auto rects = data::GenerateUniformPoints(flags.GetInt("points"), &rng);
  auto store = storage::FilePageStore::Create(path);
  RTB_CHECK(store.ok());
  auto built = rtree::BuildRTree(store->get(),
                                 rtree::RTreeConfig::WithFanout(fanout),
                                 rects, rtree::LoadAlgorithm::kHilbertSort);
  RTB_CHECK(built.ok());
  auto summary = rtree::TreeSummary::Extract(store->get(), built->root);
  RTB_CHECK(summary.ok());

  BenchReport report("micro_file_io");
  report.meta().PutInt("seed", seed);
  report.meta().PutInt("points", flags.GetInt("points"));
  report.meta().PutInt("fanout", fanout);
  report.meta().PutInt("tree_pages", summary->NumNodes());
  report.meta().PutInt("tree_height", built->height);
  report.meta().PutInt("queries", queries);
  report.meta().PutInt("warmup", warmup);
  report.meta().PutNum("region_side", region_side);
  report.meta().PutInt("buffer_pages", buffer_pages);
  report.meta().PutInt("batch", batch);

  const Measurement m =
      RunVariant(store->get(), *built, fanout, buffer_pages, seed + 17,
                 warmup, queries, batch, region_side);
  RTB_CHECK(m.syscalls < m.reads);
  EmitRow(report.AddConfig("file_vectored_preadv"), m);
  Table table({"config", "queries/s", "reads/query", "syscalls/query",
               "batches", "pages/batch"});
  table.AddRow({"file_vectored_preadv", Table::Num(m.queries_per_sec, 0),
                Table::Num(m.reads_per_query, 3),
                Table::Num(m.syscalls_per_query, 3),
                Table::Int(m.read_batches), Table::Num(m.pages_per_batch, 2)});
  table.Print();
  store->reset();  // Close before unlinking.
  std::remove(path.c_str());
  if (!report.WriteFile(flags.GetString("json"))) return 1;
  return 0;
}

}  // namespace
}  // namespace rtb::bench

int main(int argc, char** argv) { return rtb::bench::Run(argc, argv); }
