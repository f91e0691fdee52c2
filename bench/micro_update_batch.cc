// micro_update_batch — batched vs. tuple-at-a-time updates on a
// file-backed store.
//
// One insert/delete op stream (50/50 mix; deletes target surviving
// bulk-load entries, so the stream is independent of flush timing) is
// precomputed once and replayed against a freshly bulk-loaded tree per
// row. Every row drains through UpdateBatchExecutor and flushes the pool
// after each drain, so dirty pages reach the store once per drain:
//
//   * serial  — drain size 1 (the executor delegates to
//               RTree::Insert/Delete, Guttman's algorithms): every update
//               re-pins and rewrites its whole root-to-leaf path.
//   * batched — drain size `batch`: group-by-leaf application pins each
//               touched page once per batch, so a leaf receiving k updates
//               is written back once, not k times.
//
// Both hand the pool's page-id-sorted flush to FilePageStore::WriteBatch,
// which coalesces runs of consecutive page ids into pwritev.
//
//   * batched_workers1 / batched_workers4 — drain size `batch` on the
//     serving pool's shape (8 shards of 32 frames), the executor's reads
//     (descent levels, read round of the target pages) on a LevelScheduler
//     of 1 or 4 workers. The two rows must agree on pins, writes, entries
//     and the store bytes; they are not in the committed baseline.
//
// Reported per measured op: pool pin requests (the pin-economy claim),
// page writes (the paper's disk-write metric), and write syscalls
// (writes - batch_pages + batches; the number the two batching layers
// shrink). Rows are checked to leave the same number of data entries and
// a structurally valid tree. The acceptance criterion (asserted at batch
// >= 64): batched uses <= half the write syscalls per op of serial.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/common.h"
#include "rtree/level_scheduler.h"
#include "rtree/update_batch.h"
#include "rtree/validate.h"
#include "storage/sharded_buffer_pool.h"

namespace rtb::bench {
namespace {

using geom::Rect;
using rtree::UpdateOp;

struct Measurement {
  double updates_per_sec = 0.0;
  double pins_per_op = 0.0;
  double writes_per_op = 0.0;
  double syscalls_per_op = 0.0;
  double pages_per_batch = 0.0;
  uint64_t writes = 0;
  uint64_t write_batches = 0;
  uint64_t write_syscalls = 0;
  uint64_t entries = 0;        // Checksum: data entries after the run.
  uint64_t deletes_found = 0;  // Checksum: every delete must land.
  uint64_t store_hash = 0;     // Checksum: FNV-1a of every store page.
};

// The sharded rows' pool: the serving stack's shape (256 frames, 8 shards).
constexpr uint64_t kShards = 8;
constexpr uint64_t kShardedPoolPages = 256;

// FNV-1a over every page of `store`.
uint64_t StoreHash(storage::PageStore* store) {
  std::vector<uint8_t> page(store->page_size());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (storage::PageId id = 0; id < store->num_pages(); ++id) {
    RTB_CHECK(store->Read(id, page.data()).ok());
    for (const uint8_t b : page) h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

// Precomputes the shared op stream. Deletes draw victims from the
// not-yet-deleted bulk-load entries only (ids are dataset indexes, the
// BuildRTree contract); inserts get fresh ids above the dataset range and
// never become victims, so the stream replays identically regardless of
// how a row batches it.
std::vector<UpdateOp> MakeOps(uint64_t n, const std::vector<Rect>& rects,
                              Rng* rng) {
  std::vector<uint32_t> ledger(rects.size());
  std::iota(ledger.begin(), ledger.end(), 0u);
  std::vector<UpdateOp> ops;
  ops.reserve(n);
  uint64_t next_id = uint64_t{1} << 40;
  for (uint64_t i = 0; i < n; ++i) {
    const double x = rng->NextDouble();
    const double y = rng->NextDouble();
    if (!ledger.empty() && rng->NextDouble() < 0.5) {
      const uint64_t v = rng->UniformInt(ledger.size());
      const uint32_t idx = ledger[v];
      ledger[v] = ledger.back();
      ledger.pop_back();
      ops.push_back(UpdateOp::Delete(rects[idx], idx));
    } else {
      ops.push_back(UpdateOp::Insert(Rect{{x, y}, {x, y}}, next_id++));
    }
  }
  return ops;
}

// Replays `ops` against a fresh bulk load of `rects`, draining the
// executor and flushing the pool every `drain` ops. The pool is a serial
// one of `buffer_pages` frames when `workers` is 0, else the sharded
// kShardedPoolPages-frame pool with the executor's reads on `workers`
// workers. Store and pool counters are reset after warm-up, so the reported
// I/O covers the measured ops only.
Measurement RunVariant(const std::string& path, const std::vector<Rect>& rects,
                       const std::vector<UpdateOp>& ops, uint32_t fanout,
                       uint64_t drain, uint64_t buffer_pages, uint64_t warmup,
                       size_t workers = 0) {
  std::remove(path.c_str());
  auto store = storage::FilePageStore::Create(path);
  RTB_CHECK(store.ok());
  const auto config = rtree::RTreeConfig::WithFanout(fanout);
  auto built = rtree::BuildRTree(store->get(), config, rects,
                                 rtree::LoadAlgorithm::kHilbertSort);
  RTB_CHECK(built.ok());

  Measurement m;
  double seconds = 0.0;
  {
    std::unique_ptr<storage::PageCache> pool;
    if (workers == 0) {
      pool = storage::BufferPool::MakeLru(store->get(), buffer_pages);
    } else {
      pool = storage::ShardedBufferPool::MakeLru(store->get(),
                                                 kShardedPoolPages, kShards);
    }
    auto tree = rtree::RTree::Open(pool.get(), config, built->root,
                                   built->height);
    RTB_CHECK(tree.ok());
    rtree::LevelScheduler scheduler(pool.get(), std::max<size_t>(1, workers));
    rtree::UpdateBatchExecutor executor(&*tree, &scheduler);
    rtree::UpdateBatchStats ustats;

    auto run_phase = [&](size_t begin, size_t end) {
      size_t done = begin;
      while (done < end) {
        const size_t chunk = std::min<size_t>(drain, end - done);
        const Status s = executor.Run(
            std::span<const UpdateOp>(ops.data() + done, chunk), &ustats);
        RTB_CHECK(s.ok());
        RTB_CHECK(pool->FlushAll().ok());
        done += chunk;
      }
    };

    run_phase(0, warmup);
    store->get()->ResetStats();
    pool->ResetStats();
    ustats = rtree::UpdateBatchStats{};
    const auto start = std::chrono::steady_clock::now();
    run_phase(warmup, ops.size());
    const auto end = std::chrono::steady_clock::now();
    seconds = std::chrono::duration<double>(end - start).count();

    m.pins_per_op = static_cast<double>(pool->AggregateStats().requests);
    m.deletes_found = ustats.deletes_found;
    RTB_CHECK(pool->Close().ok());
  }

  const storage::IoStats io = store->get()->stats();
  const auto report = rtree::ValidateTree(store->get(), built->root, config,
                                          {.check_min_fill = false});
  RTB_CHECK(report.ok);
  m.entries = report.num_data_entries;
  m.store_hash = StoreHash(store->get());
  m.writes = io.writes;
  m.write_batches = io.write_batches;
  m.write_syscalls = io.WriteSyscalls();
  m.pages_per_batch = io.PagesPerWriteBatch();
  const double n = static_cast<double>(ops.size() - warmup);
  m.updates_per_sec = seconds > 0.0 ? n / seconds : 0.0;
  m.pins_per_op = n > 0 ? m.pins_per_op / n : 0.0;
  m.writes_per_op = n > 0 ? static_cast<double>(io.writes) / n : 0.0;
  m.syscalls_per_op = n > 0 ? static_cast<double>(m.write_syscalls) / n : 0.0;
  store->reset();  // Close before unlinking.
  std::remove(path.c_str());
  return m;
}

void EmitRow(JsonDict& row, const Measurement& m, const Measurement& serial) {
  row.PutNum("updates_per_sec", m.updates_per_sec);
  row.PutNum("pins_per_op", m.pins_per_op);
  row.PutNum("writes_per_op", m.writes_per_op);
  row.PutNum("write_syscalls_per_op", m.syscalls_per_op);
  row.PutNum("syscall_reduction_vs_serial",
             m.syscalls_per_op > 0.0 ? serial.syscalls_per_op / m.syscalls_per_op
                                     : 0.0);
  row.PutInt("writes", m.writes);
  row.PutInt("write_batches", m.write_batches);
  row.PutInt("write_syscalls", m.write_syscalls);
  row.PutNum("pages_per_write_batch", m.pages_per_batch);
  row.PutInt("entries_after", m.entries);
  row.PutInt("deletes_found", m.deletes_found);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"seed", "1998"},
               {"points", "40000"},
               {"fanout", "100"},
               {"updates", "12000"},
               {"warmup", "2000"},
               {"batch", "128"},
               {"buffer_pages", "64"},
               {"path", "/tmp/rtb_micro_update_batch.store"},
               {"json", ""}});
  const uint64_t seed = flags.GetInt("seed");
  const uint64_t updates = flags.GetInt("updates");
  const uint64_t warmup = std::min<uint64_t>(flags.GetInt("warmup"), updates);
  const uint64_t batch = std::max<uint64_t>(2, flags.GetInt("batch"));
  const uint64_t buffer_pages = flags.GetInt("buffer_pages");
  const uint32_t fanout = static_cast<uint32_t>(flags.GetInt("fanout"));
  const std::string path = flags.GetString("path");

  Banner("micro: batched updates",
         "group-by-leaf batches + pwritev flush vs. tuple-at-a-time; " +
             Table::Int(flags.GetInt("points")) + " uniform points, fanout " +
             Table::Int(fanout) + ", " + Table::Int(buffer_pages) +
             "-page pool, batch " + Table::Int(batch),
         seed);

  Rng rng(seed);
  auto rects = data::GenerateUniformPoints(flags.GetInt("points"), &rng);
  Rng op_rng(seed + 17);
  const auto ops = MakeOps(updates, rects, &op_rng);
  const uint64_t n_deletes = static_cast<uint64_t>(std::count_if(
      ops.begin(), ops.end(),
      [](const UpdateOp& op) { return op.kind == UpdateOp::Kind::kDelete; }));

  BenchReport report("micro_update_batch");
  report.meta().PutInt("seed", seed);
  report.meta().PutInt("points", flags.GetInt("points"));
  report.meta().PutInt("fanout", fanout);
  report.meta().PutInt("updates", updates);
  report.meta().PutInt("warmup", warmup);
  report.meta().PutInt("inserts", updates - n_deletes);
  report.meta().PutInt("deletes", n_deletes);
  report.meta().PutInt("buffer_pages", buffer_pages);
  report.meta().PutInt("batch", batch);

  Table table({"config", "updates/s", "pins/op", "writes/op", "syscalls/op",
               "pages/batch"});
  auto add = [&](const std::string& name, const Measurement& m,
                 const Measurement& serial) {
    EmitRow(report.AddConfig(name), m, serial);
    table.AddRow({name, Table::Num(m.updates_per_sec, 0),
                  Table::Num(m.pins_per_op, 2), Table::Num(m.writes_per_op, 3),
                  Table::Num(m.syscalls_per_op, 3),
                  Table::Num(m.pages_per_batch, 2)});
  };

  const Measurement serial = RunVariant(path, rects, ops, fanout,
                                        /*drain=*/1, buffer_pages, warmup);
  add("serial", serial, serial);

  const Measurement batched = RunVariant(path, rects, ops, fanout, batch,
                                         buffer_pages, warmup);
  RTB_CHECK(batched.entries == serial.entries);
  RTB_CHECK(batched.deletes_found == serial.deletes_found);
  RTB_CHECK(batched.write_batches > 0);
  add("batched", batched, serial);
  // The acceptance bar: >= 2x fewer write syscalls than tuple-at-a-time
  // once batches reach 64 ops.
  if (batch >= 64) {
    RTB_CHECK(batched.syscalls_per_op * 2.0 <= serial.syscalls_per_op);
  }

  // The update reads split over 4 workers by shard: the same pool
  // accesses, writes and tree as on one worker.
  const Measurement workers1 = RunVariant(path, rects, ops, fanout, batch,
                                          buffer_pages, warmup, 1);
  const Measurement workers4 = RunVariant(path, rects, ops, fanout, batch,
                                          buffer_pages, warmup, 4);
  RTB_CHECK(workers1.entries == serial.entries);
  RTB_CHECK(workers1.deletes_found == serial.deletes_found);
  RTB_CHECK(workers4.pins_per_op == workers1.pins_per_op);
  RTB_CHECK(workers4.writes == workers1.writes);
  RTB_CHECK(workers4.entries == workers1.entries);
  RTB_CHECK(workers4.deletes_found == workers1.deletes_found);
  RTB_CHECK(workers4.store_hash == workers1.store_hash);
  add("batched_workers1", workers1, serial);
  add("batched_workers4", workers4, serial);

  table.Print();
  if (!report.WriteFile(flags.GetString("json"))) return 1;
  return 0;
}

}  // namespace
}  // namespace rtb::bench

int main(int argc, char** argv) { return rtb::bench::Run(argc, argv); }
