// micro_wal_commit — group commit on the durable write path.
//
// One mixed insert/delete op stream is replayed through the batched update
// executor against a file-backed store, once per group-commit window. The
// pool runs no-force with the WAL attached, so each drained batch costs
// one commit record and — depending on the window — a fraction of a
// durability point (writev + fdatasync):
//
//   * wal_off   — the PR-7 write path untouched: no log, no commit
//                 records, flush only at close. The overhead baseline.
//   * window_1  — commit-per-batch: every drained batch pays its own
//                 sync point, the classical force-log-at-commit cost.
//   * window_8+ — group commit: sync points amortize over the window, so
//                 fsyncs/commit drops toward 1/window (evictions that
//                 force the log early keep it above the ideal).
//   * window_8_smallpool — window 8 on a pool smaller than one drain's
//                 dirty set. The pool is no-steal, so the executor commits
//                 each drain in slices that fit; more commits per batch,
//                 evictions of committed pages, and any spare frames show
//                 in the row.
//
// Reported per config: committed batches per second, fsyncs per commit
// (WalStats counts durability points even when RTB_NO_FSYNC suppresses
// the syscall, so the metric is stable on CI), and log bytes per commit.
// The acceptance criterion (asserted): a window >= 8 reaches at most half
// the fsyncs per commit of window 1.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "rtree/update_batch.h"
#include "rtree/validate.h"
#include "storage/file_page_store.h"
#include "storage/wal.h"

namespace rtb::bench {
namespace {

using geom::Rect;
using rtree::UpdateOp;

// Pool of the window_8_smallpool row: smaller than the ~54 pages one 64-op
// drain dirties at the default sizes, so every drain commits in slices.
constexpr uint64_t kSmallPoolPages = 48;

struct Measurement {
  double batches_per_sec = 0.0;
  double commits_per_sec = 0.0;
  double fsyncs_per_commit = 0.0;
  double wal_bytes_per_commit = 0.0;
  uint64_t commits = 0;
  uint64_t fsyncs = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t writebacks = 0;
  uint64_t spare_frames = 0;
  uint64_t entries = 0;  // Checksum: rows must agree.
};

// The same batch-friendly op mix the update bench uses: inserts with fresh
// ids, deletes drawn from surviving earlier inserts so every delete lands.
std::vector<UpdateOp> MakeOps(uint64_t n, Rng* rng) {
  std::vector<UpdateOp> ops;
  ops.reserve(n);
  std::vector<std::pair<uint64_t, Rect>> live;
  uint64_t next_id = 1;
  for (uint64_t i = 0; i < n; ++i) {
    if (!live.empty() && rng->NextDouble() < 0.35) {
      const uint64_t v = rng->UniformInt(live.size());
      ops.push_back(UpdateOp::Delete(live[v].second, live[v].first));
      live[v] = live.back();
      live.pop_back();
    } else {
      const double x = rng->NextDouble();
      const double y = rng->NextDouble();
      const Rect r{{x, y}, {x, y}};
      ops.push_back(UpdateOp::Insert(r, next_id));
      live.emplace_back(next_id, r);
      ++next_id;
    }
  }
  return ops;
}

// Replays `ops` in `batch`-sized drains against a fresh tree, with a WAL
// at the given group-commit window (0 = no WAL). Timing covers the
// post-warm-up drains only.
Measurement RunVariant(const std::string& path,
                       const std::vector<UpdateOp>& ops, uint32_t fanout,
                       uint64_t window, uint64_t batch, uint64_t buffer_pages,
                       uint64_t warmup_ops) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  auto store = storage::FilePageStore::Create(path);
  RTB_CHECK(store.ok());
  const auto config = rtree::RTreeConfig::WithFanout(fanout);

  Measurement m;
  double seconds = 0.0;
  {
    auto pool = storage::BufferPool::MakeLru(store->get(), buffer_pages);
    auto tree = rtree::RTree::Create(pool.get(), config);
    RTB_CHECK(tree.ok());
    std::unique_ptr<storage::WalWriter> wal;
    if (window > 0) {
      RTB_CHECK(store->get()->Sync().ok());
      storage::WalWriter::Options wopts;
      wopts.group_commit_window = window;
      auto created = storage::WalWriter::Create(path + ".wal", wopts);
      RTB_CHECK(created.ok());
      wal = std::move(*created);
      pool->AttachWal(wal.get());
      RTB_CHECK(pool->WalCheckpoint().ok());
    }
    rtree::UpdateBatchExecutor executor(&*tree);

    auto run_phase = [&](size_t begin, size_t end) {
      size_t done = begin;
      while (done < end) {
        const size_t chunk = std::min<size_t>(batch, end - done);
        RTB_CHECK(executor
                      .Run(std::span<const UpdateOp>(ops.data() + done, chunk))
                      .ok());
        done += chunk;
      }
    };

    run_phase(0, warmup_ops);
    const storage::WalStats warm =
        wal != nullptr ? wal->stats() : storage::WalStats{};
    const auto start = std::chrono::steady_clock::now();
    run_phase(warmup_ops, ops.size());
    const auto end = std::chrono::steady_clock::now();
    seconds = std::chrono::duration<double>(end - start).count();

    if (wal != nullptr) {
      const storage::WalStats total = wal->stats();
      m.commits = total.commits - warm.commits;
      m.fsyncs = total.fsyncs - warm.fsyncs;
      m.wal_records = total.records - warm.records;
      m.wal_bytes = total.bytes - warm.bytes;
    }
    m.writebacks = pool->stats().writebacks;
    m.spare_frames = pool->stats().spare_frames;
    RTB_CHECK(pool->Close().ok());
    if (wal != nullptr) RTB_CHECK(wal->Close().ok());

    const auto report =
        rtree::ValidateTree(store->get(), tree->root(), config,
                            {.check_min_fill = false});
    RTB_CHECK(report.ok);
    m.entries = report.num_data_entries;
  }

  const uint64_t measured_ops = ops.size() - warmup_ops;
  const double batches =
      static_cast<double>((measured_ops + batch - 1) / batch);
  m.batches_per_sec = seconds > 0.0 ? batches / seconds : 0.0;
  m.commits_per_sec =
      seconds > 0.0 ? static_cast<double>(m.commits) / seconds : 0.0;
  m.fsyncs_per_commit =
      m.commits > 0 ? static_cast<double>(m.fsyncs) / m.commits : 0.0;
  m.wal_bytes_per_commit =
      m.commits > 0 ? static_cast<double>(m.wal_bytes) / m.commits : 0.0;
  RTB_CHECK(store->get()->Close().ok());
  store->reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return m;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"seed", "1998"},
               {"ops", "24000"},
               {"warmup", "4000"},
               {"batch", "64"},
               {"fanout", "50"},
               // Sized to hold the working tree: evictions would force the
               // log early and mask the window's effect on fsyncs.
               {"buffer_pages", "1024"},
               {"path", "/tmp/rtb_micro_wal_commit.store"},
               {"json", ""}});
  const uint64_t seed = flags.GetInt("seed");
  const uint64_t n_ops = flags.GetInt("ops");
  const uint64_t batch = std::max<uint64_t>(1, flags.GetInt("batch"));
  const uint64_t warmup =
      std::min<uint64_t>(flags.GetInt("warmup"), n_ops) / batch * batch;
  const uint32_t fanout = static_cast<uint32_t>(flags.GetInt("fanout"));
  const uint64_t buffer_pages = flags.GetInt("buffer_pages");
  const std::string path = flags.GetString("path");

  Banner("micro: WAL group commit",
         "fsyncs per committed batch vs. group-commit window; " +
             Table::Int(n_ops) + " mixed updates in drains of " +
             Table::Int(batch) + ", fanout " + Table::Int(fanout) + ", " +
             Table::Int(buffer_pages) + "-page no-force pool",
         seed);

  Rng rng(seed + 23);
  const auto ops = MakeOps(n_ops, &rng);

  BenchReport report("micro_wal_commit");
  report.meta().PutInt("seed", seed);
  report.meta().PutInt("ops", n_ops);
  report.meta().PutInt("warmup", warmup);
  report.meta().PutInt("batch", batch);
  report.meta().PutInt("fanout", fanout);
  report.meta().PutInt("buffer_pages", buffer_pages);
  report.meta().PutInt("small_pool_pages", kSmallPoolPages);
  report.meta().PutBool("durable_sync", storage::DurableSyncActive());

  Table table({"config", "batches/s", "commits/s", "fsyncs/commit",
               "log bytes/commit"});
  auto add = [&](const std::string& name, const Measurement& m) {
    JsonDict& row = report.AddConfig(name);
    row.PutNum("batches_per_sec", m.batches_per_sec);
    row.PutNum("commits_per_sec", m.commits_per_sec);
    row.PutNum("fsyncs_per_commit", m.fsyncs_per_commit);
    row.PutNum("wal_bytes_per_commit", m.wal_bytes_per_commit);
    row.PutInt("commits", m.commits);
    row.PutInt("fsyncs", m.fsyncs);
    row.PutInt("wal_records", m.wal_records);
    row.PutInt("wal_bytes", m.wal_bytes);
    row.PutInt("writebacks", m.writebacks);
    row.PutInt("spare_frames", m.spare_frames);
    row.PutInt("entries_after", m.entries);
    table.AddRow({name, Table::Num(m.batches_per_sec, 0),
                  Table::Num(m.commits_per_sec, 0),
                  Table::Num(m.fsyncs_per_commit, 3),
                  Table::Num(m.wal_bytes_per_commit, 0)});
  };

  const Measurement off =
      RunVariant(path, ops, fanout, /*window=*/0, batch, buffer_pages, warmup);
  add("wal_off", off);

  Measurement window1;
  for (const uint64_t window : {uint64_t{1}, uint64_t{8}, uint64_t{32}}) {
    const Measurement m = RunVariant(path, ops, fanout, window, batch,
                                     buffer_pages, warmup);
    RTB_CHECK(m.entries == off.entries);
    RTB_CHECK(m.commits > 0);
    add("window_" + Table::Int(window), m);
    if (window == 1) {
      window1 = m;
    } else if (window >= 8) {
      // Group commit amortizes sync points at least 2x versus
      // commit-per-batch.
      RTB_CHECK(m.fsyncs_per_commit * 2.0 <= window1.fsyncs_per_commit);
    }
  }

  // A drain's dirty set outgrows the small pool: it commits in slices.
  // entries_after may differ from the other rows: the op stream deletes
  // some entries inserted earlier in the same drain, which a later slice
  // finds and a whole-drain batch (locating against its start) does not.
  const Measurement small =
      RunVariant(path, ops, fanout, /*window=*/8, batch, kSmallPoolPages,
                 warmup);
  RTB_CHECK(small.commits > window1.commits);
  add("window_8_smallpool", small);

  table.Print();
  if (!report.WriteFile(flags.GetString("json"))) return 1;
  return 0;
}

}  // namespace
}  // namespace rtb::bench

int main(int argc, char** argv) { return rtb::bench::Run(argc, argv); }
