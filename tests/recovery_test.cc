// Crash recovery of the durable write path (storage/wal.h +
// FilePageStore::OpenWithRecovery):
//
//   * unit redo/undo — a committed after-image that never reached the store
//     is replayed; an uncommitted stolen page is rolled back through its
//     before-image; a garbage log tail is discarded;
//   * the crash-point property — a deterministic mixed insert/delete
//     workload is crashed at EVERY I/O operation (store reads, writes,
//     allocations, syncs, and WAL sync points share one CrashClock budget),
//     with torn page and torn log writes mixed in. After every crash,
//     OpenWithRecovery must produce a structurally valid tree whose
//     leaf-entry set equals the workload state at the commit boundary the
//     durable log prefix ends on — never a torn hybrid of two batches. One
//     sweep shrinks the log bound so that online checkpoints (flush, store
//     sync, log truncation at a commit) fall inside the swept budgets.
//
// Runs with the DurableSync seam off; a "durable" byte here is a byte that
// reached the log or store file, which is exactly what the simulated crash
// (failing the process, not the kernel) preserves.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rtb.h"
#include "rtree/update_batch.h"
#include "rtree/validate.h"
#include "storage/fault_injection.h"
#include "storage/file_page_store.h"
#include "storage/wal.h"

namespace rtb::rtree {
namespace {

using geom::Rect;
using storage::BufferPool;
using storage::CrashClock;
using storage::CrashWalHook;
using storage::FaultInjectingPageStore;
using storage::FilePageStore;
using storage::PageId;
using storage::WalReader;
using storage::WalRecord;
using storage::WalRecordType;
using storage::WalRecoveryReport;
using storage::WalWriter;

constexpr size_t kPageSize = 512;
constexpr size_t kPoolPages = 8;  // Tiny on purpose: steals mid-batch.

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_durable_ = storage::DurableSyncActive();
    storage::SetDurableSync(false);
  }
  void TearDown() override { storage::SetDurableSync(was_durable_); }

  std::string Path(const char* name) {
    return ::testing::TempDir() + "/rtb_rec_" + std::to_string(::getpid()) +
           "_" + name;
  }

  bool was_durable_ = false;
};

std::vector<uint8_t> PageBytes(uint8_t seed) {
  std::vector<uint8_t> out(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    out[i] = static_cast<uint8_t>(seed + i);
  }
  return out;
}

TEST_F(RecoveryTest, OpenWithRecoveryWithoutALogIsAPlainOpen) {
  const std::string path = Path("no_log");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> content = PageBytes(1);
  ASSERT_TRUE((*store)->Allocate().ok());
  ASSERT_TRUE((*store)->Write(0, content.data()).ok());
  ASSERT_TRUE((*store)->Close().ok());

  WalRecoveryReport report;
  auto reopened = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                  &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(report.wal_found);
  std::vector<uint8_t> read(kPageSize);
  ASSERT_TRUE((*reopened)->Read(0, read.data()).ok());
  EXPECT_EQ(read, content);
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(RecoveryTest, RedoesACommittedImageTheStoreNeverSaw) {
  const std::string path = Path("redo");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> old_content = PageBytes(10);
  const std::vector<uint8_t> new_content = PageBytes(200);
  ASSERT_TRUE((*store)->Allocate().ok());
  ASSERT_TRUE((*store)->Write(0, old_content.data()).ok());
  ASSERT_TRUE((*store)->Sync().ok());

  auto wal = WalWriter::Create(path + ".wal");  // Window 1: commit forces.
  ASSERT_TRUE(wal.ok());
  (*wal)->AppendPageImage(0, new_content.data(), kPageSize);
  ASSERT_TRUE((*wal)->Commit(1).ok());
  // Crash before the no-force pool would ever have written the page: the
  // store still holds the old bytes, only the log has the new ones.
  (*store)->Abandon();
  wal->reset();

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.wal_found);
  EXPECT_EQ(report.redo_pages, 1u);
  EXPECT_EQ(report.undo_pages, 0u);
  std::vector<uint8_t> read(kPageSize);
  ASSERT_TRUE((*recovered)->Read(0, read.data()).ok());
  EXPECT_EQ(read, new_content);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(RecoveryTest, UndoesAnUncommittedStolenPage) {
  const std::string path = Path("undo");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> committed = PageBytes(30);
  const std::vector<uint8_t> stolen = PageBytes(140);
  ASSERT_TRUE((*store)->Allocate().ok());
  ASSERT_TRUE((*store)->Write(0, committed.data()).ok());
  ASSERT_TRUE((*store)->Sync().ok());

  auto wal = WalWriter::Create(path + ".wal");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Checkpoint(1).ok());
  // The steal protocol, by hand: before-image at first dirtying, then the
  // after-image made durable right before the eviction writes the page —
  // and then a crash with no commit in sight.
  (*wal)->AppendBeforeImage(0, committed.data(), kPageSize);
  const storage::Lsn after = (*wal)->AppendPageImage(0, stolen.data(),
                                                     kPageSize);
  ASSERT_TRUE((*wal)->EnsureDurable(after).ok());
  ASSERT_TRUE((*store)->Write(0, stolen.data()).ok());
  (*store)->Abandon();
  wal->reset();

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.redo_pages, 0u);
  EXPECT_EQ(report.undo_pages, 1u);
  std::vector<uint8_t> read(kPageSize);
  ASSERT_TRUE((*recovered)->Read(0, read.data()).ok());
  EXPECT_EQ(read, committed);  // Rolled back.
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(RecoveryTest, DiscardsAGarbageTailAndTruncatesTheLog) {
  const std::string path = Path("tail");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> content = PageBytes(55);
  ASSERT_TRUE((*store)->Allocate().ok());
  ASSERT_TRUE((*store)->Write(0, content.data()).ok());
  ASSERT_TRUE((*store)->Sync().ok());

  auto wal = WalWriter::Create(path + ".wal");
  ASSERT_TRUE(wal.ok());
  (*wal)->AppendPageImage(0, content.data(), kPageSize);
  ASSERT_TRUE((*wal)->Commit(1).ok());
  ASSERT_TRUE((*wal)->Close().ok());
  {
    // A torn group-commit write: garbage after the last whole record.
    std::FILE* f = std::fopen((path + ".wal").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[] = "torn torn torn";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  (*store)->Abandon();

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.tail_torn);
  EXPECT_GT(report.torn_bytes, 0u);
  EXPECT_EQ(report.redo_pages, 1u);
  ASSERT_TRUE((*recovered)->Close().ok());

  // Recovery truncated the log, so a second open has nothing to do.
  WalRecoveryReport second;
  auto again = FilePageStore::OpenWithRecovery(path, path + ".wal", &second);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(second.wal_found);
  EXPECT_FALSE(second.tail_torn);
  EXPECT_EQ(second.records_scanned, 0u);
  ASSERT_TRUE((*again)->Close().ok());
}

// ---------------------------------------------------------------------------
// The crash-point property test.
// ---------------------------------------------------------------------------

Rect ScriptRect(Rng& rng) {
  const double side = 0.004 + rng.NextDouble() * 0.05;
  const double x = rng.NextDouble() * (1.0 - side);
  const double y = rng.NextDouble() * (1.0 - side);
  return Rect(x, y, x + side, y + side);
}

// A deterministic batched workload plus its oracle: the sorted object-id
// set after every committed batch. Delete victims are drawn from entries
// present at batch start (the executor's specified semantics), never from
// same-batch inserts.
struct Script {
  std::vector<std::vector<UpdateOp>> batches;
  std::vector<std::vector<uint64_t>> ids_after;  // [0] = initial empty tree.
};

Script MakeScript(int num_batches, int batch_size, uint64_t seed) {
  Rng rng(seed);
  Script script;
  std::vector<std::pair<uint64_t, Rect>> live;
  uint64_t next_id = 1;
  script.ids_after.emplace_back();
  for (int b = 0; b < num_batches; ++b) {
    std::vector<UpdateOp> ops;
    std::vector<std::pair<uint64_t, Rect>> added;
    std::vector<bool> taken(live.size(), false);
    size_t num_taken = 0;
    for (int k = 0; k < batch_size; ++k) {
      if (rng.NextDouble() < 0.4 && num_taken < live.size()) {
        size_t v = static_cast<size_t>(
            rng.UniformInt(static_cast<uint64_t>(live.size())));
        while (taken[v]) v = (v + 1) % live.size();
        taken[v] = true;
        ++num_taken;
        ops.push_back(UpdateOp::Delete(live[v].second, live[v].first));
      } else {
        const Rect r = ScriptRect(rng);
        ops.push_back(UpdateOp::Insert(r, next_id));
        added.emplace_back(next_id, r);
        ++next_id;
      }
    }
    std::vector<std::pair<uint64_t, Rect>> next_live;
    for (size_t i = 0; i < live.size(); ++i) {
      if (!taken[i]) next_live.push_back(live[i]);
    }
    next_live.insert(next_live.end(), added.begin(), added.end());
    live = std::move(next_live);
    std::vector<uint64_t> ids;
    ids.reserve(live.size());
    for (const auto& [id, rect] : live) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    script.ids_after.push_back(std::move(ids));
    script.batches.push_back(std::move(ops));
  }
  return script;
}

struct CrashCase {
  uint64_t budget = UINT64_MAX;
  bool torn = false;
  uint64_t torn_bytes = 0;
  uint64_t window = 1;
  uint64_t checkpoint_bytes = storage::kWalCheckpointBytes;
};

// A checkpoint the run completed: its record's LSN and how many batches
// had committed when it was taken.
struct CheckpointMark {
  storage::Lsn lsn = 0;
  size_t batches = 0;
};

struct CrashOutcome {
  bool crashed = false;
  uint64_t ticks_used = 0;    // Meaningful for a clean (uncrashed) run.
  size_t batches_done = 0;
  // Tree meta after batch j (meta[0] = initial tree); on a crash one more
  // entry is appended with the in-memory meta at the crash, which is the
  // batch-complete meta whenever the dying batch's commit record made it
  // into the log (the only case that entry is consulted).
  std::vector<std::pair<PageId, uint16_t>> meta;
  // Every checkpoint the run completed: the setup one, each online one and,
  // on a clean run, the close one. The workload is deterministic, so LSNs
  // match across runs up to a crash, and a crashed run's log is read
  // against the clean run's marks.
  std::vector<CheckpointMark> checkpoints;
};

// Runs the scripted workload against a fresh store + WAL at `path`, with a
// crash armed after setup. On a crash, tears the simulated process down
// the way death does: buffered pages and the dead WAL writer are dropped,
// nothing is flushed, no headers are rewritten.
CrashOutcome RunWorkload(const Script& script, const std::string& path,
                         const CrashCase& cc) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  CrashClock clock;
  CrashWalHook hook(&clock);
  auto store = FilePageStore::Create(path, kPageSize);
  RTB_CHECK(store.ok());
  FaultInjectingPageStore faulty(store->get());
  std::unique_ptr<BufferPool> pool = BufferPool::MakeLru(&faulty, kPoolPages);
  auto tree = RTree::Create(pool.get(), RTreeConfig::WithFanout(8));
  RTB_CHECK(tree.ok());
  WalWriter::Options wopts;
  wopts.group_commit_window = cc.window;
  wopts.checkpoint_bytes = cc.checkpoint_bytes;
  wopts.fault_hook = &hook;
  auto wal = WalWriter::Create(path + ".wal", wopts);
  RTB_CHECK(wal.ok());
  pool->AttachWal(wal->get());
  RTB_CHECK(pool->WalCheckpoint().ok());  // Durable base: the empty tree.

  CrashOutcome out;
  out.meta.emplace_back(tree->root(), tree->height());
  out.checkpoints.push_back({(*wal)->last_lsn(), 0});

  clock.torn = cc.torn;
  clock.torn_bytes = cc.torn_bytes;
  clock.budget = cc.budget;  // Arm: every I/O from here on ticks.
  faulty.ArmCrash(&clock);

  UpdateBatchExecutor exec(&*tree);
  Status failure = Status::OK();
  for (const std::vector<UpdateOp>& batch : script.batches) {
    const uint64_t checkpoints = (*wal)->stats().checkpoints;
    failure = exec.Run(batch);
    if (!failure.ok()) break;
    ++out.batches_done;
    out.meta.emplace_back(tree->root(), tree->height());
    if ((*wal)->stats().checkpoints != checkpoints) {
      // The commit checkpointed online; its record is the log's last.
      out.checkpoints.push_back({(*wal)->last_lsn(), out.batches_done});
    }
  }
  if (failure.ok()) {
    // Clean shutdown: checkpoint (flush + store sync + log restart). Under
    // a tight budget the crash can land here too.
    failure = pool->Close();
    if (failure.ok()) failure = (*wal)->Close();
    if (failure.ok()) {
      out.checkpoints.push_back({(*wal)->last_lsn(), out.batches_done});
    }
  }
  out.crashed = !failure.ok();
  if (out.crashed) {
    out.meta.emplace_back(tree->root(), tree->height());
    pool->DiscardAll();          // Dirty pages die with the process.
    (void)(*wal)->Close();       // Dead writer; the sticky error is the
    wal->reset();                // crash itself, nothing reaches the log.
    (*store)->Abandon();         // No final header write, no final fsync.
  } else {
    out.ticks_used = cc.budget - clock.budget;
    RTB_CHECK((*store)->Close().ok());
  }
  return out;
}

// What the log's valid prefix says about the durable state.
struct LogSummary {
  bool any_records = false;
  // LSN of the last checkpoint record. The workload checkpoints at setup
  // (always lsn 1, the log's first record ever), online whenever a commit
  // leaves the log past its bound, and at clean shutdown; the clean run's
  // CheckpointMarks map this LSN to the batch count it anchors.
  storage::Lsn checkpoint_lsn = 0;
  size_t commits_after_checkpoint = 0;
};

LogSummary SummarizeLog(const std::string& wal_path) {
  LogSummary out;
  auto reader = WalReader::Open(wal_path);
  if (!reader.ok()) return out;
  WalRecord rec;
  while ((*reader)->Next(&rec)) {
    out.any_records = true;
    if (rec.type == WalRecordType::kCheckpoint) {
      out.checkpoint_lsn = rec.lsn;
      out.commits_after_checkpoint = 0;
    } else if (rec.type == WalRecordType::kCommit) {
      ++out.commits_after_checkpoint;
    }
  }
  return out;
}

// All leaf object ids of the tree rooted at `root`, read directly from the
// recovered store, sorted for multiset comparison.
std::vector<uint64_t> LeafIds(storage::PageStore* store, PageId root) {
  std::vector<uint64_t> out;
  std::vector<uint8_t> page(store->page_size());
  std::vector<PageId> stack{root};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    RTB_CHECK(store->Read(id, page.data()).ok());
    auto view = NodeView::Create(page.data(), store->page_size());
    RTB_CHECK(view.ok());
    for (uint16_t i = 0; i < view->count(); ++i) {
      if (view->is_leaf()) {
        out.push_back(view->entry(i).id);
      } else {
        stack.push_back(static_cast<PageId>(view->id(i)));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// `marks` are the checkpoints of the same case run without a crash.
void CheckCrashPoint(const Script& script, const std::string& path,
                     const CrashCase& cc,
                     const std::vector<CheckpointMark>& marks) {
  SCOPED_TRACE("budget=" + std::to_string(cc.budget) +
               " torn=" + std::to_string(cc.torn) +
               " torn_bytes=" + std::to_string(cc.torn_bytes) +
               " window=" + std::to_string(cc.window) +
               " checkpoint_bytes=" + std::to_string(cc.checkpoint_bytes));
  const CrashOutcome out = RunWorkload(script, path, cc);

  const LogSummary log = SummarizeLog(path + ".wal");
  size_t j;
  if (!log.any_records) {
    // A checkpoint truncated the log and died before its record was
    // durable. It had flushed every batch and synced the store first, so
    // the durable state is the one it was taken at: the batch whose commit
    // triggered it (online; that batch never returned), or the last batch
    // (at close).
    ASSERT_TRUE(out.crashed);
    j = std::min(out.batches_done + 1, script.batches.size());
  } else {
    // Anchored at a checkpoint the clean run also wrote: the durable state
    // is its batch count plus every commit record in the valid prefix.
    const auto mark =
        std::find_if(marks.begin(), marks.end(), [&](const CheckpointMark& m) {
          return m.lsn == log.checkpoint_lsn;
        });
    ASSERT_NE(mark, marks.end())
        << "checkpoint lsn " << log.checkpoint_lsn << " not in the clean run";
    j = mark->batches + log.commits_after_checkpoint;
  }
  ASSERT_LE(j, out.batches_done + 1);
  ASSERT_LT(j, out.meta.size());

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  const auto [root, height] = out.meta[j];
  ValidateOptions vopts;
  vopts.check_min_fill = false;  // Condensation mid-history is legitimate.
  const ValidationReport vr = ValidateTree(
      recovered->get(), root, RTreeConfig::WithFanout(8), vopts);
  ASSERT_TRUE(vr.ok) << (vr.issues.empty() ? "no issues" : vr.issues.front());

  EXPECT_EQ(LeafIds(recovered->get(), root), script.ids_after[j])
      << "recovered tree does not match commit boundary " << j;
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(RecoveryTest, EveryCrashPointRecoversToACommittedBoundary) {
  const Script script = MakeScript(/*num_batches=*/12, /*batch_size=*/12,
                                   /*seed=*/1234);
  const std::string path = Path("sweep_w4");
  const CrashOutcome base =
      RunWorkload(script, path, CrashCase{UINT64_MAX, false, 0, 4});
  ASSERT_FALSE(base.crashed);
  ASSERT_EQ(base.batches_done, script.batches.size());
  ASSERT_GT(base.ticks_used, 20u);

  // Crash at every single I/O operation of the deterministic run, with a
  // torn dying write (page- and log-tears alike) every third point.
  for (uint64_t b = 0; b < base.ticks_used; ++b) {
    CrashCase cc;
    cc.budget = b;
    cc.window = 4;
    cc.torn = b % 3 == 0;
    cc.torn_bytes = 1 + (b * 53) % kPageSize;
    CheckCrashPoint(script, path, cc, base.checkpoints);
  }
}

TEST_F(RecoveryTest, CrashSweepThroughOnlineCheckpoints) {
  const Script script = MakeScript(/*num_batches=*/12, /*batch_size=*/12,
                                   /*seed=*/4321);
  const std::string path = Path("sweep_online");
  CrashCase clean{UINT64_MAX, false, 0, 4};
  clean.checkpoint_bytes = 12 * 1024;  // A few batches of 512-byte images.
  const CrashOutcome base = RunWorkload(script, path, clean);
  ASSERT_FALSE(base.crashed);
  ASSERT_EQ(base.batches_done, script.batches.size());
  // Setup + close + several online checkpoints spread over the run.
  ASSERT_GE(base.checkpoints.size(), 2u + 3u);

  // Every crash point again: crashes now also land inside the online
  // checkpoints' flushes, store syncs and log restarts.
  for (uint64_t b = 0; b < base.ticks_used; ++b) {
    CrashCase cc = clean;
    cc.budget = b;
    cc.torn = b % 3 == 1;
    cc.torn_bytes = 1 + (b * 71) % kPageSize;
    CheckCrashPoint(script, path, cc, base.checkpoints);
  }
}

TEST_F(RecoveryTest, CrashSweepWithForcedCommits) {
  const Script script = MakeScript(/*num_batches=*/6, /*batch_size=*/10,
                                   /*seed=*/77);
  const std::string path = Path("sweep_w1");
  const CrashOutcome base =
      RunWorkload(script, path, CrashCase{UINT64_MAX, false, 0, 1});
  ASSERT_FALSE(base.crashed);

  // Window 1 syncs far more often; sample every other crash point.
  for (uint64_t b = 0; b < base.ticks_used; b += 2) {
    CrashCase cc;
    cc.budget = b;
    cc.window = 1;
    cc.torn = b % 2 == 0;
    cc.torn_bytes = 1 + (b * 131) % (kPageSize / 2);
    CheckCrashPoint(script, path, cc, base.checkpoints);
  }
}

TEST_F(RecoveryTest, CleanShutdownLeavesNothingToRecover) {
  const Script script = MakeScript(/*num_batches=*/4, /*batch_size=*/8,
                                   /*seed=*/5);
  const std::string path = Path("clean");
  const CrashOutcome out =
      RunWorkload(script, path, CrashCase{UINT64_MAX, false, 0, 8});
  ASSERT_FALSE(out.crashed);

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(report.wal_found);
  EXPECT_EQ(report.redo_pages, 0u);
  EXPECT_EQ(report.undo_pages, 0u);
  const auto [root, height] = out.meta.back();
  EXPECT_EQ(LeafIds(recovered->get(), root), script.ids_after.back());
  ASSERT_TRUE((*recovered)->Close().ok());
}

}  // namespace
}  // namespace rtb::rtree
