// Crash recovery of the durable write path (storage/wal.h +
// FilePageStore::OpenWithRecovery):
//
//   * unit redo — a committed after-image that never reached the store is
//     replayed; a garbage log tail is discarded;
//   * no-steal — no uncommitted byte ever reaches the store file, not even
//     when a batch dirties more pages than the pool holds (the pool takes
//     spare frames, and every data-file write carries an image whose commit
//     is already durable in the log);
//   * the crash-point property — a deterministic mixed insert/delete
//     workload is crashed at EVERY I/O operation (store reads, writes,
//     allocations, syncs, and WAL sync points share one CrashClock budget),
//     with torn page and torn log writes mixed in. The executor commits a
//     batch in slices sized to the 8-frame pool, so a durable prefix may
//     end between two slices of one batch. After every crash,
//     OpenWithRecovery must produce a structurally valid tree whose
//     leaf-entry set equals the exact op prefix of the commit the durable
//     log prefix ends on — never a torn hybrid. One sweep shrinks the log
//     bound so that online checkpoints (flush, store sync, log truncation
//     at a commit) fall inside the swept budgets.
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
// Tiny on purpose: batches commit in slices, and a slice's dirty set can
// still outgrow the pool, which then takes spare frames.
constexpr size_t kPoolPages = 8;

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
  std::vector<uint8_t> read(kPageSize);
  ASSERT_TRUE((*recovered)->Read(0, read.data()).ok());
  EXPECT_EQ(read, new_content);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(RecoveryTest, NoUncommittedPageReachesTheStore) {
  constexpr PageId kPages = 3 * kPoolPages;
  const std::string path = Path("no_steal");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_TRUE((*store)->Allocate().ok());
    ASSERT_TRUE((*store)->Write(id, PageBytes(id).data()).ok());
  }
  ASSERT_TRUE((*store)->Sync().ok());
  WalWriter::Options wopts;
  wopts.group_commit_window = 4;
  auto wal = WalWriter::Create(path + ".wal", wopts);
  ASSERT_TRUE(wal.ok());
  std::unique_ptr<BufferPool> pool =
      BufferPool::MakeLru(store->get(), kPoolPages);
  pool->AttachWal(wal->get());
  ASSERT_TRUE(pool->WalCheckpoint().ok());

  // One uncommitted change three times the pool's size: no frame may be
  // stolen, so the pool grows by spare frames instead.
  for (PageId id = 0; id < kPages; ++id) {
    auto page = pool->FetchMutable(id);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    const std::vector<uint8_t> next = PageBytes(static_cast<uint8_t>(100 + id));
    std::copy(next.begin(), next.end(), page->mutable_data());
  }
  EXPECT_EQ(pool->num_uncommitted(), size_t{kPages});
  EXPECT_EQ(pool->stats().spare_frames, uint64_t{kPages - kPoolPages});
  EXPECT_EQ(pool->stats().writebacks, 0u);
  ASSERT_TRUE(pool->FlushAll().ok());  // Skips every uncommitted page.
  std::vector<uint8_t> read(kPageSize);
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_TRUE((*store)->Read(id, read.data()).ok());
    EXPECT_EQ(read, PageBytes(id)) << "page " << id;
  }

  // The commit logs every page, then writes the spare frames' pages back
  // (its record durable first) and shrinks the pool to its capacity.
  auto commit = pool->WalCommit();
  ASSERT_TRUE(commit.ok());
  EXPECT_TRUE((*wal)->Durable(*commit));
  EXPECT_EQ(pool->num_uncommitted(), 0u);
  EXPECT_GE(pool->stats().writebacks, uint64_t{kPages - kPoolPages});

  // A crash now recovers every page's committed content.
  pool->DiscardAll();
  ASSERT_TRUE((*wal)->Close().ok());
  wal->reset();
  (*store)->Abandon();
  pool.reset();
  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.redo_pages, uint64_t{kPages});
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_TRUE((*recovered)->Read(id, read.data()).ok());
    EXPECT_EQ(read, PageBytes(static_cast<uint8_t>(100 + id)))
        << "page " << id;
  }
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
// set after every batch. Delete victims are drawn from entries present at
// batch start (the executor's specified semantics), never from same-batch
// inserts, so the set after any op prefix of a batch follows from the set
// before it (IdsAfter).
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

// Object ids after the first `ops` operations of batch `batch`.
std::vector<uint64_t> IdsAfter(const Script& script, size_t batch,
                               size_t ops) {
  std::vector<uint64_t> ids = script.ids_after[batch];
  for (size_t k = 0; k < ops; ++k) {
    const UpdateOp& op = script.batches[batch][k];
    if (op.kind == UpdateOp::Kind::kInsert) {
      ids.push_back(op.id);
    } else {
      ids.erase(std::find(ids.begin(), ids.end(), op.id));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct CrashCase {
  uint64_t budget = UINT64_MAX;
  bool torn = false;
  uint64_t torn_bytes = 0;
  uint64_t window = 1;
  uint64_t checkpoint_bytes = storage::kWalCheckpointBytes;
  // Frames held by permanently pinned pages outside the tree (as pinned
  // top levels hold them in serving). The executor sizes slices by the
  // pool's capacity, so pins push slices into the spare-frame path.
  size_t pinned = 0;
};

// One commit of the run: which batch, how many of its ops, and the tree it
// left (UpdateBatchExecutor::commits()).
struct CommitMark {
  size_t batch = 0;
  UpdateCommit commit;
};

struct CrashOutcome {
  bool crashed = false;
  uint64_t ticks_used = 0;    // Meaningful for a clean (uncrashed) run.
  size_t batches_done = 0;
  PageId initial_root = storage::kInvalidPageId;  // The empty tree.
  // Every commit the executor reported, in order. The workload is
  // deterministic, so slices and LSNs match across runs up to a crash, and
  // a crashed run's log is read against the clean run's commits. A crashed
  // run lacks the commit whose WalCommit failed (its record may still have
  // reached the log).
  std::vector<CommitMark> commits;
  uint64_t checkpoints = 0;  // Clean run: setup, online and close.
  uint64_t spare_frames = 0;
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
  for (size_t i = 0; i < cc.pinned; ++i) {
    auto page = pool->NewPage();
    RTB_CHECK(page.ok());
    const PageId id = page->page_id();
    page->Release();
    RTB_CHECK(pool->PinPermanently(id).ok());
  }
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
  out.initial_root = tree->root();

  clock.torn = cc.torn;
  clock.torn_bytes = cc.torn_bytes;
  clock.budget = cc.budget;  // Arm: every I/O from here on ticks.
  faulty.ArmCrash(&clock);

  UpdateBatchExecutor exec(&*tree);
  Status failure = Status::OK();
  for (size_t b = 0; b < script.batches.size(); ++b) {
    failure = exec.Run(script.batches[b]);
    for (const UpdateCommit& c : exec.commits()) {
      out.commits.push_back(CommitMark{b, c});
    }
    if (!failure.ok()) break;
    ++out.batches_done;
  }
  if (failure.ok()) {
    // Clean shutdown: checkpoint (flush + store sync + log restart). Under
    // a tight budget the crash can land here too.
    failure = pool->Close();
    if (failure.ok()) failure = (*wal)->Close();
    out.checkpoints = (*wal)->stats().checkpoints;
  }
  out.crashed = !failure.ok();
  out.spare_frames = pool->stats().spare_frames;
  if (out.crashed) {
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
  // The LSN the durable state ends on: the last commit record after the
  // last checkpoint, or that checkpoint's LSN when no commit follows it (a
  // checkpoint comes right after the commit that made it due, or at setup
  // and close).
  storage::Lsn durable_lsn = 0;
};

LogSummary SummarizeLog(const std::string& wal_path) {
  LogSummary out;
  auto reader = WalReader::Open(wal_path);
  if (!reader.ok()) return out;
  WalRecord rec;
  while ((*reader)->Next(&rec)) {
    out.any_records = true;
    if (rec.type == WalRecordType::kCheckpoint ||
        rec.type == WalRecordType::kCommit) {
      out.durable_lsn = rec.lsn;
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

// `clean` is the same case run without a crash.
void CheckCrashPoint(const Script& script, const std::string& path,
                     const CrashCase& cc, const CrashOutcome& clean) {
  SCOPED_TRACE("budget=" + std::to_string(cc.budget) +
               " torn=" + std::to_string(cc.torn) +
               " torn_bytes=" + std::to_string(cc.torn_bytes) +
               " window=" + std::to_string(cc.window) +
               " checkpoint_bytes=" + std::to_string(cc.checkpoint_bytes));
  const CrashOutcome out = RunWorkload(script, path, cc);

  // j = how many of the clean run's commits the durable state holds.
  const LogSummary log = SummarizeLog(path + ".wal");
  size_t j;
  if (!log.any_records) {
    // A checkpoint truncated the log and died before its record was
    // durable. It had flushed every commit and synced the store first, so
    // the durable state is the one it was taken at: after the commit that
    // made it due (online; that WalCommit never returned) or after the
    // last commit (at close).
    ASSERT_TRUE(out.crashed);
    j = std::min(out.commits.size() + 1, clean.commits.size());
  } else {
    j = static_cast<size_t>(std::count_if(
        clean.commits.begin(), clean.commits.end(),
        [&](const CommitMark& m) { return m.commit.lsn <= log.durable_lsn; }));
  }
  // At most one commit beyond those the crashed run saw return: the one
  // whose record reached the log as its sync point died.
  ASSERT_LE(j, out.commits.size() + 1);

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  PageId root = clean.initial_root;
  std::vector<uint64_t> expected = script.ids_after[0];
  if (j > 0) {
    const CommitMark& m = clean.commits[j - 1];
    root = m.commit.root;
    expected = IdsAfter(script, m.batch, m.commit.ops);
  }
  ValidateOptions vopts;
  vopts.check_min_fill = false;  // Condensation mid-history is legitimate.
  const ValidationReport vr = ValidateTree(
      recovered->get(), root, RTreeConfig::WithFanout(8), vopts);
  ASSERT_TRUE(vr.ok) << (vr.issues.empty() ? "no issues" : vr.issues.front());

  EXPECT_EQ(LeafIds(recovered->get(), root), expected)
      << "recovered tree does not match commit " << j;
  ASSERT_TRUE((*recovered)->Close().ok());
}

// A page store that checks every data-file write against the durable log:
// the bytes must be the page's latest image under a commit record that is
// already in the log file. An uncommitted byte reaching the store fails it.
class CommittedWritesOnly final : public storage::PageStore {
 public:
  CommittedWritesOnly(storage::PageStore* inner, std::string wal_path)
      : inner_(inner), wal_path_(std::move(wal_path)) {}

  size_t page_size() const override { return inner_->page_size(); }
  PageId num_pages() const override { return inner_->num_pages(); }
  Result<PageId> Allocate() override { return inner_->Allocate(); }
  Status ReadBatch(const PageId* ids, size_t n,
                   uint8_t* const* out) override {
    return inner_->ReadBatch(ids, n, out);
  }
  Status WriteBatch(const PageId* ids, size_t n,
                    const uint8_t* const* data) override {
    for (size_t i = 0; armed && i < n; ++i) Check(ids[i], data[i]);
    return inner_->WriteBatch(ids, n, data);
  }
  Status Sync() override { return inner_->Sync(); }
  storage::IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  bool armed = false;
  uint64_t checked = 0;

 private:
  void Check(PageId id, const uint8_t* data) {
    ++checked;
    auto reader = WalReader::Open(wal_path_);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<std::pair<PageId, std::vector<uint8_t>>> logged;
    std::vector<uint8_t> committed;
    bool found = false;
    WalRecord rec;
    while ((*reader)->Next(&rec)) {
      if (rec.type == WalRecordType::kPageImage) {
        if (rec.page_id == id) logged.emplace_back(id, rec.payload);
      } else if (rec.type == WalRecordType::kCommit) {
        if (!logged.empty()) {
          committed = logged.back().second;
          found = true;
        }
        logged.clear();
      }
    }
    ASSERT_TRUE(found) << "page " << id << " written before its commit";
    committed.resize(page_size(), 0);
    EXPECT_TRUE(std::equal(committed.begin(), committed.end(), data))
        << "page " << id << " written with uncommitted bytes";
  }

  storage::PageStore* inner_;
  std::string wal_path_;
};

TEST_F(RecoveryTest, SlicedBatchesNeverWriteUncommittedPages) {
  const std::string path = Path("committed_writes");
  auto file = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(file.ok());
  CommittedWritesOnly store(file->get(), path + ".wal");
  std::unique_ptr<BufferPool> pool = BufferPool::MakeLru(&store, kPoolPages);
  auto tree = RTree::Create(pool.get(), RTreeConfig::WithFanout(8));
  ASSERT_TRUE(tree.ok());
  auto wal = WalWriter::Create(path + ".wal", WalWriter::Options{4});
  ASSERT_TRUE(wal.ok());
  pool->AttachWal(wal->get());
  ASSERT_TRUE(pool->WalCheckpoint().ok());
  store.armed = true;

  // Batches of 60 whose dirty sets are several times the 8-frame pool:
  // the executor slices them, evictions write committed pages back, and
  // every one of those writes is checked against the log.
  const Script script = MakeScript(/*num_batches=*/4, /*batch_size=*/60,
                                   /*seed=*/31);
  UpdateBatchExecutor exec(&*tree);
  for (const std::vector<UpdateOp>& batch : script.batches) {
    ASSERT_TRUE(exec.Run(batch).ok());
    EXPECT_GT(exec.commits().size(), 1u);
  }
  EXPECT_GT(store.checked, 0u);
  ASSERT_FALSE(HasFailure());

  // A crash now recovers the last commit exactly.
  pool->DiscardAll();
  ASSERT_TRUE((*wal)->Close().ok());
  wal->reset();
  (*file)->Abandon();
  pool.reset();
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(LeafIds(recovered->get(), tree->root()), script.ids_after.back());
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
  // Batches commit in slices, so durable prefixes end mid-batch too.
  ASSERT_GT(base.commits.size(), script.batches.size());

  // Crash at every single I/O operation of the deterministic run, with a
  // torn dying write (page- and log-tears alike) every third point.
  for (uint64_t b = 0; b < base.ticks_used; ++b) {
    CrashCase cc;
    cc.budget = b;
    cc.window = 4;
    cc.torn = b % 3 == 0;
    cc.torn_bytes = 1 + (b * 53) % kPageSize;
    CheckCrashPoint(script, path, cc, base);
  }
}

TEST_F(RecoveryTest, CrashSweepThroughSpareFrames) {
  const Script script = MakeScript(/*num_batches=*/12, /*batch_size=*/12,
                                   /*seed=*/99);
  const std::string path = Path("sweep_spare");
  CrashCase clean{UINT64_MAX, false, 0, 4};
  clean.pinned = 5;
  const CrashOutcome base = RunWorkload(script, path, clean);
  ASSERT_FALSE(base.crashed);
  ASSERT_EQ(base.batches_done, script.batches.size());
  // Slices sized for eight frames meet a pool with only a few evictable:
  // some outgrow it and take spare frames, written back at their commit.
  ASSERT_GT(base.spare_frames, 0u);

  for (uint64_t b = 0; b < base.ticks_used; ++b) {
    CrashCase cc = clean;
    cc.budget = b;
    cc.torn = b % 3 == 2;
    cc.torn_bytes = 1 + (b * 37) % kPageSize;
    CheckCrashPoint(script, path, cc, base);
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
  ASSERT_GE(base.checkpoints, 2u + 3u);

  // Every crash point again: crashes now also land inside the online
  // checkpoints' flushes, store syncs and log restarts.
  for (uint64_t b = 0; b < base.ticks_used; ++b) {
    CrashCase cc = clean;
    cc.budget = b;
    cc.torn = b % 3 == 1;
    cc.torn_bytes = 1 + (b * 71) % kPageSize;
    CheckCrashPoint(script, path, cc, base);
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
    CheckCrashPoint(script, path, cc, base);
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
  EXPECT_EQ(LeafIds(recovered->get(), out.commits.back().commit.root),
            script.ids_after.back());
  ASSERT_TRUE((*recovered)->Close().ok());
}

}  // namespace
}  // namespace rtb::rtree
