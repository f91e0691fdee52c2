// Batched-vs-serial equivalence suite for rtree::UpdateBatchExecutor:
//
//   * batch of one — delegates to the serial Insert/Delete, so the whole
//     store image, the BufferStats and the IoStats are byte-identical to a
//     hand-run serial sequence (the same contract batch_size=1 queries
//     have);
//   * randomized mixed oracle — random insert/delete batches checked after
//     every batch against a plain multiset of (rect, id) pairs, with
//     ValidateTree holding throughout (delete victims are drawn from the
//     entries present at batch start, where the semantics are specified);
//   * logical equivalence — the same operation sequence applied batched and
//     tuple-at-a-time yields the same leaf-entry multiset and the same
//     query answers, even though the trees may differ structurally;
//   * structure torture — one huge insert batch into an empty tree (multi
//     -level root growth), batches that dissolve every node (empty-root
//     recovery), and interleaved grow/shrink cycles;
//   * slices — with a WAL attached the executor commits a batch in slices
//     sized to the pool; the sliced batch equals the serial oracle, and the
//     per-op delete_found flags stay right across slice boundaries;
//   * only changed pages are written — a batch of absent deletes dirties
//     and logs nothing, and inserts inside leaf MBRs dirty exactly their
//     leaves (the randomized oracle checks that parents stay tight, whole
//     and sliced);
//   * worker counts — the reads split over 1, 2 or 4 workers of a shared
//     LevelScheduler leave byte-identical store and WAL files and equal
//     counters, commits and per-op answers (a sliced, WAL-on batch with
//     splits, condensation, a duplicated entry and missing deletes);
//   * pinned top levels — with permanent pins over more than half of a
//     shard and no WAL, the read round leaves the apply its frames and the
//     batch still matches the oracle;
//   * write faults — an injected write fault during a batch leaves the
//     store decodable and the failed pages dirty, so a retried flush
//     completes the batch.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rtb.h"
#include "rtree/update_batch.h"
#include "rtree/validate.h"
#include "storage/fault_injection.h"
#include "storage/file_page_store.h"
#include "storage/sharded_buffer_pool.h"
#include "storage/wal.h"

namespace rtb::rtree {
namespace {

using geom::Point;
using geom::Rect;
using storage::BufferPool;
using storage::MemPageStore;
using storage::PageId;

Rect RandomRect(Rng& rng, double max_side) {
  const double x = rng.NextDouble() * (1.0 - max_side);
  const double y = rng.NextDouble() * (1.0 - max_side);
  return Rect(x, y, x + rng.NextDouble() * max_side,
              y + rng.NextDouble() * max_side);
}

struct TreeFixture {
  MemPageStore store;
  std::unique_ptr<BufferPool> pool;

  explicit TreeFixture(size_t pool_pages = 256)
      : store(storage::kDefaultPageSize),
        pool(BufferPool::MakeLru(&store, pool_pages)) {}
};

// Calls fn(page, view) for every leaf of the tree.
template <typename Fn>
void ForEachLeaf(const RTree& tree, Fn fn) {
  std::vector<PageId> stack{tree.root()};
  while (!stack.empty()) {
    const PageId page = stack.back();
    stack.pop_back();
    auto guard = tree.pool()->Fetch(page);
    RTB_CHECK(guard.ok());
    auto view = NodeView::Create(guard->data(), tree.pool()->page_size());
    RTB_CHECK(view.ok());
    if (view->is_leaf()) {
      fn(page, *view);
      continue;
    }
    for (uint16_t i = 0; i < view->count(); ++i) {
      stack.push_back(static_cast<PageId>(view->id(i)));
    }
  }
}

// All leaf entries of the tree, sorted so multisets compare with ==.
std::vector<Entry> LeafEntries(const RTree& tree) {
  std::vector<Entry> out;
  ForEachLeaf(tree, [&out](PageId, const NodeView& leaf) {
    for (uint16_t i = 0; i < leaf.count(); ++i) out.push_back(leaf.entry(i));
  });
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.id != b.id) return a.id < b.id;
    return a.rect.lo.x < b.rect.lo.x;
  });
  return out;
}

void ExpectValid(TreeFixture& fx, const RTree& tree,
                 const RTreeConfig& config) {
  ASSERT_TRUE(fx.pool->FlushAll().ok());
  ValidationReport report = ValidateTree(&fx.store, tree.root(), config);
  EXPECT_TRUE(report.ok) << (report.issues.empty() ? "no issues"
                                                   : report.issues.front());
}

// A window-1 WAL attached to a pool for one test: every commit is its own
// sync point, so the file holds every record, and the log starts at a
// checkpoint, with no page image in it.
class ScopedWal {
 public:
  ScopedWal(storage::PageCache* pool, const std::string& tag)
      : pool_(pool),
        path_(::testing::TempDir() + "/rtb_" + tag + "_" +
              std::to_string(::getpid()) + ".wal"),
        was_durable_(storage::DurableSyncActive()) {
    storage::SetDurableSync(false);
    auto wal = storage::WalWriter::Create(path_, {/*window=*/1});
    RTB_CHECK(wal.ok());
    wal_ = std::move(*wal);
    pool_->AttachWal(wal_.get());
    RTB_CHECK(pool_->WalCheckpoint().ok());
  }
  ScopedWal(const ScopedWal&) = delete;
  ScopedWal& operator=(const ScopedWal&) = delete;
  ~ScopedWal() {
    Detach();
    std::remove(path_.c_str());
    storage::SetDurableSync(was_durable_);
  }

  // Detaches and closes the log; returns every record after its checkpoint.
  std::vector<storage::WalRecord> Records() {
    Detach();
    auto reader = storage::WalReader::Open(path_);
    RTB_CHECK(reader.ok());
    std::vector<storage::WalRecord> out;
    storage::WalRecord record;
    while ((*reader)->Next(&record)) {
      if (record.type != storage::WalRecordType::kCheckpoint) {
        out.push_back(record);
      }
    }
    return out;
  }

 private:
  void Detach() {
    if (wal_ == nullptr) return;
    pool_->AttachWal(nullptr);
    RTB_CHECK(wal_->Close().ok());
    wal_.reset();
  }

  storage::PageCache* pool_;
  std::string path_;
  bool was_durable_;
  std::unique_ptr<storage::WalWriter> wal_;
};

// Whether every descent below `page` that follows only slots containing
// `r` — the only slots a least-enlargement ChooseSubtree picks for an `r`
// some leaf MBR contains — ends in a leaf with room for `room` more
// entries. Then inserting `r` changes one leaf and no MBR.
bool ContainingPathsEndWithRoom(const RTree& tree, PageId page, const Rect& r,
                                size_t room) {
  auto guard = tree.pool()->Fetch(page);
  RTB_CHECK(guard.ok());
  auto view = NodeView::Create(guard->data(), tree.pool()->page_size());
  RTB_CHECK(view.ok());
  if (view->is_leaf()) {
    return view->count() + room <= tree.config().max_entries;
  }
  bool any = false;
  for (uint16_t i = 0; i < view->count(); ++i) {
    if (!view->rect(i).Contains(r)) continue;
    any = true;
    if (!ContainingPathsEndWithRoom(tree, static_cast<PageId>(view->id(i)), r,
                                    room)) {
      return false;
    }
  }
  return any;
}

TEST(UpdateBatchTest, EmptyBatchIsANoOp) {
  TreeFixture fx;
  auto tree = RTree::Create(fx.pool.get(), RTreeConfig::WithFanout(8));
  ASSERT_TRUE(tree.ok());
  UpdateBatchExecutor exec(&*tree);
  UpdateBatchStats stats;
  ASSERT_TRUE(exec.Run({}, &stats).ok());
  EXPECT_EQ(stats.passes, 0u);
  EXPECT_EQ(*tree->CountEntries(), 0u);
}

TEST(UpdateBatchTest, RejectsEmptyRectInsert) {
  TreeFixture fx;
  auto tree = RTree::Create(fx.pool.get(), RTreeConfig::WithFanout(8));
  ASSERT_TRUE(tree.ok());
  UpdateBatchExecutor exec(&*tree);
  const UpdateOp ops[] = {UpdateOp::Insert(Rect(0.1, 0.1, 0.2, 0.2), 1),
                          UpdateOp::Insert(Rect::Empty(), 2)};
  EXPECT_EQ(exec.Run(ops).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(*tree->CountEntries(), 0u);  // Rejected before any mutation.
}

// A batch of one must be the serial path byte for byte: same store image,
// same buffer counters, same I/O counters.
TEST(UpdateBatchTest, BatchOfOneIsByteIdenticalToSerial) {
  const RTreeConfig config = RTreeConfig::WithFanout(8);
  TreeFixture serial_fx;
  TreeFixture batched_fx;
  auto serial_tree = RTree::Create(serial_fx.pool.get(), config);
  auto batched_tree = RTree::Create(batched_fx.pool.get(), config);
  ASSERT_TRUE(serial_tree.ok());
  ASSERT_TRUE(batched_tree.ok());
  UpdateBatchExecutor exec(&*batched_tree);

  Rng rng(7);
  std::vector<UpdateOp> history;
  for (int i = 0; i < 400; ++i) {
    UpdateOp op;
    const bool do_delete = !history.empty() && rng.NextDouble() < 0.3;
    if (do_delete) {
      const UpdateOp& victim =
          history[rng.UniformInt(static_cast<uint64_t>(history.size()))];
      op = UpdateOp::Delete(victim.rect, victim.id);
    } else {
      op = UpdateOp::Insert(RandomRect(rng, 0.05),
                            static_cast<ObjectId>(i));
      history.push_back(op);
    }
    if (op.kind == UpdateOp::Kind::kInsert) {
      ASSERT_TRUE(serial_tree->Insert(op.rect, op.id).ok());
    } else {
      ASSERT_TRUE(serial_tree->Delete(op.rect, op.id).ok());
    }
    ASSERT_TRUE(exec.Run({&op, 1}).ok());
  }

  EXPECT_EQ(serial_tree->root(), batched_tree->root());
  EXPECT_EQ(serial_tree->height(), batched_tree->height());

  const storage::BufferStats& a = serial_fx.pool->stats();
  const storage::BufferStats& b = batched_fx.pool->stats();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);

  ASSERT_TRUE(serial_fx.pool->FlushAll().ok());
  ASSERT_TRUE(batched_fx.pool->FlushAll().ok());
  const storage::IoStats sa = serial_fx.store.stats();
  const storage::IoStats sb = batched_fx.store.stats();
  EXPECT_EQ(sa.reads, sb.reads);
  EXPECT_EQ(sa.writes, sb.writes);
  EXPECT_EQ(sa.allocations, sb.allocations);

  ASSERT_EQ(serial_fx.store.num_pages(), batched_fx.store.num_pages());
  std::vector<uint8_t> pa(serial_fx.store.page_size());
  std::vector<uint8_t> pb(batched_fx.store.page_size());
  for (PageId id = 0; id < serial_fx.store.num_pages(); ++id) {
    ASSERT_TRUE(serial_fx.store.Read(id, pa.data()).ok());
    ASSERT_TRUE(batched_fx.store.Read(id, pb.data()).ok());
    ASSERT_EQ(pa, pb) << "page " << id << " diverged";
  }
}

// Random mixed batches against a plain multiset oracle, validating the
// tree after every batch, parents included: a node sends its parent a new
// slot only when its MBR differs from the slot the descent read, and
// ValidateTree requires every slot to equal its child's MBR. Covers splits,
// condensation and reinsertion under every batch size the loop reaches,
// with each batch run whole and, through a WAL-attached pool, in slices.
TEST(UpdateBatchTest, RandomizedMixedOracle) {
  for (const bool sliced : {false, true}) {
    for (const uint32_t fanout : {4u, 10u}) {
      SCOPED_TRACE(std::string(sliced ? "sliced" : "whole") + " fanout " +
                   std::to_string(fanout));
      const RTreeConfig config = RTreeConfig::WithFanout(fanout);
      TreeFixture fx(sliced ? 64 : 256);
      auto tree = RTree::Create(fx.pool.get(), config);
      ASSERT_TRUE(tree.ok());
      UpdateBatchExecutor exec(&*tree);
      std::unique_ptr<ScopedWal> wal;
      if (sliced) wal = std::make_unique<ScopedWal>(fx.pool.get(), "oracle");

      Rng rng(fanout * 97 + 1);
      std::vector<std::pair<Rect, ObjectId>> oracle;
      ObjectId next_id = 0;
      UpdateBatchStats stats;
      size_t commits = 0;
      for (int round = 0; round < 30; ++round) {
        const size_t batch = 1 + rng.UniformInt(97);
        std::vector<UpdateOp> ops;
        // Delete victims come from the batch-start oracle, each at most
        // once, so batched and oracle semantics agree (deleting an entry
        // inserted by the same batch is unspecified).
        const size_t start = oracle.size();
        std::vector<size_t> doomed;
        for (size_t k = 0; k < batch; ++k) {
          const bool do_delete =
              start > 0 && doomed.size() < start && rng.NextDouble() < 0.45;
          if (do_delete) {
            size_t v = rng.UniformInt(static_cast<uint64_t>(start));
            while (std::find(doomed.begin(), doomed.end(), v) !=
                   doomed.end()) {
              v = (v + 1) % start;
            }
            doomed.push_back(v);
            ops.push_back(
                UpdateOp::Delete(oracle[v].first, oracle[v].second));
          } else {
            const Rect r = RandomRect(rng, 0.08);
            ops.push_back(UpdateOp::Insert(r, next_id));
            oracle.emplace_back(r, next_id);
            ++next_id;
          }
        }
        // Apply the deletes to the oracle (descending index keeps the
        // earlier indices stable).
        std::sort(doomed.rbegin(), doomed.rend());
        for (size_t v : doomed) {
          oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(v));
        }

        ASSERT_TRUE(exec.Run(ops, &stats).ok());
        commits += exec.commits().size();
        ASSERT_NO_FATAL_FAILURE(ExpectValid(fx, *tree, config));

        std::vector<Entry> expect;
        expect.reserve(oracle.size());
        for (const auto& [r, id] : oracle) expect.push_back(Entry{r, id});
        std::sort(expect.begin(), expect.end(),
                  [](const Entry& a, const Entry& b) {
                    if (a.id != b.id) return a.id < b.id;
                    return a.rect.lo.x < b.rect.lo.x;
                  });
        ASSERT_EQ(LeafEntries(*tree), expect) << "round " << round;
      }
      EXPECT_EQ(stats.deletes_missing, 0u);
      EXPECT_GT(stats.splits, 0u);
      EXPECT_GT(stats.condensed_nodes, 0u);
      if (sliced) {
        EXPECT_GT(commits, 30u);
      }
    }
  }
}

// The same operation stream, batched vs tuple-at-a-time: same entry
// multiset, same query answers.
TEST(UpdateBatchTest, BatchedMatchesSerialLogically) {
  const RTreeConfig config = RTreeConfig::WithFanout(6);
  TreeFixture serial_fx;
  TreeFixture batched_fx;
  auto serial_tree = RTree::Create(serial_fx.pool.get(), config);
  auto batched_tree = RTree::Create(batched_fx.pool.get(), config);
  ASSERT_TRUE(serial_tree.ok());
  ASSERT_TRUE(batched_tree.ok());
  UpdateBatchExecutor exec(&*batched_tree);

  Rng rng(1234);
  std::vector<std::pair<Rect, ObjectId>> present;
  ObjectId next_id = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<UpdateOp> ops;
    // As above: victims only from the batch-start state.
    const size_t start = present.size();
    std::vector<size_t> doomed;
    for (int k = 0; k < 64; ++k) {
      const bool do_delete =
          start > 0 && doomed.size() < start && rng.NextDouble() < 0.35;
      if (do_delete) {
        size_t v = rng.UniformInt(static_cast<uint64_t>(start));
        while (std::find(doomed.begin(), doomed.end(), v) != doomed.end()) {
          v = (v + 1) % start;
        }
        doomed.push_back(v);
        ops.push_back(
            UpdateOp::Delete(present[v].first, present[v].second));
      } else {
        const Rect r = RandomRect(rng, 0.06);
        ops.push_back(UpdateOp::Insert(r, next_id));
        present.emplace_back(r, next_id);
        ++next_id;
      }
    }
    std::sort(doomed.rbegin(), doomed.rend());
    for (size_t v : doomed) {
      present.erase(present.begin() + static_cast<ptrdiff_t>(v));
    }

    for (const UpdateOp& op : ops) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        ASSERT_TRUE(serial_tree->Insert(op.rect, op.id).ok());
      } else {
        auto found = serial_tree->Delete(op.rect, op.id);
        ASSERT_TRUE(found.ok());
        ASSERT_TRUE(*found);
      }
    }
    ASSERT_TRUE(exec.Run(ops).ok());

    ASSERT_EQ(LeafEntries(*batched_tree), LeafEntries(*serial_tree))
        << "round " << round;
    for (int q = 0; q < 20; ++q) {
      const Rect query = RandomRect(rng, 0.2);
      std::vector<ObjectId> sa, sb;
      ASSERT_TRUE(serial_tree->Search(query, &sa).ok());
      ASSERT_TRUE(batched_tree->Search(query, &sb).ok());
      std::sort(sa.begin(), sa.end());
      std::sort(sb.begin(), sb.end());
      ASSERT_EQ(sb, sa);
    }
  }
}

// A WAL-attached (no-steal) pool makes the executor commit a batch in
// slices sized to the pool. The sliced batch must equal the serial
// oracle, and delete_found must be right for ops in every slice.
TEST(UpdateBatchTest, SlicedBatchMatchesSerialOracleAndFlagsDeletes) {
  const bool was_durable = storage::DurableSyncActive();
  storage::SetDurableSync(false);
  const RTreeConfig config = RTreeConfig::WithFanout(8);
  TreeFixture serial_fx;
  TreeFixture sliced_fx(/*pool_pages=*/24);
  auto serial_tree = RTree::Create(serial_fx.pool.get(), config);
  auto sliced_tree = RTree::Create(sliced_fx.pool.get(), config);
  ASSERT_TRUE(serial_tree.ok());
  ASSERT_TRUE(sliced_tree.ok());

  // Preload without a WAL: one batch, one slice.
  Rng rng(2024);
  std::vector<UpdateOp> preload;
  for (ObjectId id = 0; id < 300; ++id) {
    preload.push_back(UpdateOp::Insert(RandomRect(rng, 0.05), id));
  }
  UpdateBatchExecutor exec(&*sliced_tree);
  ASSERT_TRUE(exec.Run(preload).ok());
  EXPECT_EQ(exec.commits().size(), 1u);
  EXPECT_EQ(exec.commits()[0].lsn, storage::kNoLsn);
  for (const UpdateOp& op : preload) {
    ASSERT_TRUE(serial_tree->Insert(op.rect, op.id).ok());
  }

  const std::string wal_path = ::testing::TempDir() + "/rtb_slices_" +
                               std::to_string(::getpid()) + ".wal";
  auto wal = storage::WalWriter::Create(wal_path, {/*window=*/8});
  ASSERT_TRUE(wal.ok());
  sliced_fx.pool->AttachWal(wal->get());
  ASSERT_TRUE(sliced_fx.pool->WalCheckpoint().ok());

  // Deletes of preloaded entries (some twice: the second copy misses),
  // deletes of ids never inserted, and fresh inserts, interleaved.
  std::vector<UpdateOp> ops;
  for (int k = 0; k < 150; ++k) {
    const double u = rng.NextDouble();
    if (u < 0.4) {
      const UpdateOp& victim = preload[rng.UniformInt(preload.size())];
      ops.push_back(UpdateOp::Delete(victim.rect, victim.id));
    } else if (u < 0.5) {
      ops.push_back(UpdateOp::Delete(RandomRect(rng, 0.05), 100000 + k));
    } else {
      ops.push_back(UpdateOp::Insert(RandomRect(rng, 0.05), 1000 + k));
    }
  }
  std::vector<uint8_t> found;
  UpdateBatchStats stats;
  ASSERT_TRUE(exec.Run(ops, &stats, &found).ok());
  const std::vector<UpdateCommit>& commits = exec.commits();
  ASSERT_GT(commits.size(), 2u);
  for (size_t c = 1; c < commits.size(); ++c) {
    EXPECT_GT(commits[c].ops, commits[c - 1].ops);
    EXPECT_GT(commits[c].lsn, commits[c - 1].lsn);
  }
  EXPECT_EQ(commits.back().ops, ops.size());
  EXPECT_EQ(commits.back().root, sliced_tree->root());
  EXPECT_EQ(commits.back().height, sliced_tree->height());
  EXPECT_EQ(sliced_fx.pool->num_uncommitted(), 0u);

  ASSERT_EQ(found.size(), ops.size());
  uint64_t hits = 0;
  size_t hits_after_first_slice = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    uint8_t expect = 0;
    if (ops[i].kind == UpdateOp::Kind::kDelete) {
      auto deleted = serial_tree->Delete(ops[i].rect, ops[i].id);
      ASSERT_TRUE(deleted.ok());
      expect = *deleted ? 1 : 0;
    } else {
      ASSERT_TRUE(serial_tree->Insert(ops[i].rect, ops[i].id).ok());
    }
    EXPECT_EQ(found[i], expect) << "op " << i;
    hits += expect;
    if (expect != 0 && i >= commits.front().ops) ++hits_after_first_slice;
  }
  EXPECT_EQ(stats.deletes_found, hits);
  EXPECT_GT(hits_after_first_slice, 0u);
  EXPECT_GT(stats.deletes_missing, 0u);
  ASSERT_EQ(LeafEntries(*sliced_tree), LeafEntries(*serial_tree));

  sliced_fx.pool->AttachWal(nullptr);
  ASSERT_TRUE((*wal)->Close().ok());
  std::remove(wal_path.c_str());
  storage::SetDurableSync(was_durable);
}

// One huge batch into an empty tree: the root leaf absorbs everything,
// multi-splits, and the root may grow several levels in one pass.
TEST(UpdateBatchTest, HugeInsertBatchGrowsMultipleLevels) {
  const RTreeConfig config = RTreeConfig::WithFanout(4);
  TreeFixture fx;
  auto tree = RTree::Create(fx.pool.get(), config);
  ASSERT_TRUE(tree.ok());
  UpdateBatchExecutor exec(&*tree);

  Rng rng(5);
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 1000; ++i) {
    ops.push_back(UpdateOp::Insert(RandomRect(rng, 0.02),
                                   static_cast<ObjectId>(i)));
  }
  UpdateBatchStats stats;
  ASSERT_TRUE(exec.Run(ops, &stats).ok());
  EXPECT_GT(tree->height(), 2u);
  EXPECT_EQ(*tree->CountEntries(), 1000u);
  EXPECT_GT(stats.splits, 0u);
  ASSERT_NO_FATAL_FAILURE(ExpectValid(fx, *tree, config));
}

// Deleting everything in one batch dissolves every node, exercising the
// empty-root recovery, and leaves a working empty tree.
TEST(UpdateBatchTest, DeleteEverythingRecoversEmptyRoot) {
  const RTreeConfig config = RTreeConfig::WithFanout(4);
  TreeFixture fx;
  auto tree = RTree::Create(fx.pool.get(), config);
  ASSERT_TRUE(tree.ok());
  UpdateBatchExecutor exec(&*tree);

  Rng rng(17);
  std::vector<UpdateOp> inserts;
  for (int i = 0; i < 300; ++i) {
    inserts.push_back(UpdateOp::Insert(RandomRect(rng, 0.03),
                                       static_cast<ObjectId>(i)));
  }
  ASSERT_TRUE(exec.Run(inserts).ok());
  ASSERT_EQ(*tree->CountEntries(), 300u);

  std::vector<UpdateOp> deletes;
  for (const UpdateOp& op : inserts) {
    deletes.push_back(UpdateOp::Delete(op.rect, op.id));
  }
  UpdateBatchStats stats;
  ASSERT_TRUE(exec.Run(deletes, &stats).ok());
  EXPECT_EQ(stats.deletes_found, 300u);
  EXPECT_EQ(stats.deletes_missing, 0u);
  EXPECT_EQ(*tree->CountEntries(), 0u);
  EXPECT_EQ(tree->height(), 1u);
  ASSERT_NO_FATAL_FAILURE(ExpectValid(fx, *tree, config));

  // The recovered tree keeps working.
  ASSERT_TRUE(exec.Run(inserts).ok());
  EXPECT_EQ(*tree->CountEntries(), 300u);
  ASSERT_NO_FATAL_FAILURE(ExpectValid(fx, *tree, config));
}

// Deletes of entries that never existed are reported missing and leave the
// tree untouched.
TEST(UpdateBatchTest, MissingDeletesAreCounted) {
  const RTreeConfig config = RTreeConfig::WithFanout(8);
  TreeFixture fx;
  auto tree = RTree::Create(fx.pool.get(), config);
  ASSERT_TRUE(tree.ok());
  UpdateBatchExecutor exec(&*tree);

  Rng rng(23);
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 50; ++i) {
    ops.push_back(UpdateOp::Insert(RandomRect(rng, 0.05),
                                   static_cast<ObjectId>(i)));
  }
  ASSERT_TRUE(exec.Run(ops).ok());

  std::vector<UpdateOp> misses;
  for (int i = 0; i < 10; ++i) {
    misses.push_back(
        UpdateOp::Delete(RandomRect(rng, 0.05), 1000 + ObjectId(i)));
  }
  UpdateBatchStats stats;
  ASSERT_TRUE(exec.Run(misses, &stats).ok());
  EXPECT_EQ(stats.deletes_found, 0u);
  EXPECT_EQ(stats.deletes_missing, 10u);
  EXPECT_EQ(*tree->CountEntries(), 50u);
}

// Within one pass each mutated node is pinned mutably exactly once, no
// matter how many operations land on it: a batch of k inserts into a
// one-leaf tree mutates one page.
TEST(UpdateBatchTest, GroupByLeafPinsEachDirtyPageOnce) {
  const RTreeConfig config = RTreeConfig::WithFanout(100);
  TreeFixture fx;
  auto tree = RTree::Create(fx.pool.get(), config);
  ASSERT_TRUE(tree.ok());
  UpdateBatchExecutor exec(&*tree);

  Rng rng(31);
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 50; ++i) {
    ops.push_back(UpdateOp::Insert(RandomRect(rng, 0.05),
                                   static_cast<ObjectId>(i)));
  }
  UpdateBatchStats stats;
  ASSERT_TRUE(exec.Run(ops, &stats).ok());
  EXPECT_EQ(stats.pages_mutated, 1u);  // All 50 fit the one root leaf.
  EXPECT_EQ(stats.inserts, 50u);
}

// A delete fans out to every leaf whose MBR contains its rectangle. When
// none of them holds the entry nothing changed, so nothing is dirtied: no
// page counts as mutated, the commit logs no page image and a flush writes
// nothing.
TEST(UpdateBatchTest, AbsentDeletesDirtyAndLogNothing) {
  const RTreeConfig config = RTreeConfig::WithFanout(8);
  TreeFixture fx;
  auto tree = RTree::Create(fx.pool.get(), config);
  ASSERT_TRUE(tree.ok());
  UpdateBatchExecutor exec(&*tree);

  Rng rng(61);
  std::vector<UpdateOp> preload;
  for (int i = 0; i < 600; ++i) {
    preload.push_back(UpdateOp::Insert(RandomRect(rng, 0.1),
                                       static_cast<ObjectId>(i)));
  }
  ASSERT_TRUE(exec.Run(preload).ok());

  // Absent entries whose rectangle at least three leaf MBRs contain.
  std::vector<Rect> leaf_mbrs;
  ForEachLeaf(*tree, [&leaf_mbrs](PageId, const NodeView& leaf) {
    leaf_mbrs.push_back(leaf.Mbr());
  });
  std::vector<UpdateOp> ops;
  for (int tries = 0; ops.size() < 40 && tries < 100000; ++tries) {
    const double x = rng.NextDouble() * 0.99;
    const double y = rng.NextDouble() * 0.99;
    const Rect r(x, y, x + 0.001, y + 0.001);
    const auto holders =
        std::count_if(leaf_mbrs.begin(), leaf_mbrs.end(),
                      [&r](const Rect& mbr) { return mbr.Contains(r); });
    if (holders >= 3) {
      ops.push_back(UpdateOp::Delete(r, 100000 + ObjectId(ops.size())));
    }
  }
  ASSERT_EQ(ops.size(), 40u);

  ScopedWal wal(fx.pool.get(), "absent_deletes");
  const uint64_t writes_before = fx.store.stats().writes;
  UpdateBatchStats stats;
  ASSERT_TRUE(exec.Run(ops, &stats).ok());
  EXPECT_EQ(stats.deletes_missing, ops.size());
  EXPECT_EQ(stats.pages_mutated, 0u);
  EXPECT_EQ(fx.pool->num_uncommitted(), 0u);
  ASSERT_TRUE(fx.pool->FlushAll().ok());
  EXPECT_EQ(fx.store.stats().writes, writes_before);

  // Only the commit records are new.
  const std::vector<storage::WalRecord> records = wal.Records();
  EXPECT_EQ(records.size(), exec.commits().size());
  for (const storage::WalRecord& record : records) {
    EXPECT_EQ(record.type, storage::WalRecordType::kCommit);
  }
}

// Inserts whose rectangles lie inside leaf MBRs with room change those
// leaves and nothing above them: the batch dirties, counts and logs exactly
// its distinct target leaves and no internal page.
TEST(UpdateBatchTest, InsertsInsideLeafMbrsDirtyOnlyTheirLeaves) {
  const RTreeConfig config = RTreeConfig::WithFanout(32);
  TreeFixture fx;
  auto tree = RTree::Create(fx.pool.get(), config);
  ASSERT_TRUE(tree.ok());
  UpdateBatchExecutor exec(&*tree);

  // Preloaded in batches of 100, so splits leave leaves with room.
  Rng rng(67);
  for (int b = 0; b < 20; ++b) {
    std::vector<UpdateOp> preload;
    for (int i = 0; i < 100; ++i) {
      preload.push_back(UpdateOp::Insert(RandomRect(rng, 0.02),
                                         static_cast<ObjectId>(b * 100 + i)));
    }
    ASSERT_TRUE(exec.Run(preload).ok());
  }
  ASSERT_GE(tree->height(), 3u);

  constexpr size_t kInserts = 12;
  constexpr ObjectId kFirstId = 50000;
  std::vector<UpdateOp> ops;
  for (int tries = 0; ops.size() < kInserts && tries < 100000; ++tries) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    const Rect r(x, y, x, y);
    if (ContainingPathsEndWithRoom(*tree, tree->root(), r, kInserts)) {
      ops.push_back(UpdateOp::Insert(r, kFirstId + ObjectId(ops.size())));
    }
  }
  ASSERT_EQ(ops.size(), kInserts);

  ScopedWal wal(fx.pool.get(), "inside_inserts");
  UpdateBatchStats stats;
  ASSERT_TRUE(exec.Run(ops, &stats).ok());
  ASSERT_EQ(stats.splits, 0u);

  // The leaves the inserts landed in.
  std::vector<PageId> targets;
  ForEachLeaf(*tree, [&targets](PageId page, const NodeView& leaf) {
    for (uint16_t i = 0; i < leaf.count(); ++i) {
      if (leaf.id(i) >= kFirstId) {
        targets.push_back(page);
        return;
      }
    }
  });
  ASSERT_GE(targets.size(), 2u);
  EXPECT_EQ(stats.pages_mutated, targets.size());

  std::vector<PageId> logged;
  for (const storage::WalRecord& record : wal.Records()) {
    if (record.type == storage::WalRecordType::kPageImage) {
      logged.push_back(record.page_id);
    }
  }
  std::sort(targets.begin(), targets.end());
  std::sort(logged.begin(), logged.end());
  EXPECT_EQ(logged, targets);
}

// The node at `page` of `store`.
Node ReadNode(storage::PageStore* store, PageId page) {
  std::vector<uint8_t> buf(store->page_size());
  RTB_CHECK(store->Read(page, buf.data()).ok());
  auto node = DeserializeNode(buf.data(), buf.size());
  RTB_CHECK(node.ok());
  return *node;
}

void WriteNode(storage::PageStore* store, PageId page, const Node& node) {
  std::vector<uint8_t> buf(store->page_size());
  RTB_CHECK(SerializeNode(node, buf.size(), buf.data()).ok());
  RTB_CHECK(store->Write(page, buf.data()).ok());
}

// The first level-1 node below `root` (first slots all the way down).
PageId FirstLevelOneNode(storage::PageStore* store, PageId root) {
  PageId page = root;
  for (Node node = ReadNode(store, page); node.level > 1;
       node = ReadNode(store, page)) {
    page = static_cast<PageId>(node.entries.front().id);
  }
  return page;
}

// Copies the first entry of the first leaf below FirstLevelOneNode over the
// last entry of the second leaf there and widens that leaf's slot, so one
// (rect, id) sits in two leaves. Returns the copied entry.
Entry DuplicateIntoSibling(storage::PageStore* store, PageId root) {
  const PageId parent_page = FirstLevelOneNode(store, root);
  Node parent = ReadNode(store, parent_page);
  RTB_CHECK(parent.entries.size() >= 2);
  const PageId a = static_cast<PageId>(parent.entries[0].id);
  const PageId b = static_cast<PageId>(parent.entries[1].id);
  const Entry dup = ReadNode(store, a).entries.front();
  Node leaf = ReadNode(store, b);
  leaf.entries.back() = dup;
  WriteNode(store, b, leaf);
  parent.entries[1].rect = geom::Union(parent.entries[1].rect, dup.rect);
  WriteNode(store, parent_page, parent);
  return dup;
}

// Reads the whole file at `path`.
std::vector<uint8_t> FileBytes(const std::string& path) {
  std::vector<uint8_t> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  RTB_CHECK(f != nullptr);
  uint8_t buf[1 << 14];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

// What one sliced, WAL-on batch left behind.
struct WorkerRun {
  std::vector<uint8_t> store_bytes;
  std::vector<uint8_t> wal_bytes;
  storage::BufferStats buffer;
  UpdateBatchStats stats;
  std::vector<UpdateCommit> commits;
  std::vector<uint8_t> found;
  uint64_t parallel_levels = 0;
};

// Bulk-loads `rects` into a fresh file store, duplicates one entry into a
// sibling leaf (DuplicateIntoSibling), and runs `ops` through an executor on
// a `workers`-worker scheduler over an 8-shard pool with a WAL attached.
WorkerRun RunOnWorkers(const std::vector<Rect>& rects,
                       const RTreeConfig& config,
                       const std::vector<UpdateOp>& ops, size_t workers) {
  const std::string base = ::testing::TempDir() + "/rtb_workers_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(workers);
  auto store = storage::FilePageStore::Create(base + ".store");
  RTB_CHECK(store.ok());
  auto built =
      BuildRTree(store->get(), config, rects, LoadAlgorithm::kHilbertSort);
  RTB_CHECK(built.ok());
  DuplicateIntoSibling(store->get(), built->root);

  WorkerRun run;
  {
    auto pool = storage::ShardedBufferPool::MakeLru(store->get(), 1024, 8);
    RTB_CHECK(pool->num_shards() == 8);
    auto wal = storage::WalWriter::Create(base + ".wal", {/*window=*/4});
    RTB_CHECK(wal.ok());
    pool->AttachWal(wal->get());
    RTB_CHECK(pool->WalCheckpoint().ok());
    auto tree = RTree::Open(pool.get(), config, built->root, built->height);
    RTB_CHECK(tree.ok());
    LevelScheduler scheduler(pool.get(), workers);
    RTB_CHECK(scheduler.workers() == workers);
    UpdateBatchExecutor exec(&*tree, &scheduler);
    RTB_CHECK(exec.Run(ops, &run.stats, &run.found).ok());
    run.commits = exec.commits();
    run.buffer = pool->AggregateStats();
    run.parallel_levels = scheduler.stats().parallel_levels;
    pool->AttachWal(nullptr);
    RTB_CHECK((*wal)->Close().ok());
    RTB_CHECK(pool->Close().ok());
  }
  RTB_CHECK((*store)->Close().ok());
  run.wal_bytes = FileBytes(base + ".wal");
  run.store_bytes = FileBytes(base + ".store");
  std::remove((base + ".wal").c_str());
  std::remove((base + ".store").c_str());
  return run;
}

// The worker count changes nothing a batch leaves behind: the reads (Locate
// levels and the read round of the target pages) split over 1, 2 or 4
// workers by shard, while every change to the tree stays on the calling
// thread in page order. One sliced, WAL-on batch with leaf and root splits,
// a condensed leaf, a delete of a (rect, id) held by two leaves and deletes
// that miss leaves the same store bytes, WAL bytes, BufferStats,
// UpdateBatchStats, commits and per-op answers for every worker count.
TEST(UpdateBatchTest, WorkerCountLeavesPagesStatsAndLogUnchanged) {
  const bool was_durable = storage::DurableSyncActive();
  storage::SetDurableSync(false);
  // 8^5 points at fanout 8: a packed tree of height 5 whose every node is
  // full, so an insert splits its way up to the root.
  const RTreeConfig config = RTreeConfig::WithFanout(8);
  Rng rng(4242);
  const std::vector<Rect> rects = data::GenerateUniformPoints(32768, &rng);

  std::vector<UpdateOp> ops;
  {
    // The tree as bulk-loaded and patched: six of the eight entries of the
    // third leaf below the first level-1 node go, so that leaf drops below
    // min_entries (3) and is condensed; the duplicated entry goes once, from
    // the lower-numbered of its two leaves.
    MemPageStore scratch(storage::kDefaultPageSize);
    auto built =
        BuildRTree(&scratch, config, rects, LoadAlgorithm::kHilbertSort);
    ASSERT_TRUE(built.ok());
    const Entry dup = DuplicateIntoSibling(&scratch, built->root);
    const Node parent =
        ReadNode(&scratch, FirstLevelOneNode(&scratch, built->root));
    ASSERT_GE(parent.entries.size(), 3u);
    const Node condensed =
        ReadNode(&scratch, static_cast<PageId>(parent.entries[2].id));
    ASSERT_EQ(condensed.entries.size(), 8u);
    for (size_t i = 0; i < 6; ++i) {
      ops.push_back(UpdateOp::Delete(condensed.entries[i].rect,
                                     condensed.entries[i].id));
    }
    ops.push_back(UpdateOp::Delete(dup.rect, dup.id));
  }
  for (int i = 0; i < 400; ++i) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    ops.push_back(UpdateOp::Insert(Rect(x, y, x, y), 100000 + i));
    if (i % 10 == 0) {
      ops.push_back(UpdateOp::Delete(Rect(x, y, x, y), 900000 + i));
    }
  }

  const WorkerRun one = RunOnWorkers(rects, config, ops, 1);
  ASSERT_GT(one.commits.size(), 2u) << "the batch must commit in slices";
  ASSERT_GT(one.commits.back().height, 5u) << "the root must split";
  ASSERT_GT(one.stats.splits, 0u);
  ASSERT_GT(one.stats.condensed_nodes, 0u);
  ASSERT_EQ(one.stats.deletes_found, 7u);
  ASSERT_EQ(one.stats.deletes_missing, 40u);
  ASSERT_GT(one.parallel_levels, 0u) << "some levels must split by shard";
  ASSERT_GT(one.buffer.evictions, 0u) << "the pool must be under pressure";
  for (const size_t workers : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    const WorkerRun many = RunOnWorkers(rects, config, ops, workers);
    EXPECT_TRUE(many.store_bytes == one.store_bytes);
    EXPECT_TRUE(many.wal_bytes == one.wal_bytes);
    EXPECT_EQ(many.buffer.requests, one.buffer.requests);
    EXPECT_EQ(many.buffer.hits, one.buffer.hits);
    EXPECT_EQ(many.buffer.misses, one.buffer.misses);
    EXPECT_EQ(many.buffer.evictions, one.buffer.evictions);
    EXPECT_EQ(many.buffer.writebacks, one.buffer.writebacks);
    EXPECT_EQ(many.buffer.spare_frames, one.buffer.spare_frames);
    EXPECT_EQ(many.stats.inserts, one.stats.inserts);
    EXPECT_EQ(many.stats.deletes_found, one.stats.deletes_found);
    EXPECT_EQ(many.stats.deletes_missing, one.stats.deletes_missing);
    EXPECT_EQ(many.stats.node_accesses, one.stats.node_accesses);
    EXPECT_EQ(many.stats.pages_mutated, one.stats.pages_mutated);
    EXPECT_EQ(many.stats.splits, one.stats.splits);
    EXPECT_EQ(many.stats.condensed_nodes, one.stats.condensed_nodes);
    EXPECT_EQ(many.stats.passes, one.stats.passes);
    EXPECT_EQ(many.stats.commits, one.stats.commits);
    ASSERT_EQ(many.commits.size(), one.commits.size());
    for (size_t c = 0; c < one.commits.size(); ++c) {
      EXPECT_EQ(many.commits[c].ops, one.commits[c].ops);
      EXPECT_EQ(many.commits[c].lsn, one.commits[c].lsn);
      EXPECT_EQ(many.commits[c].root, one.commits[c].root);
      EXPECT_EQ(many.commits[c].height, one.commits[c].height);
    }
    EXPECT_EQ(many.found, one.found);
    EXPECT_EQ(many.parallel_levels, one.parallel_levels);
  }
  storage::SetDurableSync(was_durable);
}

// Permanently pinned top levels (as sim::PinTopLevels leaves them) take more
// than half of the pool's one shard, and no WAL is attached. The read round
// holds only part of what the shard can still pin, so a batch that reads
// more target leaves than fit beside the pins still succeeds on a serial
// and on a sharded pool, and leaves the oracle's entries in a valid tree.
TEST(UpdateBatchTest, ReadRoundFitsBesidePermanentPins) {
  // 8^4 points at fanout 8: a packed tree of height 4 whose top two levels
  // are 9 pages, more than half of a 16-frame pool.
  const RTreeConfig config = RTreeConfig::WithFanout(8);
  constexpr size_t kFrames = 16;
  Rng rng(5150);
  const std::vector<Rect> rects = data::GenerateUniformPoints(4096, &rng);
  std::vector<UpdateOp> ops;
  std::vector<Entry> expect;
  for (size_t i = 0; i < rects.size(); ++i) {
    if (i % 64 == 0) {
      ops.push_back(UpdateOp::Delete(rects[i], static_cast<ObjectId>(i)));
    } else {
      expect.push_back(Entry{rects[i], static_cast<ObjectId>(i)});
    }
  }
  for (int i = 0; i < 200; ++i) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    ops.push_back(UpdateOp::Insert(Rect(x, y, x, y), 100000 + i));
    expect.push_back(Entry{Rect(x, y, x, y), static_cast<ObjectId>(100000 + i)});
    if (i % 20 == 0) {
      ops.push_back(UpdateOp::Delete(Rect(x, y, x, y), 900000 + i));
    }
  }
  std::sort(expect.begin(), expect.end(), [](const Entry& a, const Entry& b) {
    if (a.id != b.id) return a.id < b.id;
    return a.rect.lo.x < b.rect.lo.x;
  });

  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded pool" : "serial pool");
    MemPageStore store(storage::kDefaultPageSize);
    auto built =
        BuildRTree(&store, config, rects, LoadAlgorithm::kHilbertSort);
    ASSERT_TRUE(built.ok());
    ASSERT_EQ(built->height, 4u);
    std::unique_ptr<storage::PageCache> pool;
    if (sharded) {
      pool = storage::ShardedBufferPool::MakeLru(&store, kFrames, 1);
    } else {
      pool = BufferPool::MakeLru(&store, kFrames);
    }
    ASSERT_TRUE(pool->PinPermanently(built->root).ok());
    for (const Entry& e : ReadNode(&store, built->root).entries) {
      ASSERT_TRUE(pool->PinPermanently(static_cast<PageId>(e.id)).ok());
    }
    ASSERT_GT(pool->num_permanent_pins(), kFrames / 2);

    auto tree = RTree::Open(pool.get(), config, built->root, built->height);
    ASSERT_TRUE(tree.ok());
    UpdateBatchExecutor exec(&*tree);
    UpdateBatchStats stats;
    const Status status = exec.Run(ops, &stats);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(stats.deletes_found, 64u);
    EXPECT_EQ(stats.deletes_missing, 10u);
    EXPECT_GT(stats.splits, 0u);
    EXPECT_EQ(LeafEntries(*tree), expect);
    ASSERT_TRUE(pool->FlushAll().ok());
    ValidationReport report = ValidateTree(&store, tree->root(), config);
    EXPECT_TRUE(report.ok) << (report.issues.empty() ? "no issues"
                                                     : report.issues.front());
  }
}

// An injected write fault during the batch surfaces as an error, the store
// stays decodable, and the failed pages stay dirty so a retried flush
// completes the work.
TEST(UpdateBatchTest, WriteFaultLeavesDirtyPagesForRetry) {
  const RTreeConfig config = RTreeConfig::WithFanout(4);
  MemPageStore base(storage::kDefaultPageSize);
  storage::FaultInjectingPageStore store(&base);
  // A tiny pool forces eviction writebacks mid-batch.
  auto pool = BufferPool::MakeLru(&store, 8);
  auto tree = RTree::Create(pool.get(), config);
  ASSERT_TRUE(tree.ok());
  UpdateBatchExecutor exec(&*tree);

  Rng rng(41);
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 200; ++i) {
    ops.push_back(UpdateOp::Insert(RandomRect(rng, 0.03),
                                   static_cast<ObjectId>(i)));
  }
  store.FailNextWrites(3, Status::IoError("injected write fault"));
  const Status run = exec.Run(ops, nullptr);
  // The batch may or may not hit a writeback depending on eviction timing;
  // either way the pool must still flush cleanly once the fault clears.
  store.FailNextWrites(0, Status::OK());
  ASSERT_TRUE(pool->FlushAll().ok());
  ValidationReport report = ValidateTree(&base, tree->root(), config,
                                         ValidateOptions{});
  if (run.ok()) {
    EXPECT_TRUE(report.ok) << (report.issues.empty()
                                   ? "no issues"
                                   : report.issues.front());
    EXPECT_EQ(*tree->CountEntries(), 200u);
  }
}

}  // namespace
}  // namespace rtb::rtree
