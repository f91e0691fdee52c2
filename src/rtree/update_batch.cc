#include "rtree/update_batch.h"

#include <algorithm>
#include <utility>

#include "rtree/split.h"
#include "util/macros.h"

namespace rtb::rtree {

using geom::Rect;
using storage::PageGuard;
using storage::PageId;

UpdateBatchExecutor::UpdateBatchExecutor(RTree* tree) : tree_(tree) {
  RTB_CHECK(tree_ != nullptr);
  own_scheduler_ = std::make_unique<LevelScheduler>(tree_->pool_, 1);
  scheduler_ = own_scheduler_.get();
  Init();
}

UpdateBatchExecutor::UpdateBatchExecutor(RTree* tree,
                                         LevelScheduler* scheduler)
    : tree_(tree), scheduler_(scheduler) {
  RTB_CHECK(tree_ != nullptr && scheduler_ != nullptr);
  RTB_CHECK(scheduler_->pool() == tree_->pool_);
  Init();
}

void UpdateBatchExecutor::Init() {
  window_ = FetchWindow(*tree_->pool_);
  workers_.resize(scheduler_->workers());
}

Status UpdateBatchExecutor::Run(std::span<const UpdateOp> ops,
                                UpdateBatchStats* stats,
                                std::vector<uint8_t>* delete_found) {
  if (delete_found != nullptr) delete_found->assign(ops.size(), 0);
  commits_.clear();
  if (ops.empty()) return Status::OK();
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateOp::Kind::kInsert && op.rect.is_empty()) {
      return Status::InvalidArgument("cannot insert an empty rectangle");
    }
  }
  if (ops.size() > static_cast<size_t>(UINT32_MAX)) {
    return Status::InvalidArgument("update batch too large");
  }
  storage::PageCache* pool = tree_->pool_;
  const bool sliced = pool->attached_wal() != nullptr;
  // Uncommitted pages a slice aims to leave in the no-steal pool: a third
  // of it, so the rest holds what the slice reads, and a slice whose ops
  // dirty up to three times the predicted rate still fits.
  const double budget = std::max(1.0, static_cast<double>(pool->capacity()) / 3);
  auto next_slice = [&]() -> size_t {
    if (!sliced) return ops.size();
    // Before anything is measured, every op is taken to dirty its whole
    // root-to-leaf path plus a split sibling. After that, the larger of the
    // last two slices' rates: a slice's rate jumps when its inserts split
    // leaves (the parents and new siblings are dirtied too), and the last
    // slice's rate alone took spare frames on write_mixed (EXPERIMENTS.md).
    const double rate = rate_ > 0 ? std::max(rate_, prev_rate_)
                                  : static_cast<double>(tree_->height_ + 1);
    return std::max<size_t>(1, static_cast<size_t>(budget / rate));
  };
  UpdateBatchStats local;
  for (size_t done = 0; done < ops.size();) {
    const size_t n = std::min(next_slice(), ops.size() - done);
    RTB_RETURN_IF_ERROR(ApplySlice(
        ops.subspan(done, n), &local,
        delete_found != nullptr ? delete_found->data() + done : nullptr));
    if (sliced) {
      prev_rate_ = rate_;
      // Each shard of a sharded pool is no-steal on its own frames, so the
      // rate is the fullest shard's, scaled to the whole pool.
      rate_ = static_cast<double>(pool->peak_shard_uncommitted() *
                                  pool->num_shards()) /
              static_cast<double>(n);
    }
    // Slice boundary = commit boundary: the pool images its uncommitted
    // pages and writes ONE commit record (kNoLsn and a no-op without a
    // WAL). No data-file I/O happens here unless the log is due an online
    // checkpoint (no-force); a crash from now until the next commit rolls
    // the tree back to exactly this op prefix.
    RTB_ASSIGN_OR_RETURN(const storage::Lsn lsn, pool->WalCommit());
    ++local.commits;
    done += n;
    commits_.push_back(UpdateCommit{done, lsn, tree_->root_, tree_->height_});
  }
  if (stats != nullptr) {
    stats->inserts += local.inserts;
    stats->deletes_found += local.deletes_found;
    stats->deletes_missing += local.deletes_missing;
    stats->node_accesses += local.node_accesses;
    stats->pages_mutated += local.pages_mutated;
    stats->splits += local.splits;
    stats->condensed_nodes += local.condensed_nodes;
    stats->passes += local.passes;
    stats->commits += local.commits;
  }
  return Status::OK();
}

Status UpdateBatchExecutor::ApplySlice(std::span<const UpdateOp> ops,
                                       UpdateBatchStats* stats,
                                       uint8_t* delete_found) {
  if (ops.size() == 1) {
    // A batch of one is the serial algorithm, byte for byte: same descent,
    // same R* overflow treatment, same write pattern. The batched passes
    // below are logically equivalent but structurally different, so the
    // boundary case delegates instead of imitating.
    const UpdateOp& op = ops.front();
    if (op.kind == UpdateOp::Kind::kInsert) {
      RTB_RETURN_IF_ERROR(tree_->Insert(op.rect, op.id));
      ++stats->inserts;
    } else {
      RTB_ASSIGN_OR_RETURN(bool found, tree_->Delete(op.rect, op.id));
      ++(found ? stats->deletes_found : stats->deletes_missing);
      if (delete_found != nullptr && found) delete_found[0] = 1;
    }
    return Status::OK();
  }
  pending_.clear();
  uint64_t total_deletes = 0;
  for (const UpdateOp& op : ops) {
    const bool is_delete = op.kind == UpdateOp::Kind::kDelete;
    total_deletes += is_delete ? 1 : 0;
    pending_.push_back(PendingOp{Entry{op.rect, op.id}, /*target_level=*/0,
                                 is_delete, /*done=*/false});
  }
  const uint64_t found_before = stats->deletes_found;
  bool first_pass = true;
  while (!pending_.empty()) {
    ++stats->passes;
    RTB_RETURN_IF_ERROR(RunPass(stats));
    if (first_pass) {
      // Only the first pass carries the slice's deletes (orphan passes are
      // reinserts), and its pending_ indexes are the ops indexes, so this
      // is the one place the per-op found/missing answer exists.
      if (delete_found != nullptr) {
        for (size_t i = 0; i < pending_.size(); ++i) {
          if (pending_[i].is_delete && pending_[i].done) delete_found[i] = 1;
        }
      }
      first_pass = false;
    }
    // Condensation orphans become the next pass's operations.
    pending_.swap(orphans_);
  }
  stats->deletes_missing +=
      total_deletes - (stats->deletes_found - found_before);
  // Shrink a single-child internal root, exactly as the serial Delete does
  // after reinsertion.
  for (;;) {
    RTB_ASSIGN_OR_RETURN(PageGuard guard, tree_->pool_->Fetch(tree_->root_));
    RTB_ASSIGN_OR_RETURN(
        NodeView view,
        NodeView::Create(guard.data(), tree_->pool_->page_size()));
    if (view.is_leaf() || view.count() != 1) break;
    tree_->root_ = static_cast<PageId>(view.id(0));
    --tree_->height_;
  }
  return Status::OK();
}

Status UpdateBatchExecutor::RunPass(UpdateBatchStats* stats) {
  parent_of_.clear();
  level_of_.clear();
  child_updates_.clear();
  orphans_.clear();
  RTB_RETURN_IF_ERROR(Locate(stats));
  std::sort(arrived_.begin(), arrived_.end());

  // Coalesce arrived items into per-page runs once; the level loop below
  // picks out each level's slice.
  targets_.clear();
  for (uint32_t k = 0; k < arrived_.size();) {
    const PageId page = ItemPage(arrived_[k]);
    uint32_t end = k + 1;
    while (end < arrived_.size() && ItemPage(arrived_[end]) == page) ++end;
    targets_.push_back(PageRun{page, k, end});
    k = end;
  }
  Status status = ReadTargets();

  // Apply bottom-up, one level per round: processing a node only queues
  // updates for its parent one level up, so by the time a level is
  // processed its pending set is complete. A node is pinned mutably once
  // per pass no matter how many operations and child updates land on it.
  // tree_->height_ is re-read each round because GrowRoot can raise it;
  // the new levels simply have nothing pending.
  constexpr size_t kNoTarget = ~size_t{0};
  struct Work {
    PageId page;
    size_t target;  // Index into targets_, or kNoTarget.
  };
  std::vector<Work> work;
  for (uint16_t lvl = 0; status.ok() && lvl < tree_->height_; ++lvl) {
    work.clear();
    for (size_t t = 0; t < targets_.size(); ++t) {
      if (level_of_.at(targets_[t].page) == lvl) {
        work.push_back(Work{targets_[t].page, t});
      }
    }
    for (const auto& [page, updates] : child_updates_) {
      if (updates.empty() || level_of_.at(page) != lvl) continue;
      const bool seen = std::any_of(
          work.begin(), work.end(),
          [page = page](const Work& w) { return w.page == page; });
      if (!seen) work.push_back(Work{page, kNoTarget});
    }
    std::sort(work.begin(), work.end(),
              [](const Work& a, const Work& b) { return a.page < b.page; });
    for (const Work& w : work) {
      if (w.target == kNoTarget) {
        status = ProcessNode(w.page, nullptr, 0, nullptr, stats);
      } else {
        const PageRun& r = targets_[w.target];
        status = ProcessNode(w.page, arrived_.data() + r.begin,
                             r.end - r.begin, &reads_[w.target], stats);
      }
      if (!status.ok()) break;
    }
  }
  // Read pins an error left held go back to the pool here.
  reads_.clear();
  return status;
}

Status UpdateBatchExecutor::Locate(UpdateBatchStats* stats) {
  storage::PageCache* pool = tree_->pool_;
  const uint16_t root_level = tree_->height_ - 1;
  const PageId root = tree_->root_;
  level_of_.emplace(root, root_level);
  frontier_.clear();
  arrived_.clear();
  for (uint32_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].target_level > root_level) {
      return Status::Corruption("orphan targets a level above the root");
    }
    (pending_[i].target_level == root_level ? arrived_ : frontier_)
        .push_back(PackItem(root, i));
  }
  const LevelScheduler::WalkFn walk = [this, pool](
                                          size_t w,
                                          std::span<const PageRun> runs) {
    Worker* wk = &workers_[w];
    return FetchRuns(pool, runs, window_, &wk->window_ids,
                     [this, wk](const PageGuard& guard, const PageRun& run) {
                       return RouteItems(guard, run, wk);
                     });
  };
  const LevelScheduler::MergeFn merge = [this](size_t w) {
    Worker& wk = workers_[w];
    for (const Route& r : wk.routes) {
      parent_of_.emplace(r.child, r.slot);
      level_of_.emplace(r.child, r.level);
    }
    next_.insert(next_.end(), wk.next.begin(), wk.next.end());
    arrived_.insert(arrived_.end(), wk.arrived.begin(), wk.arrived.end());
    wk.routes.clear();
    wk.next.clear();
    wk.arrived.clear();
  };

  // One round per tree level; routing an internal page only emits items
  // one level down, so the frontier stays level-homogeneous.
  while (!frontier_.empty()) {
    std::sort(frontier_.begin(), frontier_.end());
    next_.clear();

    // Distinct-page runs of the sorted frontier.
    runs_.clear();
    for (uint32_t k = 0; k < frontier_.size();) {
      const PageId page = ItemPage(frontier_[k]);
      uint32_t end = k + 1;
      while (end < frontier_.size() && ItemPage(frontier_[end]) == page) {
        ++end;
      }
      runs_.push_back(PageRun{page, k, end});
      stats->node_accesses += end - k;
      k = end;
    }
    RTB_RETURN_IF_ERROR(scheduler_->Run(runs_, walk, merge));
    frontier_.swap(next_);
  }
  return Status::OK();
}

Status UpdateBatchExecutor::RouteItems(const PageGuard& guard,
                                       const PageRun& run, Worker* wk) {
  RTB_ASSIGN_OR_RETURN(
      Node node, DeserializeNode(guard.data(), tree_->pool_->page_size()));
  RTB_DCHECK(!node.is_leaf());
  const PageId page = guard.page_id();
  const uint16_t child_level = node.level - 1;
  for (size_t k = run.begin; k < run.end; ++k) {
    const uint32_t q = ItemOp(frontier_[k]);
    const PendingOp& op = pending_[q];
    auto route = [&](const Entry& slot) {
      const PageId child = static_cast<PageId>(slot.id);
      wk->routes.push_back(
          Route{child, ParentSlot{page, slot.rect}, child_level});
      (child_level == op.target_level ? wk->arrived : wk->next)
          .push_back(PackItem(child, q));
    };
    if (op.is_delete) {
      // Guttman's delete descent: every child whose MBR contains the
      // target rectangle may hold the entry.
      for (const Entry& e : node.entries) {
        if (e.rect.Contains(op.entry.rect)) route(e);
      }
    } else {
      route(node.entries[tree_->ChooseSubtree(node, op.entry.rect)]);
    }
  }
  return Status::OK();
}

Status UpdateBatchExecutor::ReadTargets() {
  storage::PageCache* pool = tree_->pool_;
  reads_.clear();
  reads_.resize(targets_.size());
  // A shard's reads are sized to the frames it can pin beside its permanent
  // pins and uncommitted pages: fewer than half, so the apply's unread node
  // and new sibling still find frames after the held pins (p reads with
  // 2p + 1 <= pinnable), and a shard with fewer than three such frames
  // reads nothing here. Which targets are read depends on each shard's
  // state and targets alone, not on the workers.
  shard_reads_.resize(pool->num_shards());
  for (size_t s = 0; s < shard_reads_.size(); ++s) {
    const size_t pinnable = pool->shard_pinnable_frames(s);
    shard_reads_[s] = pinnable > 0 ? (pinnable - 1) / 2 : 0;
  }
  read_runs_.clear();
  for (uint32_t t = 0; t < targets_.size(); ++t) {
    size_t& left = shard_reads_[pool->ShardOf(targets_[t].page)];
    if (left == 0) continue;
    --left;
    read_runs_.push_back(PageRun{targets_[t].page, t, t + 1});
  }
  if (read_runs_.empty()) return Status::OK();

  const size_t page_size = pool->page_size();
  // Whether the ops of `target` can change `node`: an insert always does; a
  // page that only takes deletes changes only if it holds one's entry.
  auto takes_change = [this](const Node& node, const PageRun& target) {
    for (uint32_t k = target.begin; k < target.end; ++k) {
      const PendingOp& op = pending_[ItemOp(arrived_[k])];
      if (!op.is_delete) return true;
      for (const Entry& e : node.entries) {
        if (e.id == op.entry.id && e.rect == op.entry.rect) return true;
      }
    }
    return false;
  };
  const LevelScheduler::WalkFn walk =
      [&](size_t w, std::span<const PageRun> runs) {
        return FetchRuns(
            pool, runs, window_, &workers_[w].window_ids,
            [&](PageGuard& guard, const PageRun& run) -> Status {
              TargetRead& read = reads_[run.begin];
              RTB_ASSIGN_OR_RETURN(read.node,
                                   DeserializeNode(guard.data(), page_size));
              if (takes_change(read.node, targets_[run.begin])) {
                read.guard = std::move(guard);
                read.state = TargetRead::State::kHeld;
              } else {
                read.state = TargetRead::State::kClean;
              }
              return Status::OK();
            });
      };
  return scheduler_->Run(read_runs_, walk, [](size_t) {});
}

Status UpdateBatchExecutor::ProcessNode(PageId page, const uint64_t* items,
                                        size_t nops, TargetRead* read,
                                        UpdateBatchStats* stats) {
  storage::PageCache* pool = tree_->pool_;
  const size_t page_size = pool->page_size();
  ++stats->node_accesses;
  // A target the read round released takes only deletes of entries it does
  // not hold. Deletes target leaves, which get no child updates, so the
  // node stays as it is.
  if (read != nullptr && read->state == TargetRead::State::kClean) {
    return Status::OK();
  }
  // A read pin: the page is dirtied (and so logged, committed and written
  // back) only through mutable_data(), once something below changed it.
  PageGuard guard;
  Node node;
  if (read != nullptr && read->state == TargetRead::State::kHeld) {
    guard = std::move(read->guard);
    node = std::move(read->node);
  } else {
    RTB_ASSIGN_OR_RETURN(guard, pool->Fetch(page));
    RTB_ASSIGN_OR_RETURN(node, DeserializeNode(guard.data(), page_size));
  }
  bool changed = false;

  // 1. Target-level operations, in submission order (the arrived items are
  // sorted by (page, op index)). A delete applies at most once across the
  // candidate leaves its descent fanned out to; groups run in ascending
  // page order, so with duplicate entries the lowest-numbered page wins.
  for (size_t k = 0; k < nops; ++k) {
    PendingOp& op = pending_[ItemOp(items[k])];
    if (!op.is_delete) {
      node.entries.push_back(op.entry);
      ++stats->inserts;
      changed = true;
      continue;
    }
    if (op.done) continue;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].id == op.entry.id &&
          node.entries[i].rect == op.entry.rect) {
        node.entries.erase(node.entries.begin() + static_cast<ptrdiff_t>(i));
        op.done = true;
        ++stats->deletes_found;
        changed = true;
        break;
      }
    }
  }

  // 2. Child updates queued by the level below: new slot rectangles,
  // dissolved children, split siblings. Applied before this node's own
  // resolution, so a subsequent split distributes already-correct entries.
  if (auto it = child_updates_.find(page); it != child_updates_.end()) {
    for (const ChildUpdate& u : it->second) {
      changed = true;  // A kMbr is queued only for a slot that differs.
      if (u.kind == ChildUpdate::Kind::kAdd) {
        node.entries.push_back(u.add);
        continue;
      }
      const auto slot = std::find_if(
          node.entries.begin(), node.entries.end(), [&u](const Entry& e) {
            return static_cast<PageId>(e.id) == u.child;
          });
      if (slot == node.entries.end()) {
        return Status::Corruption("child update targets a missing slot");
      }
      if (u.kind == ChildUpdate::Kind::kRemove) {
        node.entries.erase(slot);
      } else {
        slot->rect = u.mbr;
      }
    }
    it->second.clear();
  }

  // 3. An unchanged node is done: it stays clean, and its parent's slot
  // needs nothing from it.
  if (!changed) return Status::OK();
  ++stats->pages_mutated;

  // 4. Resolve this node and queue its parent's update.
  const bool is_root = page == tree_->root_;
  const RTreeConfig& cfg = tree_->config_;
  const ParentSlot* parent = nullptr;
  if (!is_root) {
    const auto found = parent_of_.find(page);
    if (found == parent_of_.end()) {
      return Status::Corruption("mutated node has no located parent");
    }
    parent = &found->second;
  }
  auto queue_parent = [&](ChildUpdate update) {
    child_updates_[parent->parent].push_back(std::move(update));
  };
  // The parent's slot is rewritten only when it would change: compared
  // against the slot Locate read, not this node's old MBR, so a slot that
  // was loose before still ends up exact once its child changes.
  auto queue_mbr = [&](const Rect& mbr) {
    if (mbr != parent->rect) {
      queue_parent(ChildUpdate{ChildUpdate::Kind::kMbr, page, Entry{}, mbr});
    }
  };

  if (is_root && !node.is_leaf() && node.entries.empty()) {
    // Every child dissolved in this pass — only batches can do that (one
    // serial delete removes one entry). Rebuild from the orphans.
    return RecoverEmptyRoot(&guard, stats);
  }
  if (!is_root && node.entries.size() < cfg.min_entries) {
    // CondenseTree: dissolve the node, reinsert its remnants at this level
    // in the next pass. The page itself is abandoned, as in the serial
    // path; the remnant image is still written so the on-disk bytes stay a
    // decodable node.
    for (const Entry& e : node.entries) {
      orphans_.push_back(
          PendingOp{e, node.level, /*is_delete=*/false, /*done=*/false});
    }
    ++stats->condensed_nodes;
    RTB_RETURN_IF_ERROR(SerializeNode(node, page_size, guard.mutable_data()));
    queue_parent(ChildUpdate{ChildUpdate::Kind::kRemove, page, Entry{},
                             Rect::Empty()});
    return Status::OK();
  }
  if (node.entries.size() > cfg.max_entries) {
    if (is_root) return GrowRoot(&guard, std::move(node), stats);
    std::vector<std::vector<Entry>> groups;
    MultiSplit(std::move(node.entries), &groups);
    stats->splits += groups.size() - 1;
    Node kept{node.level, std::move(groups.front())};
    RTB_RETURN_IF_ERROR(SerializeNode(kept, page_size, guard.mutable_data()));
    queue_mbr(kept.Mbr());
    for (size_t g = 1; g < groups.size(); ++g) {
      RTB_ASSIGN_OR_RETURN(PageGuard sibling_guard, pool->NewPage());
      Node sibling{node.level, std::move(groups[g])};
      RTB_RETURN_IF_ERROR(
          SerializeNode(sibling, page_size, sibling_guard.mutable_data()));
      queue_parent(ChildUpdate{
          ChildUpdate::Kind::kAdd, storage::kInvalidPageId,
          Entry{sibling.Mbr(), sibling_guard.page_id()}, Rect::Empty()});
    }
    return Status::OK();
  }
  RTB_RETURN_IF_ERROR(SerializeNode(node, page_size, guard.mutable_data()));
  if (!is_root) queue_mbr(node.Mbr());
  return Status::OK();
}

void UpdateBatchExecutor::MultiSplit(
    std::vector<Entry> entries,
    std::vector<std::vector<Entry>>* groups) const {
  // The pairwise split only promises groups of >= min_entries; a node that
  // absorbed many net inserts can hand either group more than max_entries,
  // so overfull groups re-split until everything fits. Any overfull group
  // has > max >= 2 * min entries, so the minimum-fill guarantee holds at
  // every step.
  SplitResult split = SplitEntries(entries, tree_->config_);
  for (std::vector<Entry>* group : {&split.group_a, &split.group_b}) {
    if (group->size() > tree_->config_.max_entries) {
      MultiSplit(std::move(*group), groups);
    } else {
      groups->push_back(std::move(*group));
    }
  }
}

Status UpdateBatchExecutor::GrowRoot(PageGuard* root_guard, Node node,
                                     UpdateBatchStats* stats) {
  storage::PageCache* pool = tree_->pool_;
  const size_t page_size = pool->page_size();
  std::vector<std::vector<Entry>> groups;
  MultiSplit(std::move(node.entries), &groups);
  stats->splits += groups.size() - 1;
  Node kept{node.level, std::move(groups.front())};
  RTB_RETURN_IF_ERROR(
      SerializeNode(kept, page_size, root_guard->mutable_data()));
  std::vector<Entry> top;
  top.push_back(Entry{kept.Mbr(), tree_->root_});
  for (size_t g = 1; g < groups.size(); ++g) {
    RTB_ASSIGN_OR_RETURN(PageGuard sibling_guard, pool->NewPage());
    Node sibling{node.level, std::move(groups[g])};
    RTB_RETURN_IF_ERROR(
        SerializeNode(sibling, page_size, sibling_guard.mutable_data()));
    top.push_back(Entry{sibling.Mbr(), sibling_guard.page_id()});
  }
  // Grow until the top fits in one root. A batch can split a node into
  // many groups at once, so unlike the serial root split this may add
  // more than one level.
  uint16_t level = node.level + 1;
  for (;;) {
    if (top.size() <= tree_->config_.max_entries) {
      RTB_ASSIGN_OR_RETURN(PageGuard new_root, pool->NewPage());
      Node root_node{level, std::move(top)};
      RTB_RETURN_IF_ERROR(
          SerializeNode(root_node, page_size, new_root.mutable_data()));
      tree_->root_ = new_root.page_id();
      tree_->height_ = level + 1;
      return Status::OK();
    }
    groups.clear();
    MultiSplit(std::move(top), &groups);
    stats->splits += groups.size() - 1;
    top.clear();
    for (std::vector<Entry>& group : groups) {
      RTB_ASSIGN_OR_RETURN(PageGuard guard, pool->NewPage());
      Node child{level, std::move(group)};
      RTB_RETURN_IF_ERROR(
          SerializeNode(child, page_size, guard.mutable_data()));
      top.push_back(Entry{child.Mbr(), guard.page_id()});
    }
    ++level;
  }
}

Status UpdateBatchExecutor::RecoverEmptyRoot(PageGuard* root_guard,
                                             UpdateBatchStats* stats) {
  const size_t page_size = tree_->pool_->page_size();
  if (orphans_.empty()) {
    // The batch deleted everything: back to a single empty leaf.
    Node empty_leaf;
    tree_->height_ = 1;
    return SerializeNode(empty_leaf, page_size, root_guard->mutable_data());
  }
  // The highest orphans must be re-homed now — the next pass cannot insert
  // at a level the shrunken tree no longer has. They become the new root's
  // entries (at their own level, so their subtrees hang one level below);
  // lower orphans re-enter through the next pass's descent.
  uint16_t top = 0;
  for (const PendingOp& orphan : orphans_) {
    top = std::max(top, orphan.target_level);
  }
  Node root_node;
  root_node.level = top;
  size_t kept = 0;
  for (PendingOp& orphan : orphans_) {
    if (orphan.target_level == top) {
      root_node.entries.push_back(orphan.entry);
    } else {
      orphans_[kept++] = std::move(orphan);
    }
  }
  orphans_.resize(kept);
  tree_->height_ = static_cast<uint16_t>(top + 1);
  if (root_node.entries.size() > tree_->config_.max_entries) {
    return GrowRoot(root_guard, std::move(root_node), stats);
  }
  return SerializeNode(root_node, page_size, root_guard->mutable_data());
}

}  // namespace rtb::rtree
