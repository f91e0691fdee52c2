// micro_query_hotpath — the query read path, measured where the paper says
// it matters: the buffer-hit case.
//
// The paper's cost metric is disk accesses, so a buffered R-tree spends the
// bulk of every query visiting nodes that are already resident; that visit
// must be nearly free. This bench times exactly that path, in four serial
// configurations (point/region queries x 100%-resident/buffer-constrained
// pools), and emits a machine-readable BENCH_micro_query_hotpath.json so
// future perf PRs can prove their delta against the recorded trajectory.
//
// Every serial configuration is measured twice:
//
//   * "legacy" — the pre-change read path, reproduced here verbatim: a
//     recursive search that holds each PageGuard across the recursion and
//     DeserializeNode's every visited node into a heap-allocated entry
//     vector, against a replica of the pre-change buffer pool (std::list
//     LRU with one list-node alloc/free per page access, unordered_map page
//     table probed on every fetch and every unpin). This is the baseline
//     the >= 2x acceptance criterion refers to, re-measured on the same
//     machine and workload.
//   * the live RTree::Search — explicit-stack traversal over zero-copy
//     NodeViews.
//
// Reported per config: queries/sec (both paths, plus the speedup),
// ns/node-visit, buffer hit rate over the measured phase, and heap
// allocations per query on the measuring thread (util/alloc_counter); the
// zero-copy path's steady-state count must be ~0 for point queries (the
// only allocations left are result-vector growth).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench/common.h"
#include "util/alloc_counter.h"

namespace rtb::bench {
namespace {

using geom::Rect;
using storage::PageCache;
using storage::PageGuard;
using storage::PageId;

// The pre-change LRU policy (replacement.cc @ PR 1), reproduced so the
// baseline pool pays the same heap traffic the pre-change BufferPool paid:
// the recency order lived in a std::list, so every access — hits included —
// erased and re-allocated a list node. Eviction order is identical to the
// current intrusive-list LruPolicy, so both paths see the same hit/miss
// stream; only the bookkeeping cost differs.
class LegacyListLruPolicy final : public storage::ReplacementPolicy {
 public:
  explicit LegacyListLruPolicy(size_t capacity) : entries_(capacity) {}

  void RecordAccess(storage::FrameId frame) override {
    Entry& e = entries_[frame];
    if (e.tracked) order_.erase(e.pos);
    order_.push_front(frame);
    e.pos = order_.begin();
    e.tracked = true;
  }

  void SetEvictable(storage::FrameId frame, bool evictable) override {
    Entry& e = entries_[frame];
    if (e.evictable == evictable) return;
    e.evictable = evictable;
    num_evictable_ += evictable ? 1 : static_cast<size_t>(-1);
  }

  bool Evict(storage::FrameId* victim) override {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      if (entries_[*it].evictable) {
        *victim = *it;
        Remove(*it);
        return true;
      }
    }
    return false;
  }

  void Remove(storage::FrameId frame) override {
    Entry& e = entries_[frame];
    if (!e.tracked) return;
    if (e.evictable) --num_evictable_;
    order_.erase(e.pos);
    e = Entry{};
  }

  size_t NumEvictable() const override { return num_evictable_; }
  std::string_view name() const override { return "LRU(list)"; }

 private:
  struct Entry {
    bool tracked = false;
    bool evictable = false;
    std::list<storage::FrameId>::iterator pos;
  };
  std::list<storage::FrameId> order_;
  std::vector<Entry> entries_;
  size_t num_evictable_ = 0;
};

// A read-only replica of the pre-change BufferPool (buffer_pool.cc @ PR 1):
// std::unordered_map page table (node-per-entry, pointer-chasing find),
// the allocating list LRU above, and Unpin re-probing the table by page id.
// Together with LegacySearchRec below this reproduces the complete
// pre-change read path, so "baseline" numbers measure the code this PR
// replaced, on the same machine and workload. Mutation entry points are not
// reproduced (the bench only queries).
class LegacyBufferPool final : public storage::PageCache {
 public:
  LegacyBufferPool(storage::PageStore* store, size_t capacity)
      : store_(store),
        capacity_(capacity),
        policy_(capacity),
        buffer_(capacity * store->page_size()),
        frames_(capacity) {
    free_frames_.reserve(capacity);
    for (size_t f = capacity; f > 0; --f) {
      free_frames_.push_back(static_cast<storage::FrameId>(f - 1));
    }
  }

  size_t capacity() const override { return capacity_; }
  size_t page_size() const override { return store_->page_size(); }

  Result<PageGuard> Fetch(PageId id) override {
    ++stats_.requests;
    auto it = page_table_.find(id);
    storage::FrameId f;
    if (it != page_table_.end()) {
      ++stats_.hits;
      f = it->second;
      FrameMeta& meta = frames_[f];
      if (meta.pin_count++ == 0) policy_.SetEvictable(f, false);
      policy_.RecordAccess(f);
    } else {
      ++stats_.misses;
      if (!free_frames_.empty()) {
        f = free_frames_.back();
        free_frames_.pop_back();
      } else {
        RTB_CHECK(policy_.Evict(&f));
        page_table_.erase(frames_[f].page_id);
        ++stats_.evictions;
      }
      RTB_CHECK(store_->Read(id, FrameData(f)).ok());
      frames_[f] = FrameMeta{id, 1};
      page_table_[id] = f;
      policy_.RecordAccess(f);
      policy_.SetEvictable(f, false);
    }
    return PageGuard(this, storage::Frame{id, FrameData(f), f},
                     /*mark_dirty=*/false);
  }

  Result<PageGuard> FetchMutable(PageId) override { RTB_CHECK(false); }
  Result<PageGuard> NewPage() override { RTB_CHECK(false); }
  Status PinPermanently(PageId) override { RTB_CHECK(false); }
  Status UnpinPermanently(PageId) override { RTB_CHECK(false); }
  size_t num_permanent_pins() const override { return 0; }
  Status FlushAll() override { return Status::OK(); }
  Status EvictAll() override { RTB_CHECK(false); }

  bool Contains(PageId id) const override {
    return page_table_.find(id) != page_table_.end();
  }

  storage::BufferStats AggregateStats() const override { return stats_; }
  void ResetStats() override { stats_ = storage::BufferStats{}; }

 private:
  struct FrameMeta {
    PageId page_id = storage::kInvalidPageId;
    uint32_t pin_count = 0;
  };

  // The pre-change Unpin: a page-table probe per release.
  void Unpin(const storage::Frame& frame, bool) override {
    auto it = page_table_.find(frame.page_id);
    RTB_CHECK(it != page_table_.end());
    FrameMeta& meta = frames_[it->second];
    RTB_CHECK(meta.pin_count > 0);
    if (--meta.pin_count == 0) policy_.SetEvictable(it->second, true);
  }

  uint8_t* FrameData(storage::FrameId f) {
    return buffer_.data() + static_cast<size_t>(f) * page_size();
  }

  storage::PageStore* store_;
  size_t capacity_;
  LegacyListLruPolicy policy_;
  std::vector<uint8_t> buffer_;
  std::vector<FrameMeta> frames_;
  std::vector<storage::FrameId> free_frames_;
  std::unordered_map<PageId, storage::FrameId> page_table_;
  storage::BufferStats stats_;
};

// The pre-NodeView read path (rtree.cc @ PR 1), kept here as the measured
// baseline: guard held across recursion, DeserializeNode per visit.
Status LegacySearchRec(PageCache* pool, PageId page, const Rect& query,
                       std::vector<rtree::ObjectId>* out,
                       rtree::QueryStats* stats) {
  RTB_ASSIGN_OR_RETURN(PageGuard guard, pool->Fetch(page));
  if (stats != nullptr) ++stats->nodes_accessed;
  RTB_ASSIGN_OR_RETURN(rtree::Node node,
                       rtree::DeserializeNode(guard.data(),
                                              pool->page_size()));
  for (const rtree::Entry& e : node.entries) {
    if (!e.rect.Intersects(query)) continue;
    if (node.is_leaf()) {
      out->push_back(e.id);
    } else {
      RTB_RETURN_IF_ERROR(LegacySearchRec(pool, static_cast<PageId>(e.id),
                                          query, out, stats));
    }
  }
  return Status::OK();
}

struct SerialMeasurement {
  double queries_per_sec = 0.0;
  double ns_per_node_visit = 0.0;
  double nodes_per_query = 0.0;
  double hit_rate = 0.0;
  double allocs_per_query = 0.0;
  uint64_t result_count = 0;  // Checksum: total ids returned.
};

// Runs `queries` queries from a fresh Rng(seed) against `tree` through
// `pool`, after `warmup` unmeasured queries. `legacy` selects the baseline
// read path.
SerialMeasurement RunSerial(rtree::RTree* tree, PageCache* pool,
                            sim::QueryGenerator* gen, uint64_t seed,
                            uint64_t warmup, uint64_t queries, bool legacy) {
  std::vector<rtree::ObjectId> sink;
  Rng rng(seed);
  for (uint64_t i = 0; i < warmup; ++i) {
    sink.clear();
    Status s = legacy ? LegacySearchRec(pool, tree->root(), gen->Next(rng),
                                        &sink, nullptr)
                      : tree->Search(gen->Next(rng), &sink);
    RTB_CHECK(s.ok());
  }

  pool->ResetStats();
  rtree::QueryStats stats;
  SerialMeasurement m;
  util::ScopedAllocationCounter allocs;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < queries; ++i) {
    sink.clear();
    Status s = legacy ? LegacySearchRec(pool, tree->root(), gen->Next(rng),
                                        &sink, &stats)
                      : tree->Search(gen->Next(rng), &sink, &stats);
    RTB_CHECK(s.ok());
    m.result_count += sink.size();
  }
  const auto end = std::chrono::steady_clock::now();
  const uint64_t allocations = allocs.delta();

  const double seconds =
      std::chrono::duration<double>(end - start).count();
  const storage::BufferStats buffer = pool->AggregateStats();
  m.queries_per_sec =
      seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
  m.nodes_per_query = queries > 0 ? static_cast<double>(stats.nodes_accessed) /
                                        static_cast<double>(queries)
                                  : 0.0;
  m.ns_per_node_visit =
      stats.nodes_accessed > 0
          ? seconds * 1e9 / static_cast<double>(stats.nodes_accessed)
          : 0.0;
  m.hit_rate = buffer.HitRate();
  m.allocs_per_query =
      queries > 0
          ? static_cast<double>(allocations) / static_cast<double>(queries)
          : 0.0;
  return m;
}

void EmitSerial(JsonDict& row, const SerialMeasurement& live,
                const SerialMeasurement& legacy) {
  row.PutNum("queries_per_sec", live.queries_per_sec);
  row.PutNum("baseline_queries_per_sec", legacy.queries_per_sec);
  row.PutNum("speedup_vs_baseline",
             legacy.queries_per_sec > 0.0
                 ? live.queries_per_sec / legacy.queries_per_sec
                 : 0.0);
  row.PutNum("ns_per_node_visit", live.ns_per_node_visit);
  row.PutNum("baseline_ns_per_node_visit", legacy.ns_per_node_visit);
  row.PutNum("nodes_per_query", live.nodes_per_query);
  row.PutNum("hit_rate", live.hit_rate);
  row.PutNum("baseline_hit_rate", legacy.hit_rate);
  row.PutNum("allocs_per_query", live.allocs_per_query);
  row.PutNum("baseline_allocs_per_query", legacy.allocs_per_query);
  row.PutInt("result_count", live.result_count);
}

int Run(int argc, char** argv) {
  // Default fanout 100 ~ a full 4096-byte page (102 40-byte entries fit
  // after the 16-byte header), the paper's node-per-disk-page layout.
  Flags flags(argc, argv,
              {{"seed", "1998"},
               {"points", "40000"},
               {"fanout", "100"},
               {"queries", "40000"},
               {"warmup", "5000"},
               {"region_side", "0.03"},
               {"small_buffer_frac", "0.1"},
               {"json", ""}});
  const uint64_t seed = flags.GetInt("seed");
  const uint64_t queries = flags.GetInt("queries");
  const uint64_t warmup = flags.GetInt("warmup");
  const double region_side = flags.GetDouble("region_side");

  Banner("micro: query hot path",
         "zero-copy NodeView read path vs. the deserializing baseline; " +
             Table::Int(flags.GetInt("points")) + " uniform points, fanout " +
             Table::Int(flags.GetInt("fanout")),
         seed);

  Rng rng(seed);
  auto rects = data::GenerateUniformPoints(flags.GetInt("points"), &rng);
  Workload w = BuildWorkload(
      rects, static_cast<uint32_t>(flags.GetInt("fanout")),
      rtree::LoadAlgorithm::kHilbertSort);
  const uint64_t total_pages = w.summary->NumNodes();
  const uint64_t small_buffer = std::max<uint64_t>(
      8, static_cast<uint64_t>(flags.GetDouble("small_buffer_frac") *
                               static_cast<double>(total_pages)));

  BenchReport report("micro_query_hotpath");
  report.meta().PutInt("seed", seed);
  report.meta().PutInt("points", flags.GetInt("points"));
  report.meta().PutInt("fanout", flags.GetInt("fanout"));
  report.meta().PutInt("tree_pages", total_pages);
  report.meta().PutInt("tree_height", w.tree.height);
  report.meta().PutInt("queries", queries);
  report.meta().PutInt("warmup", warmup);
  report.meta().PutNum("region_side", region_side);
  report.meta().PutInt("small_buffer_pages", small_buffer);

  Table table({"config", "queries/s", "baseline q/s", "speedup",
               "ns/visit", "hit rate", "allocs/query"});

  sim::UniformPointGenerator point_gen;
  sim::UniformRegionGenerator region_gen(region_side, region_side);
  struct SerialConfig {
    const char* name;
    sim::QueryGenerator* gen;
    uint64_t buffer_pages;
  };
  const SerialConfig configs[] = {
      {"point_resident_serial", &point_gen, total_pages},
      {"region_resident_serial", &region_gen, total_pages},
      {"point_buffered_serial", &point_gen, small_buffer},
      {"region_buffered_serial", &region_gen, small_buffer},
  };

  for (const SerialConfig& c : configs) {
    // Fresh pool + tree per path so neither measurement inherits residency.
    // The legacy path also runs on the legacy pool so its numbers reproduce
    // the pre-change storage stack, not just the pre-change traversal.
    auto run_path = [&](bool legacy) {
      std::unique_ptr<storage::PageCache> pool;
      if (legacy) {
        pool = std::make_unique<LegacyBufferPool>(w.store.get(),
                                                  c.buffer_pages);
      } else {
        pool = storage::BufferPool::MakeLru(w.store.get(), c.buffer_pages);
      }
      auto tree = rtree::RTree::Open(
          pool.get(), rtree::RTreeConfig::WithFanout(w.fanout), w.tree.root,
          w.tree.height);
      RTB_CHECK(tree.ok());
      return RunSerial(&*tree, pool.get(), c.gen, seed + 17, warmup,
                       queries, legacy);
    };
    SerialMeasurement legacy = run_path(true);
    SerialMeasurement live = run_path(false);
    RTB_CHECK(live.result_count == legacy.result_count);

    JsonDict& row = report.AddConfig(c.name);
    row.PutInt("buffer_pages", c.buffer_pages);
    EmitSerial(row, live, legacy);
    table.AddRow({c.name, Table::Num(live.queries_per_sec, 0),
                  Table::Num(legacy.queries_per_sec, 0),
                  Table::Num(live.queries_per_sec /
                                 std::max(legacy.queries_per_sec, 1e-9),
                             2) +
                      "x",
                  Table::Num(live.ns_per_node_visit, 1),
                  Table::Num(100.0 * live.hit_rate, 2) + "%",
                  Table::Num(live.allocs_per_query, 3)});
  }

  table.Print();
  if (!report.WriteFile(flags.GetString("json"))) return 1;
  return 0;
}

}  // namespace
}  // namespace rtb::bench

int main(int argc, char** argv) { return rtb::bench::Run(argc, argv); }
