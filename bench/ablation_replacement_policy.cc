// Ablation (beyond the paper) — Buffer replacement policy.
//
// The paper's model covers LRU only. This bench runs the same workload
// end-to-end (real R-tree queries through a real buffer pool) under LRU,
// FIFO, CLOCK, LFU and RANDOM, and prints measured disk accesses next to
// the LRU model prediction. It quantifies (a) how much the conclusions
// depend on the policy choice and (b) how well the LRU model approximates
// the other policies.

#include <cstdio>

#include "bench/common.h"

namespace rtb::bench {
namespace {

int Run(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"seed", "1998"},
               {"rects", "53145"},
               {"fanout", "100"},
               {"queries", "100000"},
               {"warmup", "20000"}});
  const uint64_t seed = flags.GetInt("seed");
  const uint64_t queries = flags.GetInt("queries");
  const uint64_t warmup = flags.GetInt("warmup");

  Banner("Ablation: buffer replacement policy (beyond the paper)",
         "TIGER surrogate, HS tree, fanout " +
             Table::Int(flags.GetInt("fanout")) +
             ", uniform point queries, end-to-end execution",
         seed);

  auto rects = MakeTigerData(seed, flags.GetInt("rects"));
  Workload w = BuildWorkload(rects,
                             static_cast<uint32_t>(flags.GetInt("fanout")),
                             rtree::LoadAlgorithm::kHilbertSort);
  rtree::RTreeConfig config =
      rtree::RTreeConfig::WithFanout(
          static_cast<uint32_t>(flags.GetInt("fanout")));

  const storage::PolicyKind kinds[] = {
      storage::PolicyKind::kLru,  storage::PolicyKind::kClock,
      storage::PolicyKind::kFifo, storage::PolicyKind::kLfu,
      storage::PolicyKind::kLruK, storage::PolicyKind::kRandom};

  Table table({"buffer", "LRU model", "LRU", "CLOCK", "FIFO", "LFU",
               "LRU-2", "RANDOM"});
  for (uint64_t buffer : {10, 50, 100, 200, 400}) {
    std::vector<std::string> row;
    row.push_back(Table::Int(buffer));
    row.push_back(Table::Num(
        ModelDiskAccesses(w, model::QuerySpec::UniformPoint(), buffer), 4));
    for (storage::PolicyKind kind : kinds) {
      storage::BufferPool pool(w.store.get(), buffer,
                               storage::MakePolicy(kind, buffer, seed));
      auto tree = rtree::RTree::Open(&pool, config, w.tree.root,
                                     w.tree.height);
      RTB_CHECK(tree.ok());
      RTB_CHECK(pool.EvictAll().ok());
      w.store->ResetStats();
      sim::UniformPointGenerator gen;
      sim::WorkloadOptions options;
      options.base_seed = seed + buffer;
      options.warmup = warmup;
      options.queries = queries;
      auto result = sim::RunWorkload(&*tree, w.store.get(), &gen, options);
      RTB_CHECK(result.ok());
      row.push_back(Table::Num(result->MeanDiskAccesses(), 4));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nNote: end-to-end execution always reads the root, so measured "
      "values sit slightly above the MBR-filter model at tiny buffers.\n");

  // ----- Scan resistance: point queries with periodic full-tree scans. ---
  // A full scan floods plain LRU (it evicts the hot upper levels); LRU-2's
  // backward-K distance shrugs it off. Metric: disk accesses per point
  // query, not counting the scans' own reads.
  std::printf(
      "\nScan-resistance: 1 full-tree scan injected every %u point "
      "queries\n",
      50u);
  Table scan_table({"buffer", "LRU", "CLOCK", "LFU", "LRU-2"});
  for (uint64_t buffer : {50, 100, 200}) {
    std::vector<std::string> row{Table::Int(buffer)};
    for (storage::PolicyKind kind :
         {storage::PolicyKind::kLru, storage::PolicyKind::kClock,
          storage::PolicyKind::kLfu, storage::PolicyKind::kLruK}) {
      storage::BufferPool pool(w.store.get(), buffer,
                               storage::MakePolicy(kind, buffer, seed));
      auto tree = rtree::RTree::Open(&pool, config, w.tree.root,
                                     w.tree.height);
      RTB_CHECK(tree.ok());
      RTB_CHECK(pool.EvictAll().ok());
      Rng rng(seed + buffer + 31);
      sim::UniformPointGenerator gen;
      std::vector<rtree::ObjectId> sink;
      // Warm up with the mixed pattern, then measure.
      uint64_t point_disk = 0, points_measured = 0;
      const uint64_t total = 20000, warm = 5000;
      for (uint64_t i = 0; i < total; ++i) {
        if (i % 50 == 49) {
          sink.clear();
          RTB_CHECK(tree->Search(geom::Rect::UnitSquare(), &sink).ok());
          continue;
        }
        uint64_t before = w.store->stats().reads;
        sink.clear();
        RTB_CHECK(tree->Search(gen.Next(rng), &sink).ok());
        if (i >= warm) {
          point_disk += w.store->stats().reads - before;
          ++points_measured;
        }
      }
      row.push_back(Table::Num(
          static_cast<double>(point_disk) /
              static_cast<double>(points_measured),
          4));
    }
    scan_table.AddRow(std::move(row));
  }
  scan_table.Print();
  std::printf(
      "\nUnder scan pollution, frequency/backward-K policies (LFU, LRU-2) "
      "hold their hot set while LRU and CLOCK re-fault it after every "
      "scan.\n");
  return 0;
}

}  // namespace
}  // namespace rtb::bench

int main(int argc, char** argv) { return rtb::bench::Run(argc, argv); }
