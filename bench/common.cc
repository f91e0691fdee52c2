#include "bench/common.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rtb::bench {

Flags::Flags(int argc, char** argv,
             std::map<std::string, std::string> defaults)
    : values_(std::move(defaults)) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      std::exit(2);
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "flags take the form --name=value: %s\n",
                   arg.c_str());
      std::exit(2);
    }
    std::string name = arg.substr(2, eq - 2);
    if (values_.find(name) == values_.end()) {
      std::fprintf(stderr, "unknown flag --%s; supported:", name.c_str());
      for (const auto& [k, v] : values_) {
        std::fprintf(stderr, " --%s(=%s)", k.c_str(), v.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    values_[name] = arg.substr(eq + 1);
  }
}

uint64_t Flags::GetInt(const std::string& name) const {
  auto it = values_.find(name);
  RTB_CHECK(it != values_.end());
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name) const {
  auto it = values_.find(name);
  RTB_CHECK(it != values_.end());
  return std::strtod(it->second.c_str(), nullptr);
}

std::string Flags::GetString(const std::string& name) const {
  auto it = values_.find(name);
  RTB_CHECK(it != values_.end());
  return it->second;
}

Workload BuildWorkload(const std::vector<geom::Rect>& rects, uint32_t fanout,
                       rtree::LoadAlgorithm algo) {
  Workload w;
  w.store = std::make_unique<storage::MemPageStore>();
  auto built = rtree::BuildRTree(w.store.get(),
                                 rtree::RTreeConfig::WithFanout(fanout),
                                 rects, algo);
  RTB_CHECK(built.ok());
  w.tree = *built;
  auto summary = rtree::TreeSummary::Extract(w.store.get(), built->root);
  RTB_CHECK(summary.ok());
  w.summary = std::make_unique<rtree::TreeSummary>(std::move(*summary));
  w.centers = data::Centers(rects);
  w.store->ResetStats();
  w.label = std::string(rtree::LoadAlgorithmName(algo));
  w.fanout = fanout;
  return w;
}

std::vector<geom::Rect> MakeTigerData(uint64_t seed, size_t n) {
  Rng rng(seed);
  data::TigerParams params;
  params.num_rects = n;
  return data::GenerateTigerSurrogate(params, &rng);
}

std::vector<geom::Rect> MakeCfdData(uint64_t seed, size_t n) {
  Rng rng(seed);
  data::CfdParams params;
  params.num_points = n;
  return data::GenerateCfdSurrogate(params, &rng);
}

double ModelDiskAccesses(const Workload& w, const model::QuerySpec& spec,
                         uint64_t buffer_pages) {
  auto ed = model::PredictDiskAccesses(*w.summary, spec, buffer_pages,
                                       &w.centers);
  RTB_CHECK(ed.ok());
  return *ed;
}

SimEstimate SimulateDiskAccesses(const Workload& w,
                                 const model::QuerySpec& spec,
                                 uint64_t buffer_pages, uint32_t batches,
                                 uint64_t batch_size, uint64_t seed) {
  sim::SimOptions options;
  options.buffer_pages = buffer_pages;
  sim::MbrListSimulator simulator(w.summary.get(), options);
  auto gen = sim::MakeGenerator(spec, &w.centers);
  RTB_CHECK(gen.ok());
  Rng rng(seed);
  auto result = simulator.Run(gen->get(), &rng, batches, batch_size);
  RTB_CHECK(result.ok());
  SimEstimate est;
  est.mean = result->mean_disk_accesses;
  est.ci90_rel = result->mean_disk_accesses > 0
                     ? result->ci_halfwidth_90 / result->mean_disk_accesses
                     : 0.0;
  return est;
}

ParallelEstimate RunParallelQueries(const Workload& w,
                                    const model::QuerySpec& spec,
                                    uint64_t buffer_pages, uint32_t threads,
                                    size_t shards, uint64_t warmup,
                                    uint64_t queries, uint64_t seed) {
  std::unique_ptr<storage::PageCache> pool;
  if (threads == 1 && shards == 0) {
    pool = storage::BufferPool::MakeLru(w.store.get(), buffer_pages);
  } else {
    pool = storage::ShardedBufferPool::MakeLru(w.store.get(), buffer_pages,
                                               shards);
  }
  auto tree = rtree::RTree::Open(pool.get(),
                                 rtree::RTreeConfig::WithFanout(w.fanout),
                                 w.tree.root, w.tree.height);
  RTB_CHECK(tree.ok());
  auto gen = sim::MakeGenerator(spec, &w.centers);
  RTB_CHECK(gen.ok());
  sim::WorkloadOptions options;
  options.threads = threads;
  options.base_seed = seed;
  options.warmup = warmup;
  options.queries = queries;
  auto run = sim::RunWorkload(&*tree, w.store.get(), gen->get(), options);
  if (!run.ok()) {
    std::fprintf(stderr, "parallel workload failed: %s\n",
                 run.status().ToString().c_str());
  }
  RTB_CHECK(run.ok());
  ParallelEstimate est;
  est.run = std::move(*run);
  est.buffer = pool->AggregateStats();
  return est;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  RTB_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&widths](const std::vector<std::string>& cells) {
    std::printf(" ");
    for (size_t c = 0; c < cells.size(); ++c) {
      std::printf(" %-*s", static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  size_t total = 1;
  for (size_t w : widths) total += w + 1;
  std::printf("  ");
  for (size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

bool Table::AppendCsv(const std::string& path,
                      const std::string& label) const {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  auto write_row = [f, &label](const std::vector<std::string>& cells,
                               const char* first) {
    std::fprintf(f, "%s", first[0] ? first : label.c_str());
    for (const std::string& cell : cells) {
      // Cells are numbers/short words; strip the cosmetic '%' and '+/-'.
      std::string clean = cell;
      if (!clean.empty() && clean.back() == '%') clean.pop_back();
      std::fprintf(f, ",%s", clean.c_str());
    }
    std::fprintf(f, "\n");
  };
  write_row(headers_, "label");
  for (const auto& row : rows_) write_row(row, "");
  std::fclose(f);
  return true;
}

std::string Table::Num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string Table::Int(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

void Banner(const std::string& experiment, const std::string& description,
            uint64_t seed) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("  %s\n", description.c_str());
  std::printf("  paper: Leutenegger & Lopez, \"The Effect of Buffering on the\n");
  std::printf("         Performance of R-Trees\" (ICDE 1998 / TKDE 2000)\n");
  std::printf("  seed: %" PRIu64 "\n", seed);
  std::printf("==============================================================\n");
}

}  // namespace rtb::bench
