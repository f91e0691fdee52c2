#include "engine/engine.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "data/datasets.h"
#include "data/io.h"
#include "model/cost_model.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "rtree/validate.h"
#include "sim/query_gen.h"
#include "storage/file_page_store.h"
#include "storage/replacement.h"
#include "storage/sharded_buffer_pool.h"
#include "storage/wal.h"

namespace rtb::engine {

namespace {

// Class c's workers draw from substreams base_seed + c*stride + w; the
// stride keeps the streams of successive classes disjoint for any sane
// thread count. Class 0 uses spec.run.seed exactly, which is what keeps a
// single-class serial spec byte-identical to the legacy serial runner.
constexpr uint64_t kClassSeedStride = 1u << 16;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Result<std::vector<geom::Rect>> MaterializeRects(const DatasetSpec& ds) {
  if (ds.kind == "file") return data::LoadRects(ds.path);
  Rng rng(ds.seed);
  if (ds.kind == "uniform") return data::GenerateUniformPoints(ds.n, &rng);
  if (ds.kind == "region") return data::GenerateSyntheticRegion(ds.n, &rng);
  if (ds.kind == "tiger") {
    data::TigerParams params;
    params.num_rects = ds.n;
    return data::GenerateTigerSurrogate(params, &rng);
  }
  if (ds.kind == "cfd") {
    data::CfdParams params;
    params.num_points = ds.n;
    return data::GenerateCfdSurrogate(params, &rng);
  }
  if (ds.kind == "clusters") {
    data::ClusterParams params;
    params.num_rects = ds.n;
    return data::GenerateGaussianClusters(params, &rng);
  }
  return Status::InvalidArgument("unknown dataset kind '" + ds.kind + "'");
}

Result<rtree::LoadAlgorithm> ParseAlgo(const std::string& name) {
  if (name == "HS") return rtree::LoadAlgorithm::kHilbertSort;
  if (name == "NX") return rtree::LoadAlgorithm::kNearestX;
  if (name == "STR") return rtree::LoadAlgorithm::kStr;
  if (name == "TAT" || name == "RSTAR") {
    return rtree::LoadAlgorithm::kTupleAtATime;
  }
  return Status::InvalidArgument("unknown algorithm '" + name +
                                 "' (HS|NX|STR|TAT|RSTAR)");
}

bool NeedsCenters(const ExperimentSpec& spec) {
  for (const QueryClassSpec& cls : spec.workload.classes) {
    if (sim::GeneratorNeedsCenters(cls.query.center)) return true;
  }
  return false;
}

std::string ExtentLabel(const model::AxisExtent& ax) {
  if (ax.open) return "open";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", ax.length);
  return buf;
}

std::string ClassLabel(const QueryClassSpec& cls) {
  if (!cls.label.empty()) return cls.label;
  const char* center = cls.query.center.c_str();
  char buf[96];
  if (cls.IsMixed()) {
    std::snprintf(buf, sizeof(buf), "mixed i%g/d%g %s", cls.insert_frac,
                  cls.delete_frac, center);
    return buf;
  }
  if (cls.query.is_point()) {
    std::snprintf(buf, sizeof(buf), "%s point", center);
  } else {
    std::snprintf(buf, sizeof(buf), "%s %sx%s", center,
                  ExtentLabel(cls.query.x).c_str(),
                  ExtentLabel(cls.query.y).c_str());
  }
  return buf;
}

Result<std::unique_ptr<storage::PageCache>> MakePool(
    const ExperimentSpec& spec, storage::PageStore* store) {
  RTB_ASSIGN_OR_RETURN(storage::PolicyKind kind,
                       ParsePolicyKind(spec.pool.policy));
  const uint64_t pages = spec.pool.buffer_pages;
  std::unique_ptr<storage::PageCache> pool;
  if (spec.run.threads == 1 && spec.pool.shards == 0) {
    // The paper's serial pool: single-threaded, globally ordered
    // replacement, bit-reproducible.
    pool = std::make_unique<storage::BufferPool>(
        store, pages, storage::MakePolicy(kind, pages, spec.run.seed));
  } else {
    storage::ShardedBufferPool::Options options;
    options.num_shards = spec.pool.shards;
    options.policy = kind;
    options.seed = spec.run.seed;
    pool = std::make_unique<storage::ShardedBufferPool>(store, pages,
                                                        options);
  }
  return pool;
}

}  // namespace

Result<PreparedTree> PrepareTree(const ExperimentSpec& spec) {
  PreparedTree prepared;
  if (!spec.tree.index.empty()) {
    // Open an existing persistent index; the dataset is only consulted for
    // data-driven query centers.
    RTB_ASSIGN_OR_RETURN(prepared.meta, LoadIndexMeta(spec.tree.index));
    RTB_ASSIGN_OR_RETURN(prepared.store,
                         storage::FilePageStore::Open(spec.tree.index));
    if (NeedsCenters(spec)) {
      RTB_ASSIGN_OR_RETURN(std::vector<geom::Rect> rects,
                           data::LoadRects(spec.dataset.path));
      prepared.centers = std::make_shared<const std::vector<geom::Point>>(
          data::Centers(rects));
    }
  } else {
    const auto start = std::chrono::steady_clock::now();
    RTB_ASSIGN_OR_RETURN(std::vector<geom::Rect> rects,
                         MaterializeRects(spec.dataset));
    RTB_ASSIGN_OR_RETURN(rtree::LoadAlgorithm algo,
                         ParseAlgo(spec.tree.algo));
    rtree::RTreeConfig config =
        spec.tree.algo == "RSTAR"
            ? rtree::RTreeConfig::RStar(spec.tree.fanout)
            : rtree::RTreeConfig::WithFanout(spec.tree.fanout);
    std::unique_ptr<storage::PageStore> store;
    if (spec.storage.backend == "file") {
      RTB_ASSIGN_OR_RETURN(store,
                           storage::FilePageStore::Create(spec.storage.path));
    } else {
      store = std::make_unique<storage::MemPageStore>();
    }
    RTB_ASSIGN_OR_RETURN(rtree::BuiltTree built,
                         rtree::BuildRTree(store.get(), config, rects, algo));
    prepared.build_seconds = SecondsSince(start);
    prepared.meta = IndexMeta{built.root, built.height, spec.tree.fanout};
    prepared.store = std::move(store);
    if (NeedsCenters(spec)) {
      prepared.centers = std::make_shared<const std::vector<geom::Point>>(
          data::Centers(rects));
    }
    // Mixed update classes draw delete victims from the build rectangles
    // (object ids are their indexes — the BuildRTree contract).
    if (spec.workload.HasMixedClass()) prepared.rects = std::move(rects);
  }
  RTB_ASSIGN_OR_RETURN(
      rtree::TreeSummary summary,
      rtree::TreeSummary::Extract(prepared.store.get(), prepared.meta.root));
  prepared.summary = std::make_unique<rtree::TreeSummary>(std::move(summary));
  prepared.store->ResetStats();
  return prepared;
}

Result<ModelEstimate> EvaluateModel(const rtree::TreeSummary& summary,
                                    const model::QuerySpec& qspec,
                                    const PoolSpec& pool,
                                    const std::vector<geom::Point>* centers,
                                    uint64_t batch_size) {
  RTB_ASSIGN_OR_RETURN(std::vector<double> probs,
                       model::AccessProbabilities(summary, qspec, centers));
  ModelEstimate est;
  est.node_accesses = model::ExpectedNodeAccesses(probs);
  if (pool.pinned_levels == 0) {
    est.disk_accesses = model::ExpectedDiskAccesses(probs, pool.buffer_pages);
    est.disk_accesses_continuous =
        model::ExpectedDiskAccessesContinuous(probs, pool.buffer_pages);
    if (batch_size >= 2) {
      const model::BatchedModelResult batched =
          model::ExpectedBatchedDiskAccesses(probs, pool.buffer_pages,
                                             batch_size);
      est.batched = true;
      est.batched_disk_accesses = batched.disk_accesses;
      est.effective_hit_rate = batched.effective_hit_rate;
    }
  } else {
    model::PinnedModelResult pinned = model::ExpectedDiskAccessesPinned(
        summary, probs, pool.buffer_pages, pool.pinned_levels);
    est.feasible = pinned.feasible;
    est.pinned_pages = pinned.pinned_pages;
    est.disk_accesses = pinned.disk_accesses;
    est.disk_accesses_continuous = pinned.disk_accesses;
  }
  return est;
}

Result<RunReport> Run(const ExperimentSpec& spec) {
  RTB_RETURN_IF_ERROR(spec.Validate());
  RunReport report;
  report.spec = spec;

  RTB_ASSIGN_OR_RETURN(PreparedTree prepared, PrepareTree(spec));
  report.build_seconds = prepared.build_seconds;
  report.height = prepared.summary->height();
  report.num_nodes = prepared.summary->NumNodes();
  report.data_entries = prepared.summary->NumDataEntries();

  RTB_ASSIGN_OR_RETURN(std::unique_ptr<storage::PageCache> pool,
                       MakePool(spec, prepared.store.get()));
  if (spec.pool.pinned_levels > 0) {
    const auto pin_start = std::chrono::steady_clock::now();
    RTB_RETURN_IF_ERROR(sim::PinTopLevels(pool.get(), *prepared.summary,
                                          spec.pool.pinned_levels));
    report.pin_seconds = SecondsSince(pin_start);
  }
  report.pinned_pages = pool->num_permanent_pins();

  std::unique_ptr<storage::WalWriter> wal;
  if (spec.storage.wal.enabled) {
    // The bulk load wrote the store directly (no pool, no log), so sync it
    // and start the log with a checkpoint describing that durable base;
    // recovery of a crash mid-run replays from here.
    RTB_RETURN_IF_ERROR(prepared.store->Sync());
    storage::WalWriter::Options wopts;
    wopts.group_commit_window = spec.storage.wal.group_commit_window;
    const std::string wal_path = spec.storage.wal.path.empty()
                                     ? spec.storage.path + ".wal"
                                     : spec.storage.wal.path;
    RTB_ASSIGN_OR_RETURN(wal, storage::WalWriter::Create(wal_path, wopts));
    RTB_RETURN_IF_ERROR(wal->Checkpoint(prepared.store->num_pages()));
    pool->AttachWal(wal.get());
  }
  report.wal_active = spec.storage.wal.enabled;

  RTB_ASSIGN_OR_RETURN(
      rtree::RTree tree,
      rtree::RTree::Open(pool.get(),
                         rtree::RTreeConfig::WithFanout(prepared.meta.fanout),
                         prepared.meta.root, prepared.meta.height));

  const std::vector<geom::Point>* centers =
      prepared.centers == nullptr ? nullptr : prepared.centers.get();
  sim::GeneratorContext gen_ctx;
  gen_ctx.centers = prepared.centers;  // Shared, not borrowed: generators
                                       // survive the PreparedTree.
  for (size_t c = 0; c < spec.workload.classes.size(); ++c) {
    const QueryClassSpec& cls = spec.workload.classes[c];
    ClassReport cr;
    cr.label = ClassLabel(cls);
    cr.qspec = cls.query;

    RTB_ASSIGN_OR_RETURN(std::unique_ptr<sim::QueryGenerator> gen,
                         sim::MakeGenerator(cr.qspec, gen_ctx));
    sim::WorkloadOptions options;
    options.threads = spec.run.threads;
    options.base_seed = spec.run.seed + c * kClassSeedStride;
    options.warmup = c == 0 ? spec.workload.warmup : 0;
    options.queries = cls.count;
    options.batch_size = spec.workload.batch_size;
    if (cls.IsMixed()) {
      options.insert_frac = cls.insert_frac;
      options.delete_frac = cls.delete_frac;
      options.update_batch_size = spec.workload.update_batch_size;
      options.dataset = &prepared.rects;
      // Disjoint id ranges per class, so one class never deletes another
      // class's insertion by id collision.
      options.insert_id_base =
          (uint64_t{1} << 40) + c * (uint64_t{1} << 32);
    }
    RTB_ASSIGN_OR_RETURN(cr.run,
                         sim::RunWorkload(&tree, prepared.store.get(),
                                          gen.get(), options));
    if (cls.IsMixed()) {
      // Updates went through the buffered batch path; force every dirty
      // page out and re-check the structural invariants before the class
      // is reported. Packed loads legitimately leave one underfull node
      // per level, so min fill is not enforced.
      RTB_RETURN_IF_ERROR(pool->FlushAll());
      rtree::ValidateOptions vopts;
      vopts.check_min_fill = false;
      const rtree::ValidationReport vr = rtree::ValidateTree(
          prepared.store.get(), tree.root(), tree.config(), vopts);
      if (!vr.ok) {
        return Status::Corruption(
            "tree invalid after mixed class '" + cr.label + "': " +
            (vr.issues.empty() ? "unknown issue" : vr.issues.front()));
      }
      cr.validated = true;
    }
    report.warmup_seconds += cr.run.warmup_seconds;
    report.measure_seconds += cr.run.elapsed_seconds;
    report.total.queries += cr.run.queries;
    report.total.disk_accesses += cr.run.disk_accesses;
    report.total.node_accesses += cr.run.node_accesses;
    report.total.searches += cr.run.searches;
    report.total.inserts += cr.run.inserts;
    report.total.deletes += cr.run.deletes;
    report.total.warmup_seconds += cr.run.warmup_seconds;
    report.total.elapsed_seconds += cr.run.elapsed_seconds;

    // The analytic model predicts query cost against the built tree; a
    // mixed class mutates it mid-run, so no prediction is reported.
    // Custom-registered center sources have no analytic model and are
    // skipped rather than failing the run.
    if (spec.run.evaluate_model && !cls.IsMixed() &&
        model::HasAnalyticModel(cls.query.center)) {
      RTB_ASSIGN_OR_RETURN(cr.predicted,
                           EvaluateModel(*prepared.summary, cr.qspec,
                                         spec.pool, centers,
                                         spec.workload.batch_size));
      cr.model_evaluated = true;
    }
    report.classes.push_back(std::move(cr));
  }

  report.buffer = pool->AggregateStats();
  report.store_io = prepared.store->stats();
  if (wal != nullptr) {
    const storage::WalStats ws = wal->stats();
    report.store_io.wal_records = ws.records;
    report.store_io.wal_bytes = ws.bytes;
    report.store_io.wal_commits = ws.commits;
    report.store_io.wal_fsyncs = ws.fsyncs;
  }
  // Tear down explicitly so a writeback or final-flush failure surfaces as
  // a Status instead of being swallowed by the destructors. Counters were
  // captured above, so the flush traffic doesn't perturb the report. A
  // WAL-attached pool checkpoints on Close (flush + store sync + log
  // truncation), so a clean shutdown leaves nothing to recover.
  RTB_RETURN_IF_ERROR(pool->Close());
  if (wal != nullptr) RTB_RETURN_IF_ERROR(wal->Close());
  RTB_RETURN_IF_ERROR(prepared.store->Close());
  return report;
}

report::JsonDict RunReport::ToJsonDict() const {
  report::JsonDict doc;
  doc.PutStr("report", "rtb-run");
  doc.PutInt("schema_version", kRunReportSchemaVersion);
  doc.PutStr("name", spec.name);
  doc.PutDict("spec", spec.ToJsonDict());

  report::JsonDict tree;
  tree.PutInt("height", height);
  tree.PutInt("nodes", num_nodes);
  tree.PutInt("data_entries", data_entries);
  tree.PutInt("fanout", spec.tree.fanout);
  doc.PutDict("tree", tree);

  report::JsonDict phases;
  phases.PutNum("build_seconds", build_seconds);
  phases.PutNum("pin_seconds", pin_seconds);
  phases.PutNum("warmup_seconds", warmup_seconds);
  phases.PutNum("measure_seconds", measure_seconds);
  doc.PutDict("phases", phases);

  report::JsonDict pool;
  pool.PutInt("requests", buffer.requests);
  pool.PutInt("hits", buffer.hits);
  pool.PutInt("misses", buffer.misses);
  pool.PutInt("evictions", buffer.evictions);
  pool.PutInt("writebacks", buffer.writebacks);
  pool.PutNum("hit_rate", buffer.HitRate());
  pool.PutInt("pinned_pages", pinned_pages);
  doc.PutDict("pool", pool);

  report::JsonDict store;
  store.PutInt("reads", store_io.reads);
  store.PutInt("writes", store_io.writes);
  store.PutInt("read_batches", store_io.read_batches);
  store.PutInt("batch_pages", store_io.batch_pages);
  store.PutNum("pages_per_batch", store_io.PagesPerBatch());
  store.PutInt("write_batches", store_io.write_batches);
  store.PutInt("write_batch_pages", store_io.write_batch_pages);
  store.PutInt("write_syscalls", store_io.WriteSyscalls());
  if (wal_active) {
    // Only present on WAL runs, so a WAL-off report stays byte-identical
    // to a build without the seam.
    store.PutInt("wal_records", store_io.wal_records);
    store.PutInt("wal_bytes", store_io.wal_bytes);
    store.PutInt("wal_commits", store_io.wal_commits);
    store.PutInt("wal_fsyncs", store_io.wal_fsyncs);
    store.PutInt("wal_spare_frames", buffer.spare_frames);
  }
  doc.PutDict("store", store);

  report::JsonDict totals;
  totals.PutInt("queries", total.queries);
  totals.PutInt("disk_accesses", total.disk_accesses);
  totals.PutInt("node_accesses", total.node_accesses);
  totals.PutNum("mean_disk_accesses", total.MeanDiskAccesses());
  totals.PutNum("mean_node_accesses", total.MeanNodeAccesses());
  totals.PutNum("queries_per_second", total.QueriesPerSecond());
  doc.PutDict("totals", totals);

  std::vector<report::JsonDict> class_dicts;
  for (const ClassReport& cr : classes) {
    report::JsonDict c;
    c.PutStr("label", cr.label);
    c.PutStr("model", cr.qspec.center);
    if (cr.qspec.x.open) {
      c.PutStr("qx", "open");
    } else {
      c.PutNum("qx", cr.qspec.x.length);
    }
    if (cr.qspec.y.open) {
      c.PutStr("qy", "open");
    } else {
      c.PutNum("qy", cr.qspec.y.length);
    }
    c.PutInt("queries", cr.run.queries);
    c.PutInt("disk_accesses", cr.run.disk_accesses);
    c.PutInt("node_accesses", cr.run.node_accesses);
    c.PutNum("mean_disk_accesses", cr.run.MeanDiskAccesses());
    c.PutNum("mean_node_accesses", cr.run.MeanNodeAccesses());
    c.PutNum("elapsed_seconds", cr.run.elapsed_seconds);
    c.PutNum("queries_per_second", cr.run.QueriesPerSecond());
    if (cr.validated) {
      c.PutInt("searches", cr.run.searches);
      c.PutInt("inserts", cr.run.inserts);
      c.PutInt("deletes", cr.run.deletes);
      c.PutBool("validated", cr.validated);
    }
    if (cr.model_evaluated) {
      report::JsonDict predicted;
      predicted.PutNum("node_accesses", cr.predicted.node_accesses);
      predicted.PutNum("disk_accesses", cr.predicted.disk_accesses);
      predicted.PutNum("disk_accesses_continuous",
                       cr.predicted.disk_accesses_continuous);
      predicted.PutBool("feasible", cr.predicted.feasible);
      if (spec.pool.pinned_levels > 0) {
        predicted.PutInt("pinned_pages", cr.predicted.pinned_pages);
      }
      if (cr.predicted.batched) {
        // Only on batched runs, so batch_size == 1 reports keep their
        // pre-redesign bytes.
        predicted.PutNum("batched_disk_accesses",
                         cr.predicted.batched_disk_accesses);
        predicted.PutNum("effective_hit_rate",
                         cr.predicted.effective_hit_rate);
      }
      c.PutDict("predicted", predicted);
    }
    if (cr.run.per_worker.size() > 1) {
      std::vector<report::JsonDict> workers;
      for (size_t w = 0; w < cr.run.per_worker.size(); ++w) {
        report::JsonDict wd;
        wd.PutInt("worker", w);
        wd.PutInt("queries", cr.run.per_worker[w].queries);
        wd.PutInt("node_accesses", cr.run.per_worker[w].node_accesses);
        workers.push_back(std::move(wd));
      }
      c.PutDictArray("per_worker", workers);
    }
    class_dicts.push_back(std::move(c));
  }
  doc.PutDictArray("classes", class_dicts);
  return doc;
}

std::string RunReport::ToJsonString() const {
  return ToJsonDict().ToString() + "\n";
}

}  // namespace rtb::engine
