// rtb_cli — command-line front end for the rtree-buffer library.
//
// Subcommands:
//   generate  --kind=uniform|region|tiger|cfd --n=N --seed=S --out=FILE
//       Write a synthetic data set as an rtb-rects file.
//   build     --data=FILE --index=FILE --fanout=N --algo=HS|NX|STR|TAT|RSTAR
//       Bulk-load (or insert) the data into a persistent index file. Tree
//       metadata (root page, height, fanout) is stored in FILE.meta.
//   stats     --index=FILE
//       Print tree shape, per-level node counts, and MBR aggregates.
//   validate  --index=FILE [--strict=0|1]
//       Check structural invariants.
//   predict   --index=FILE --buffer=B [--qx=QX --qy=QY] [--pin=L]
//             [--data=FILE]
//       Model-predicted disk accesses per query; --data switches to the
//       data-driven query model using that file's rectangle centers.
//   query     --index=FILE --buffer=B --queries=N [--qx --qy --seed]
//             [--threads=T --shards=S]
//       Actually execute a random query workload through an LRU buffer
//       pool and report measured disk accesses next to the prediction.
//       --threads=T fans the stream out over T workers on a lock-striped
//       (sharded) pool and additionally reports throughput and hit rate;
//       --threads=1 (default) is the paper's serial, bit-reproducible path.
//   run       <spec.json> [--out=FILE]
//       Execute a declarative experiment spec (engine/spec.h) end to end —
//       build or open the tree, pin levels, warm up, measure every query
//       class — and write the machine-readable run report as JSON.
//       --out=- prints only the JSON document to stdout.
//   knn       --index=FILE --x=X --y=Y [--k=K] [--buffer=B]
//       Report the K objects nearest to (X, Y).
//
// Every subcommand accepts --help. Unknown subcommands and unknown or
// malformed flags exit non-zero with a usage string.
//
// Example session:
//   rtb_cli generate --kind=tiger --n=53145 --out=roads.rects
//   rtb_cli build --data=roads.rects --index=roads.idx --fanout=100 --algo=HS
//   rtb_cli predict --index=roads.idx --buffer=200
//   rtb_cli query --index=roads.idx --buffer=200 --queries=100000
//   rtb_cli run experiment.json

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rtb.h"

namespace rtb::cli {
namespace {

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

int Fail(const std::string& message) {
  std::fprintf(stderr, "rtb_cli: %s\n", message.c_str());
  return 1;
}

int FailStatus(const char* what, const Status& status) {
  return Fail(std::string(what) + ": " + status.ToString());
}

int FailUsage(const std::string& message, const char* usage) {
  std::fprintf(stderr, "rtb_cli: %s\n%s", message.c_str(), usage);
  return 2;
}

// True when any argument after the subcommand is --help/-h.
bool WantsHelp(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return true;
    }
  }
  return false;
}

// Parsed --name=value arguments with defaults.
class Args {
 public:
  Args(int argc, char** argv, int first,
       std::map<std::string, std::string> defaults)
      : values_(std::move(defaults)) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        ok_ = false;
        error_ = "malformed argument '" + arg + "' (want --name=value)";
        return;
      }
      std::string name = arg.substr(2, eq - 2);
      if (values_.find(name) == values_.end()) {
        ok_ = false;
        error_ = "unknown flag --" + name;
        return;
      }
      values_[name] = arg.substr(eq + 1);
    }
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  std::string Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? "" : it->second;
  }
  uint64_t GetInt(const std::string& name) const {
    return std::strtoull(Get(name).c_str(), nullptr, 10);
  }
  double GetDouble(const std::string& name) const {
    return std::strtod(Get(name).c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
  std::string error_;
};

// Opens the index + summary for the read-only subcommands.
struct OpenedIndex {
  std::unique_ptr<storage::FilePageStore> store;
  engine::IndexMeta meta;
  std::unique_ptr<rtree::TreeSummary> summary;
};

Result<OpenedIndex> OpenIndex(const std::string& path) {
  OpenedIndex opened;
  RTB_ASSIGN_OR_RETURN(opened.meta, engine::LoadIndexMeta(path));
  RTB_ASSIGN_OR_RETURN(opened.store, storage::FilePageStore::Open(path));
  RTB_ASSIGN_OR_RETURN(
      rtree::TreeSummary summary,
      rtree::TreeSummary::Extract(opened.store.get(), opened.meta.root));
  opened.summary =
      std::make_unique<rtree::TreeSummary>(std::move(summary));
  opened.store->ResetStats();
  return opened;
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

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

constexpr char kGenerateUsage[] =
    "usage: rtb_cli generate --kind=uniform|region|tiger|cfd --n=N\n"
    "                        --seed=S --out=FILE\n"
    "  Write a synthetic data set as an rtb-rects file.\n";

int CmdGenerate(int argc, char** argv) {
  if (WantsHelp(argc, argv)) return std::fputs(kGenerateUsage, stdout), 0;
  Args args(argc, argv, 2,
            {{"kind", "uniform"}, {"n", "10000"}, {"seed", "1"},
             {"out", ""}});
  if (!args.ok()) return FailUsage(args.error(), kGenerateUsage);
  if (args.Get("out").empty()) {
    return FailUsage("generate needs --out=FILE", kGenerateUsage);
  }
  Rng rng(args.GetInt("seed"));
  const size_t n = args.GetInt("n");
  std::vector<geom::Rect> rects;
  const std::string kind = args.Get("kind");
  if (kind == "uniform") {
    rects = data::GenerateUniformPoints(n, &rng);
  } else if (kind == "region") {
    rects = data::GenerateSyntheticRegion(n, &rng);
  } else if (kind == "tiger") {
    data::TigerParams params;
    params.num_rects = n;
    rects = data::GenerateTigerSurrogate(params, &rng);
  } else if (kind == "cfd") {
    data::CfdParams params;
    params.num_points = n;
    rects = data::GenerateCfdSurrogate(params, &rng);
  } else {
    return FailUsage("unknown kind '" + kind +
                     "' (uniform|region|tiger|cfd)", kGenerateUsage);
  }
  if (Status s = data::SaveRects(args.Get("out"), rects); !s.ok()) {
    return FailStatus("save", s);
  }
  std::printf("wrote %zu rectangles to %s\n", rects.size(),
              args.Get("out").c_str());
  return 0;
}

constexpr char kBuildUsage[] =
    "usage: rtb_cli build --data=FILE --index=FILE --fanout=N\n"
    "                     --algo=HS|NX|STR|TAT|RSTAR\n"
    "  Bulk-load the data into a persistent index file (+ FILE.meta).\n";

int CmdBuild(int argc, char** argv) {
  if (WantsHelp(argc, argv)) return std::fputs(kBuildUsage, stdout), 0;
  Args args(argc, argv, 2,
            {{"data", ""}, {"index", ""}, {"fanout", "100"},
             {"algo", "HS"}});
  if (!args.ok()) return FailUsage(args.error(), kBuildUsage);
  if (args.Get("data").empty() || args.Get("index").empty()) {
    return FailUsage("build needs --data=FILE and --index=FILE",
                     kBuildUsage);
  }
  auto rects = data::LoadRects(args.Get("data"));
  if (!rects.ok()) return FailStatus("load data", rects.status());

  auto store = storage::FilePageStore::Create(args.Get("index"));
  if (!store.ok()) return FailStatus("create index", store.status());

  const uint32_t fanout = static_cast<uint32_t>(args.GetInt("fanout"));
  rtree::RTreeConfig config = args.Get("algo") == "RSTAR"
                                  ? rtree::RTreeConfig::RStar(fanout)
                                  : rtree::RTreeConfig::WithFanout(fanout);
  auto algo = ParseAlgo(args.Get("algo"));
  if (!algo.ok()) return FailStatus("algorithm", algo.status());

  auto built = rtree::BuildRTree(store->get(), config, *rects, *algo);
  if (!built.ok()) return FailStatus("build", built.status());
  if (Status s = (*store)->Close(); !s.ok()) return FailStatus("close", s);
  engine::IndexMeta meta{built->root, built->height, fanout};
  if (Status s = engine::SaveIndexMeta(args.Get("index"), meta); !s.ok()) {
    return FailStatus("meta", s);
  }
  std::printf("built %s index: %u nodes, height %u, root page %u -> %s\n",
              args.Get("algo").c_str(), built->num_nodes, built->height,
              built->root, args.Get("index").c_str());
  return 0;
}

constexpr char kStatsUsage[] =
    "usage: rtb_cli stats --index=FILE\n"
    "  Print tree shape, per-level node counts, and MBR aggregates.\n";

int CmdStats(int argc, char** argv) {
  if (WantsHelp(argc, argv)) return std::fputs(kStatsUsage, stdout), 0;
  Args args(argc, argv, 2, {{"index", ""}});
  if (!args.ok()) return FailUsage(args.error(), kStatsUsage);
  auto opened = OpenIndex(args.Get("index"));
  if (!opened.ok()) return FailStatus("open", opened.status());
  const auto& s = *opened->summary;
  std::printf("index:   %s\n", args.Get("index").c_str());
  std::printf("fanout:  %u\n", opened->meta.fanout);
  std::printf("height:  %u levels\n", s.height());
  std::printf("nodes:   %zu (data entries: %llu)\n", s.NumNodes(),
              static_cast<unsigned long long>(s.NumDataEntries()));
  for (uint16_t l = 0; l < s.height(); ++l) {
    std::printf("  level %u (paper level %u): %u nodes\n", l,
                s.height() - 1 - l,
                s.NodesAtLevel(static_cast<uint16_t>(l)));
  }
  std::printf("total MBR area (A):      %.4f\n", s.TotalArea());
  std::printf("total x-extents (Lx):    %.4f\n", s.TotalXExtent());
  std::printf("total y-extents (Ly):    %.4f\n", s.TotalYExtent());
  std::printf("mean entries per node:   %.1f\n", s.MeanEntriesPerNode());
  std::printf("bufferless EP(point):    %.4f nodes/query\n", s.TotalArea());
  return 0;
}

constexpr char kValidateUsage[] =
    "usage: rtb_cli validate --index=FILE [--strict=0|1]\n"
    "  Check structural invariants of an index.\n";

int CmdValidate(int argc, char** argv) {
  if (WantsHelp(argc, argv)) return std::fputs(kValidateUsage, stdout), 0;
  Args args(argc, argv, 2, {{"index", ""}, {"strict", "0"}});
  if (!args.ok()) return FailUsage(args.error(), kValidateUsage);
  auto meta = engine::LoadIndexMeta(args.Get("index"));
  if (!meta.ok()) return FailStatus("meta", meta.status());
  auto store = storage::FilePageStore::Open(args.Get("index"));
  if (!store.ok()) return FailStatus("open", store.status());
  rtree::ValidateOptions options;
  options.check_min_fill = args.GetInt("strict") != 0;
  rtree::ValidationReport report =
      rtree::ValidateTree(store->get(), meta->root,
                          rtree::RTreeConfig::WithFanout(meta->fanout),
                          options);
  std::printf("nodes: %llu, data entries: %llu\n",
              static_cast<unsigned long long>(report.num_nodes),
              static_cast<unsigned long long>(report.num_data_entries));
  if (report.ok) {
    std::printf("OK: all structural invariants hold\n");
    return 0;
  }
  for (const std::string& issue : report.issues) {
    std::printf("ISSUE: %s\n", issue.c_str());
  }
  return 1;
}

constexpr char kPredictUsage[] =
    "usage: rtb_cli predict --index=FILE --buffer=B [--qx=QX --qy=QY]\n"
    "                       [--open=x|y] [--pin=L] [--data=FILE]\n"
    "  Model-predicted disk accesses per query; --data switches to the\n"
    "  data-driven query model using that file's rectangle centers.\n"
    "  --open=x (or y) leaves that axis unconstrained (partial-match\n"
    "  query); the extended model drops the open axis from the per-axis\n"
    "  probability product.\n";

// Thin wrapper over engine::PrepareTree + engine::EvaluateModel: the flags
// populate an ExperimentSpec and the engine evaluates the analytic model
// for it.
int CmdPredict(int argc, char** argv) {
  if (WantsHelp(argc, argv)) return std::fputs(kPredictUsage, stdout), 0;
  Args args(argc, argv, 2,
            {{"index", ""}, {"buffer", "100"}, {"qx", "0"}, {"qy", "0"},
             {"open", ""}, {"pin", "0"}, {"data", ""}});
  if (!args.ok()) return FailUsage(args.error(), kPredictUsage);

  engine::ExperimentSpec spec;
  spec.tree.index = args.Get("index");
  spec.dataset.path = args.Get("data");
  spec.pool.buffer_pages = args.GetInt("buffer");
  spec.pool.pinned_levels = static_cast<uint16_t>(args.GetInt("pin"));
  engine::QueryClassSpec cls;
  cls.query.center = args.Get("data").empty() ? "uniform" : "data";
  cls.query.x = model::AxisExtent::Fixed(args.GetDouble("qx"));
  cls.query.y = model::AxisExtent::Fixed(args.GetDouble("qy"));
  if (args.Get("open") == "x") {
    cls.query.x = model::AxisExtent::Open();
  } else if (args.Get("open") == "y") {
    cls.query.y = model::AxisExtent::Open();
  } else if (!args.Get("open").empty()) {
    return FailUsage("--open must be 'x' or 'y'", kPredictUsage);
  }
  cls.count = 1;  // Model-only: no queries are executed.
  spec.workload.classes.push_back(cls);
  if (Status s = spec.Validate(); !s.ok()) return FailStatus("spec", s);

  auto prepared = engine::PrepareTree(spec);
  if (!prepared.ok()) return FailStatus("open", prepared.status());
  auto est = engine::EvaluateModel(
      *prepared->summary, cls.query, spec.pool,
      prepared->centers == nullptr ? nullptr : prepared->centers.get());
  if (!est.ok()) return FailStatus("model", est.status());

  const uint64_t buffer = spec.pool.buffer_pages;
  const uint16_t pin = spec.pool.pinned_levels;
  const auto extent_str = [](const model::AxisExtent& ax) {
    if (ax.open) return std::string("open");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", ax.length);
    return std::string(buf);
  };
  std::printf("query model:   %s, %s x %s\n",
              cls.query.center == "data" ? "data-driven"
                                         : cls.query.center.c_str(),
              extent_str(cls.query.x).c_str(),
              extent_str(cls.query.y).c_str());
  std::printf("nodes/query (bufferless):   %.4f\n", est->node_accesses);
  if (pin == 0) {
    std::printf("disk accesses/query (B=%llu): %.4f (continuous: %.4f)\n",
                static_cast<unsigned long long>(buffer),
                est->disk_accesses, est->disk_accesses_continuous);
  } else {
    if (!est->feasible) {
      return Fail("pinning " + std::to_string(pin) + " levels needs " +
                  std::to_string(est->pinned_pages) +
                  " pages but the buffer has only " +
                  std::to_string(buffer));
    }
    std::printf(
        "disk accesses/query (B=%llu, %u levels pinned = %llu pages): "
        "%.4f\n",
        static_cast<unsigned long long>(buffer), pin,
        static_cast<unsigned long long>(est->pinned_pages),
        est->disk_accesses);
  }
  return 0;
}

constexpr char kQueryUsage[] =
    "usage: rtb_cli query --index=FILE --buffer=B --queries=N\n"
    "                     [--qx=QX --qy=QY --open=x|y --seed=S --warmup=W]\n"
    "                     [--threads=T --shards=S --batch=N]\n"
    "                     [--data=FILE --fanout=N]\n"
    "                     [--insert-frac=F --delete-frac=F "
    "--update-batch=N]\n"
    "  Execute a random query workload through a buffer pool and report\n"
    "  measured disk accesses next to the model prediction. --threads=1\n"
    "  (default) is the paper's serial, bit-reproducible path. --batch=N\n"
    "  with N >= 2 executes N queries per level-synchronous batch (each\n"
    "  distinct page fetched once per batch); --batch=1 (default) is the\n"
    "  classic one-query-at-a-time loop. --open=x|y makes that axis of the\n"
    "  query rectangle open (partial-match: only the other axis\n"
    "  constrains).\n"
    "  --data=FILE (instead of --index) bulk-loads the rectangle file into\n"
    "  an in-memory tree with --fanout. --insert-frac/--delete-frac turn\n"
    "  the stream into a mixed insert/delete/search workload (requires\n"
    "  --data and --threads=1); --update-batch=N applies updates in\n"
    "  group-by-leaf batches of N (1 = tuple-at-a-time Guttman updates).\n"
    "  --store=FILE backs the built tree with a FilePageStore at FILE;\n"
    "  --wal=1 adds a write-ahead log (STORE.wal) so every drained update\n"
    "  batch commits durably, with --wal-window=N commits per fdatasync\n"
    "  (group commit; 1 = force each commit). Requires --store.\n";

// Thin wrapper over engine::Run: the flags populate an ExperimentSpec with
// one uniform query class over the opened index (or a tree built from
// --data).
int CmdQuery(int argc, char** argv) {
  if (WantsHelp(argc, argv)) return std::fputs(kQueryUsage, stdout), 0;
  Args args(argc, argv, 2,
            {{"index", ""}, {"buffer", "100"}, {"queries", "100000"},
             {"qx", "0"}, {"qy", "0"}, {"open", ""},
             {"seed", "1"}, {"warmup", "10000"},
             {"threads", "1"}, {"shards", "0"}, {"batch", "1"},
             {"data", ""},
             {"fanout", "100"}, {"insert-frac", "0"}, {"delete-frac", "0"},
             {"update-batch", "1"}, {"store", ""}, {"wal", "0"},
             {"wal-window", "8"}});
  if (!args.ok()) return FailUsage(args.error(), kQueryUsage);
  if (args.Get("index").empty() == args.Get("data").empty()) {
    return FailUsage("query needs exactly one of --index=FILE or "
                     "--data=FILE", kQueryUsage);
  }

  engine::ExperimentSpec spec;
  if (!args.Get("index").empty()) {
    spec.tree.index = args.Get("index");
  } else {
    spec.dataset.kind = "file";
    spec.dataset.path = args.Get("data");
    spec.tree.fanout =
        static_cast<uint32_t>(std::max<uint64_t>(2, args.GetInt("fanout")));
  }
  spec.pool.buffer_pages = args.GetInt("buffer");
  spec.pool.shards = args.GetInt("shards");
  spec.run.threads =
      std::max<uint32_t>(1, static_cast<uint32_t>(args.GetInt("threads")));
  spec.run.seed = args.GetInt("seed");
  spec.workload.warmup = args.GetInt("warmup");
  spec.workload.batch_size =
      std::max<uint64_t>(1, args.GetInt("batch"));
  if (!args.Get("store").empty()) {
    spec.storage.backend = "file";
    spec.storage.path = args.Get("store");
  }
  spec.storage.wal.enabled = args.GetInt("wal") != 0;
  spec.storage.wal.group_commit_window =
      std::max<uint64_t>(1, args.GetInt("wal-window"));
  spec.workload.update_batch_size =
      std::max<uint64_t>(1, args.GetInt("update-batch"));
  engine::QueryClassSpec cls;
  cls.query.x = model::AxisExtent::Fixed(args.GetDouble("qx"));
  cls.query.y = model::AxisExtent::Fixed(args.GetDouble("qy"));
  if (args.Get("open") == "x") {
    cls.query.x = model::AxisExtent::Open();
  } else if (args.Get("open") == "y") {
    cls.query.y = model::AxisExtent::Open();
  } else if (!args.Get("open").empty()) {
    return FailUsage("--open must be x or y", kQueryUsage);
  }
  cls.count = args.GetInt("queries");
  cls.insert_frac = args.GetDouble("insert-frac");
  cls.delete_frac = args.GetDouble("delete-frac");
  spec.workload.classes.push_back(cls);
  if (Status s = spec.Validate(); !s.ok()) return FailStatus("spec", s);

  auto report = engine::Run(spec);
  if (!report.ok()) return FailStatus("workload", report.status());
  const engine::ClassReport& cr = report->classes[0];

  std::printf("executed %llu queries (after %llu warm-up)\n",
              static_cast<unsigned long long>(report->total.queries),
              static_cast<unsigned long long>(spec.workload.warmup));
  if (spec.run.threads > 1) {
    std::printf("threads:   %u workers over a lock-striped pool\n",
                spec.run.threads);
    std::printf("throughput: %.0f queries/s (measured phase, %.3f s)\n",
                report->total.QueriesPerSecond(),
                report->measure_seconds);
    std::printf("hit rate:  %.2f%% (merged over shards)\n",
                100.0 * report->buffer.HitRate());
  }
  std::printf("measured:  %.4f disk accesses/query (%.4f nodes/query)\n",
              cr.run.MeanDiskAccesses(), cr.run.MeanNodeAccesses());
  if (cr.model_evaluated) {
    std::printf("predicted: %.4f disk accesses/query (LRU buffer model)\n",
                cr.predicted.disk_accesses);
  }
  if (cr.validated) {
    std::printf("mixed:     %llu searches, %llu inserts, %llu deletes "
                "(update batch %llu); tree validated\n",
                static_cast<unsigned long long>(cr.run.searches),
                static_cast<unsigned long long>(cr.run.inserts),
                static_cast<unsigned long long>(cr.run.deletes),
                static_cast<unsigned long long>(
                    spec.workload.update_batch_size));
    std::printf("writes:    %llu pages in %llu syscalls\n",
                static_cast<unsigned long long>(report->store_io.writes),
                static_cast<unsigned long long>(
                    report->store_io.WriteSyscalls()));
  }
  if (report->wal_active) {
    std::printf("wal:       %llu records (%llu bytes), %llu commits in "
                "%llu fsyncs (window %llu)\n",
                static_cast<unsigned long long>(report->store_io.wal_records),
                static_cast<unsigned long long>(report->store_io.wal_bytes),
                static_cast<unsigned long long>(report->store_io.wal_commits),
                static_cast<unsigned long long>(report->store_io.wal_fsyncs),
                static_cast<unsigned long long>(
                    spec.storage.wal.group_commit_window));
  }
  if (spec.run.threads > 1) {
    std::printf(
        "note: with --threads>1 replacement is per-shard LRU; measured hit\n"
        "      rates can deviate slightly from the serial-stream model.\n");
  }
  return 0;
}

constexpr char kRunUsage[] =
    "usage: rtb_cli run <spec.json> [--out=FILE]\n"
    "       rtb_cli run --spec=FILE [--out=FILE]\n"
    "  Execute a declarative experiment spec end to end and write the run\n"
    "  report as JSON (default RUN_<name>.json; --out=- prints only the\n"
    "  JSON document to stdout).\n";

int CmdRun(int argc, char** argv) {
  if (WantsHelp(argc, argv)) return std::fputs(kRunUsage, stdout), 0;
  // Accept the spec file as a positional argument or via --spec=.
  std::string spec_path;
  int first = 2;
  if (argc > 2 && std::strncmp(argv[2], "--", 2) != 0) {
    spec_path = argv[2];
    first = 3;
  }
  Args args(argc, argv, first, {{"spec", ""}, {"out", ""}});
  if (!args.ok()) return FailUsage(args.error(), kRunUsage);
  if (spec_path.empty()) spec_path = args.Get("spec");
  if (spec_path.empty()) {
    return FailUsage("run needs a spec file", kRunUsage);
  }

  auto spec = engine::ExperimentSpec::FromJsonFile(spec_path);
  if (!spec.ok()) return FailStatus(spec_path.c_str(), spec.status());
  auto report = engine::Run(*spec);
  if (!report.ok()) return FailStatus("run", report.status());

  const std::string json = report->ToJsonString();
  const std::string out = args.Get("out");
  if (out == "-") {
    std::fputs(json.c_str(), stdout);
    return 0;
  }

  std::printf("experiment: %s\n", spec->name.c_str());
  std::printf("tree: %llu nodes, height %u, %llu data entries\n",
              static_cast<unsigned long long>(report->num_nodes),
              report->height,
              static_cast<unsigned long long>(report->data_entries));
  std::printf("pool: %llu pages, %s",
              static_cast<unsigned long long>(spec->pool.buffer_pages),
              spec->pool.policy.c_str());
  if (report->pinned_pages > 0) {
    std::printf(", %u levels pinned (%llu pages)", spec->pool.pinned_levels,
                static_cast<unsigned long long>(report->pinned_pages));
  }
  std::printf("\n");
  for (const engine::ClassReport& cr : report->classes) {
    std::printf("  %-20s measured %.4f disk/query", cr.label.c_str(),
                cr.run.MeanDiskAccesses());
    if (cr.model_evaluated) {
      std::printf("  predicted %.4f", cr.predicted.disk_accesses);
    }
    std::printf("  (%llu queries)\n",
                static_cast<unsigned long long>(cr.run.queries));
  }
  std::printf("hit rate: %.2f%%  store reads: %llu\n",
              100.0 * report->buffer.HitRate(),
              static_cast<unsigned long long>(report->store_io.reads));

  const std::string dest =
      out.empty() ? "RUN_" + spec->name + ".json" : out;
  std::FILE* f = std::fopen(dest.c_str(), "w");
  if (f == nullptr) return Fail("cannot write " + dest);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) return Fail("write failed: " + dest);
  std::printf("wrote %s\n", dest.c_str());
  return 0;
}

constexpr char kKnnUsage[] =
    "usage: rtb_cli knn --index=FILE --x=X --y=Y [--k=K] [--buffer=B]\n"
    "  Report the K objects nearest to (X, Y).\n";

int CmdKnn(int argc, char** argv) {
  if (WantsHelp(argc, argv)) return std::fputs(kKnnUsage, stdout), 0;
  Args args(argc, argv, 2,
            {{"index", ""}, {"x", "0.5"}, {"y", "0.5"}, {"k", "5"},
             {"buffer", "64"}});
  if (!args.ok()) return FailUsage(args.error(), kKnnUsage);
  auto opened = OpenIndex(args.Get("index"));
  if (!opened.ok()) return FailStatus("open", opened.status());
  auto pool = storage::BufferPool::MakeLru(opened->store.get(),
                                           args.GetInt("buffer"));
  auto tree = rtree::RTree::Open(pool.get(),
                                 rtree::RTreeConfig::WithFanout(
                                     opened->meta.fanout),
                                 opened->meta.root, opened->meta.height);
  if (!tree.ok()) return FailStatus("open tree", tree.status());
  geom::Point p{args.GetDouble("x"), args.GetDouble("y")};
  rtree::QueryStats stats;
  auto neighbors = rtree::SearchKnn(*tree, p, args.GetInt("k"), &stats);
  if (!neighbors.ok()) return FailStatus("knn", neighbors.status());
  std::printf("%zu nearest to (%g, %g), %llu nodes touched:\n",
              neighbors->size(), p.x, p.y,
              static_cast<unsigned long long>(stats.nodes_accessed));
  for (const rtree::Neighbor& n : *neighbors) {
    std::printf("  object %llu  distance %.6f  "
                "mbr=(%.4f,%.4f)-(%.4f,%.4f)\n",
                static_cast<unsigned long long>(n.id), n.distance,
                n.rect.lo.x, n.rect.lo.y, n.rect.hi.x, n.rect.hi.y);
  }
  return 0;
}

constexpr char kUsage[] =
    "usage: rtb_cli <command> [--flag=value ...]\n"
    "commands:\n"
    "  generate   write a synthetic data set as an rtb-rects file\n"
    "  build      bulk-load data into a persistent index file\n"
    "  stats      print tree shape and MBR aggregates\n"
    "  validate   check structural invariants\n"
    "  predict    model-predicted disk accesses per query\n"
    "  query      execute a query workload, measured vs predicted\n"
    "  run        execute a declarative experiment spec (JSON)\n"
    "  knn        K nearest neighbors to a point\n"
    "run 'rtb_cli <command> --help' for that command's flags\n";

int Usage(std::FILE* out) {
  std::fputs(kUsage, out);
  return out == stdout ? 0 : 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage(stderr);
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    return Usage(stdout);
  }
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "build") return CmdBuild(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "validate") return CmdValidate(argc, argv);
  if (command == "predict") return CmdPredict(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  if (command == "run") return CmdRun(argc, argv);
  if (command == "knn") return CmdKnn(argc, argv);
  std::fprintf(stderr, "rtb_cli: unknown command '%s'\n", command.c_str());
  return Usage(stderr);
}

}  // namespace
}  // namespace rtb::cli

int main(int argc, char** argv) { return rtb::cli::Main(argc, argv); }
