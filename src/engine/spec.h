// Declarative experiment description for the engine (engine/engine.h).
//
// An ExperimentSpec captures everything one paper-style experiment needs —
// data set, tree construction, buffer pool, pinning, query workload and
// seeds — as one value that can be parsed from a JSON file
// (`rtb_cli run spec.json`) or built directly in C++ (benches, tests).
// The same spec drives both the measured run and the analytic cost model,
// so measured-vs-predicted comparisons always describe the same
// configuration.
//
// Example spec (all fields optional except workload.classes):
//
//   {
//     "name": "tiger_b200",
//     "dataset": {"kind": "tiger", "n": 53145, "seed": 7},
//     "tree": {"fanout": 100, "algo": "HS"},
//     "pool": {"buffer_pages": 200, "policy": "LRU", "pinned_levels": 0},
//     "workload": {
//       "warmup": 10000,
//       "classes": [
//         {"label": "point", "model": "uniform", "count": 100000},
//         {"label": "region1%", "model": "uniform",
//          "qx": 0.01, "qy": 0.01, "count": 100000},
//         {"label": "partial-x", "model": "uniform",
//          "qx": 0.01, "qy": "open", "count": 100000},
//         {"label": "hotspots", "model": "cluster", "qx": 0.01, "qy": 0.01,
//          "hotspots": 16, "spread": 0.05, "skew": 1.0, "count": 100000}
//       ]
//     },
//     "run": {"seed": 1, "evaluate_model": true}
//   }
//
// Unknown keys anywhere in the document are rejected: a typoed field must
// fail loudly rather than silently fall back to a default.

#ifndef RTB_ENGINE_SPEC_H_
#define RTB_ENGINE_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/query_class.h"
#include "report/json.h"
#include "storage/replacement.h"
#include "util/result.h"

namespace rtb::engine {

/// What to build the tree from. `kind == "file"` loads an rtb-rects file
/// from `path`; the synthetic kinds generate `n` rectangles with `seed`.
struct DatasetSpec {
  std::string kind = "uniform";  // uniform|region|tiger|cfd|clusters|file
  uint64_t n = 10000;
  uint64_t seed = 1;
  std::string path;  // Rectangle file (kind == "file", or centers source).
};

/// How to obtain the tree. A non-empty `index` opens a persistent index
/// built by `rtb_cli build` (the dataset is then only consulted for
/// data-driven query centers); otherwise the dataset is bulk-loaded into an
/// in-memory store.
struct TreeSpec {
  uint32_t fanout = 100;
  std::string algo = "HS";  // HS|NX|STR|TAT|RSTAR
  std::string index;        // Existing index file; empty = build from dataset.
};

/// Which PageStore backs a tree built from the dataset. `backend == "mem"`
/// (the default) is the paper's counting in-memory store; `backend ==
/// "file"` bulk-loads into a FilePageStore at `path` (created or
/// truncated), exercising the real preadv/pread read path. Ignored — and
/// rejected by Validate — when tree.index names a persistent index, which
/// carries its own file.
/// Write-ahead-log configuration (storage/wal.h). Enabling it switches the
/// run's pool to the no-force discipline: each drained update batch logs
/// page images plus one commit record, evictions ensure WAL-durability
/// before writeback, and the store is opened with recovery (replay a
/// committed log suffix, discard a torn tail). Requires backend "file".
struct WalSpec {
  bool enabled = false;
  std::string path;  // Log file; empty = storage.path + ".wal".
  /// Commit records per fdatasync (WalWriter::Options::group_commit_window):
  /// 1 forces every commit, N defers durability to every Nth commit.
  uint64_t group_commit_window = 8;
};

struct StorageSpec {
  std::string backend = "mem";  // mem|file
  std::string path;             // Store file (backend == "file").
  WalSpec wal;
};

/// Buffer pool configuration. `shards == 0` selects the paper's serial
/// pool (globally ordered replacement, bit-reproducible); `shards > 0` the
/// lock-striped ShardedBufferPool, whose replacement runs per shard and
/// over whose shards a batched run splits each tree level.
struct PoolSpec {
  uint64_t buffer_pages = 100;
  std::string policy = "LRU";  // LRU|FIFO|CLOCK|LFU|RANDOM|LRU2
  uint64_t shards = 0;         // Lock stripes; 0 = the serial pool.
  uint16_t pinned_levels = 0;  // Top tree levels pinned in the pool.
};

/// One query class: the unified model::QueryClass description (center
/// source, per-axis extents where an axis may be open, cluster parameters)
/// plus how many measured queries to run. JSON keys: "model" is the center
/// source, "qx"/"qy" are numbers or the string "open", and
/// "hotspots"/"spread"/"skew"/"hotspot_seed" configure model "cluster".
struct QueryClassSpec {
  std::string label;          // Defaults to model+extent if empty.
  model::QueryClass query;
  uint64_t count = 100000;
  /// Mixed insert/delete/search workload: each of the class's `count`
  /// operations is an insert with probability insert_frac, a delete of a
  /// present entry with probability delete_frac, and a search otherwise
  /// (sim::WorkloadOptions for the exact stream contract). Both 0 (the
  /// default) is a pure query class. Mixed classes mutate the tree, so
  /// they require a dataset-built tree (no tree.index); the engine flushes
  /// the pool and structurally validates the tree after each mixed class's
  /// measured phase.
  double insert_frac = 0.0;
  double delete_frac = 0.0;

  bool IsMixed() const { return insert_frac > 0.0 || delete_frac > 0.0; }
};

/// The query workload: shared warm-up, then each class measured in order.
struct WorkloadSpec {
  uint64_t warmup = 10000;  // Warm-up queries from the first class.
  /// Queries per executor batch (rtree::BatchExecutor). 1 = the paper's
  /// serial per-query loop; >= 2 groups queries and visits each distinct
  /// page once per batch (level-synchronous traversal).
  uint64_t batch_size = 1;
  /// Updates of a mixed class buffered per rtree::UpdateBatchExecutor
  /// batch (group-by-leaf application, vectored dirty-page writeback).
  /// 1 = apply each update tuple-at-a-time through RTree::Insert /
  /// RTree::Delete (Guttman's Delete/CondenseTree), the batched path's
  /// equivalence oracle. Ignored by pure query classes.
  uint64_t update_batch_size = 1;
  std::vector<QueryClassSpec> classes;

  bool HasMixedClass() const {
    for (const QueryClassSpec& cls : classes) {
      if (cls.IsMixed()) return true;
    }
    return false;
  }
};

/// Execution parameters. The retired key run.threads still parses with
/// the value 1 (see ParseRun).
struct RunSpec {
  uint64_t seed = 1;           // Class c draws from a stream seeded by it.
  bool evaluate_model = true;  // Also compute the analytic prediction.
};

/// The complete declarative experiment.
struct ExperimentSpec {
  std::string name = "experiment";
  DatasetSpec dataset;
  TreeSpec tree;
  StorageSpec storage;
  PoolSpec pool;
  WorkloadSpec workload;
  RunSpec run;

  /// Parses a JSON document; missing fields keep their defaults, unknown
  /// keys and type mismatches are InvalidArgument. The result is Validated.
  static Result<ExperimentSpec> FromJson(const std::string& text);

  /// FromJson over the contents of `path`.
  static Result<ExperimentSpec> FromJsonFile(const std::string& path);

  /// Semantic checks beyond JSON shape: enum strings resolve, extents are
  /// in [0, 1), at least one query class with count > 0, data-driven classes have a centers source, ...
  Status Validate() const;

  /// The spec as a JSON object (round-trips through FromJson).
  report::JsonDict ToJsonDict() const;
};

/// Parses a replacement-policy name ("LRU", "FIFO", "CLOCK", "LFU",
/// "RANDOM", "LRU2") as accepted in PoolSpec::policy.
Result<storage::PolicyKind> ParsePolicyKind(const std::string& name);

}  // namespace rtb::engine

#endif  // RTB_ENGINE_SPEC_H_
