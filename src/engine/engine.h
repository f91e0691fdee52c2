// The experiment engine: executes a declarative ExperimentSpec end to end —
// build (or open) the tree, construct the buffer pool, pin the top levels,
// warm up, measure every query class — through the one unified workload
// executor (sim/runner.h), and evaluates the paper's analytic cost model
// for the same spec so measured and predicted disk accesses land in a
// single report.
//
// Serial specs (threads == 1, shards == 0) run the paper's bit-reproducible
// configuration: the counters in the report are byte-identical to a hand
//-written serial RunWorkload over the same tree and seed (pinned by
// tests/engine_test.cc). Parallel specs keep per-worker determinism via RNG
// substreams.
//
//   auto spec = ExperimentSpec::FromJsonFile("spec.json");
//   auto report = engine::Run(*spec);
//   std::puts(report->ToJsonString().c_str());

#ifndef RTB_ENGINE_ENGINE_H_
#define RTB_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/index_meta.h"
#include "engine/spec.h"
#include "model/access_prob.h"
#include "report/json.h"
#include "rtree/summary.h"
#include "sim/runner.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/result.h"

namespace rtb::engine {

/// Version of the JSON document RunReport::ToJsonDict emits. Bump on any
/// incompatible schema change.
inline constexpr uint64_t kRunReportSchemaVersion = 1;

/// A tree materialized for a spec: the page store (in-memory for built
/// trees unless storage.backend is "file"; file-backed for opened indexes),
/// its summary, and — when any query class is data-driven — the data
/// rectangle centers.
struct PreparedTree {
  std::unique_ptr<storage::PageStore> store;
  std::unique_ptr<rtree::TreeSummary> summary;
  /// Shared with the query generators (sim::GeneratorContext), so a
  /// generator built from this tree stays valid even if the PreparedTree
  /// is torn down or rebuilt mid-run. Null when no class needs centers.
  std::shared_ptr<const std::vector<geom::Point>> centers;
  /// The build rectangles, kept only when a mixed update class needs them
  /// to seed its delete-victim ledger (object ids are their indexes).
  std::vector<geom::Rect> rects;
  IndexMeta meta;
  double build_seconds = 0.0;  // Dataset generation + bulk load (0 on open).
};

/// Builds the spec's dataset into an in-memory tree, or opens
/// spec.tree.index when set. Store counters are reset, so subsequent reads
/// are all query traffic.
Result<PreparedTree> PrepareTree(const ExperimentSpec& spec);

/// Analytic prediction for one query class under a pool configuration.
struct ModelEstimate {
  double node_accesses = 0.0;  // Bufferless nodes per query.
  double disk_accesses = 0.0;  // LRU buffer model (pinned variant if set).
  double disk_accesses_continuous = 0.0;  // Real-valued N* refinement.
  bool feasible = true;        // False: pinned levels exceed the buffer.
  uint64_t pinned_pages = 0;
  /// Batched-executor model (batch_size >= 2, no pinning): Eq. 5-6 at
  /// batch granularity (model::ExpectedBatchedDiskAccesses).
  bool batched = false;
  double batched_disk_accesses = 0.0;  // Per query, within-batch collapse.
  double effective_hit_rate = 0.0;     // Predicted 1 - disk/EP.
};

/// Evaluates the cost model for `qspec` against `summary` under `pool`
/// (buffer size and pinned levels). `centers` is required for data-driven
/// specs. `batch_size >= 2` additionally evaluates the batched-executor
/// model (when no levels are pinned).
Result<ModelEstimate> EvaluateModel(const rtree::TreeSummary& summary,
                                    const model::QuerySpec& qspec,
                                    const PoolSpec& pool,
                                    const std::vector<geom::Point>* centers =
                                        nullptr,
                                    uint64_t batch_size = 1);

/// Measured (and optionally predicted) results of one query class.
struct ClassReport {
  std::string label;
  model::QuerySpec qspec;
  sim::WorkloadResult run;
  bool model_evaluated = false;
  ModelEstimate predicted;  // Valid when model_evaluated.
  /// Mixed update classes only: the pool was flushed and the tree
  /// structurally validated after the measured phase (Run fails otherwise,
  /// so a reported mixed class always has this set).
  bool validated = false;
};

/// Everything a run produced: tree shape, phase wall-times, buffer-pool and
/// store counters, per-class measured-vs-predicted results.
struct RunReport {
  ExperimentSpec spec;

  // Tree shape.
  uint16_t height = 0;
  uint64_t num_nodes = 0;
  uint64_t data_entries = 0;

  // Phase wall-times (seconds).
  double build_seconds = 0.0;
  double pin_seconds = 0.0;
  double warmup_seconds = 0.0;
  double measure_seconds = 0.0;

  uint64_t pinned_pages = 0;
  storage::BufferStats buffer;  // Merged pool counters, warm-up included.
  storage::IoStats store_io;    // Store counters over the whole run.
  bool wal_active = false;      // Updates logged through a WAL; the
                                // wal_* counters in store_io are live.

  sim::WorkloadResult total;    // Counters summed over all classes.
  std::vector<ClassReport> classes;

  /// The report as a JSON object:
  ///   {"report": "rtb-run", "schema_version": 1, "name": ..., "spec": {...},
  ///    "tree": {...}, "phases": {...}, "pool": {...}, "store": {...},
  ///    "totals": {...}, "classes": [{..., "predicted": {...}}, ...]}
  report::JsonDict ToJsonDict() const;

  /// ToJsonDict() rendered as a document (with trailing newline).
  std::string ToJsonString() const;
};

/// Executes the full pipeline for `spec`: validate, prepare tree, build
/// pool, pin levels, warm up, measure every class, evaluate the model.
Result<RunReport> Run(const ExperimentSpec& spec);

}  // namespace rtb::engine

#endif  // RTB_ENGINE_ENGINE_H_
