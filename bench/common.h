// Shared infrastructure for the paper-experiment benches: dataset/tree
// construction, model/simulation shorthands, aligned table printing, and a
// tiny --flag=value command-line parser.
//
// Every bench prints (a) the experiment's provenance (paper figure/table,
// workload, parameters, seed) and (b) the series the paper plots, as an
// aligned text table — one bench binary per table/figure, per DESIGN.md.

#ifndef RTB_BENCH_COMMON_H_
#define RTB_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rtb.h"
#include "report/json.h"

namespace rtb::bench {

/// Minimal command-line flags: --name=value. Unrecognized flags abort with
/// a message listing supported names.
class Flags {
 public:
  Flags(int argc, char** argv,
        std::map<std::string, std::string> defaults);

  uint64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  std::string GetString(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// A tree built for an experiment: page store + summary + provenance.
struct Workload {
  std::unique_ptr<storage::MemPageStore> store;
  rtree::BuiltTree tree;
  std::unique_ptr<rtree::TreeSummary> summary;
  std::vector<geom::Point> centers;  // Data centers (data-driven queries).
  std::string label;
  uint32_t fanout = 0;  // Node capacity the tree was built with.
};

/// Builds `rects` into a tree with the given loader and extracts its
/// summary. Aborts (RTB_CHECK) on failure: benches treat build errors as
/// fatal configuration mistakes.
Workload BuildWorkload(const std::vector<geom::Rect>& rects, uint32_t fanout,
                       rtree::LoadAlgorithm algo);

/// Named datasets used across the benches.
std::vector<geom::Rect> MakeTigerData(uint64_t seed, size_t n = 53145);
std::vector<geom::Rect> MakeCfdData(uint64_t seed, size_t n = 52510);

/// Model shorthand: expected disk accesses for a workload/spec/buffer.
double ModelDiskAccesses(const Workload& w, const model::QuerySpec& spec,
                         uint64_t buffer_pages);

/// Simulation shorthand: batch-means LRU simulation (paper Section 4).
struct SimEstimate {
  double mean = 0.0;
  double ci90_rel = 0.0;  // Relative 90% confidence half-width.
};
SimEstimate SimulateDiskAccesses(const Workload& w,
                                 const model::QuerySpec& spec,
                                 uint64_t buffer_pages, uint32_t batches,
                                 uint64_t batch_size, uint64_t seed);

/// Aligned fixed-width table printer with optional CSV export.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  /// Appends the table as CSV to `path` (with the headers, prefixed by an
  /// optional `label` column), for plotting. Returns false on I/O failure.
  bool AppendCsv(const std::string& path, const std::string& label) const;

  /// Formats a double with `digits` fractional digits.
  static std::string Num(double v, int digits = 3);
  static std::string Int(uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard bench banner (figure id, description, seed).
void Banner(const std::string& experiment, const std::string& description,
            uint64_t seed);

// --------------------------------------------------------------------------
// Machine-readable benchmark output (the repo's perf trajectory)
// --------------------------------------------------------------------------

// The JSON emitter lives in the shared report library (report/json.h) so
// the experiment engine can reuse it; benches keep their historical
// bench::JsonDict / bench::BenchReport names as aliases.
using JsonDict = report::JsonDict;
using BenchReport = report::BenchReport;

}  // namespace rtb::bench

#endif  // RTB_BENCH_COMMON_H_
