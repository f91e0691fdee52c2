// Shared machine-readable report layer: a tiny JSON emitter and parser.
//
// The emitter (JsonDict / BenchReport) started life in bench/common.h as the
// perf-trajectory harness; it is promoted here so CLI runs, benches, the
// experiment engine and tests all write the same schema. The parser
// (JsonValue) is what the engine's declarative ExperimentSpec and the
// schema smoke tests read JSON with. Both sides are deliberately small:
// objects, arrays, strings, finite doubles, bools and null — exactly what
// the run reports need, no external dependency.

#ifndef RTB_REPORT_JSON_H_
#define RTB_REPORT_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace rtb::report {

/// An insertion-ordered flat JSON object of string/number/bool fields.
/// Distinct method names per type sidestep the const char* -> bool overload
/// trap. Nested objects and arrays of objects are supported through
/// PutDict / PutDictArray, and arrays of integers through PutIntArray
/// (values are rendered at Put time).
class JsonDict {
 public:
  void PutStr(const std::string& key, const std::string& value);
  void PutNum(const std::string& key, double value);  // Shortest round-trip.
  void PutInt(const std::string& key, uint64_t value);
  void PutBool(const std::string& key, bool value);

  /// Nests `value` under `key` (rendered immediately).
  void PutDict(const std::string& key, const JsonDict& value);

  /// Nests `[v0, v1, ...]` under `key`.
  void PutDictArray(const std::string& key,
                    const std::vector<JsonDict>& values);

  /// `[n0, n1, ...]` under `key`.
  void PutIntArray(const std::string& key,
                   const std::vector<uint64_t>& values);

  bool Has(const std::string& key) const;
  size_t size() const { return fields_.size(); }

  /// {"k": v, ...} with keys in insertion order and strings escaped.
  std::string ToString() const;

 private:
  // Value is pre-rendered JSON; strings are escaped+quoted at Put time.
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The JSON document a benchmark emits: top-level metadata (bench name,
/// seed, workload parameters) plus one result object per measured
/// configuration. Written as BENCH_<name>.json so every perf PR can record
/// its before/after numbers in a diffable, machine-readable form.
///
/// Schema:
///   {
///     "bench": "<name>",
///     <metadata fields...>,
///     "configs": [ {"config": "<label>", <metric fields...>}, ... ]
///   }
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  /// Top-level metadata fields.
  JsonDict& meta() { return meta_; }

  /// Appends a config-result object (its "config" field is `label`) and
  /// returns it for metric Puts. References stay valid for the report's
  /// lifetime.
  JsonDict& AddConfig(const std::string& label);

  size_t num_configs() const { return configs_.size(); }

  /// The full document.
  std::string ToJson() const;

  /// Writes ToJson() to `path`; empty path means "BENCH_<name>.json" in the
  /// current directory. Prints the destination and returns false on I/O
  /// failure.
  bool WriteFile(const std::string& path = "") const;

 private:
  std::string name_;
  JsonDict meta_;
  std::vector<std::unique_ptr<JsonDict>> configs_;
};

/// A parsed JSON value. Objects preserve member order; numbers are doubles
/// (integers up to 2^53 round-trip exactly, which covers every counter the
/// reports emit).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  /// Parses `text` as a single JSON document (trailing whitespace only).
  /// Errors are InvalidArgument with a byte offset and description.
  static Result<JsonValue> Parse(const std::string& text);

  JsonValue() = default;  // null

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; calling the wrong one is a programming error
  /// (RTB_CHECK). Use the is_*() predicates first.
  bool boolean() const;
  double number() const;
  const std::string& str() const;
  const std::vector<JsonValue>& array() const;
  const std::vector<Member>& members() const;

  /// Object lookup; nullptr when absent or when this is not an object.
  const JsonValue* Find(const std::string& key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> members_;
};

}  // namespace rtb::report

#endif  // RTB_REPORT_JSON_H_
