#include "engine/spec.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "sim/query_gen.h"

namespace rtb::engine {

namespace {

using report::JsonValue;

Status Bad(const std::string& what) {
  return Status::InvalidArgument("spec: " + what);
}

Status GetStr(const JsonValue& v, const std::string& ctx, std::string* out) {
  if (!v.is_string()) return Bad(ctx + " must be a string");
  *out = v.str();
  return Status::OK();
}

Status GetUint(const JsonValue& v, const std::string& ctx, uint64_t* out) {
  // JSON numbers arrive as doubles; only exact non-negative integers are
  // valid counts/seeds.
  if (!v.is_number()) return Bad(ctx + " must be a number");
  const double d = v.number();
  if (d < 0 || d != std::floor(d) || d > 9.007199254740992e15) {
    return Bad(ctx + " must be a non-negative integer");
  }
  *out = static_cast<uint64_t>(d);
  return Status::OK();
}

Status GetDouble(const JsonValue& v, const std::string& ctx, double* out) {
  if (!v.is_number()) return Bad(ctx + " must be a number");
  *out = v.number();
  return Status::OK();
}

Status GetBool(const JsonValue& v, const std::string& ctx, bool* out) {
  if (!v.is_bool()) return Bad(ctx + " must be true or false");
  *out = v.boolean();
  return Status::OK();
}

Status ParseDataset(const JsonValue& v, DatasetSpec* out) {
  if (!v.is_object()) return Bad("dataset must be an object");
  for (const auto& [key, value] : v.members()) {
    if (key == "kind") {
      RTB_RETURN_IF_ERROR(GetStr(value, "dataset.kind", &out->kind));
    } else if (key == "n") {
      RTB_RETURN_IF_ERROR(GetUint(value, "dataset.n", &out->n));
    } else if (key == "seed") {
      RTB_RETURN_IF_ERROR(GetUint(value, "dataset.seed", &out->seed));
    } else if (key == "path") {
      RTB_RETURN_IF_ERROR(GetStr(value, "dataset.path", &out->path));
    } else {
      return Bad("unknown key dataset." + key);
    }
  }
  return Status::OK();
}

Status ParseTree(const JsonValue& v, TreeSpec* out) {
  if (!v.is_object()) return Bad("tree must be an object");
  for (const auto& [key, value] : v.members()) {
    if (key == "fanout") {
      uint64_t fanout = 0;
      RTB_RETURN_IF_ERROR(GetUint(value, "tree.fanout", &fanout));
      out->fanout = static_cast<uint32_t>(fanout);
    } else if (key == "algo") {
      RTB_RETURN_IF_ERROR(GetStr(value, "tree.algo", &out->algo));
    } else if (key == "index") {
      RTB_RETURN_IF_ERROR(GetStr(value, "tree.index", &out->index));
    } else {
      return Bad("unknown key tree." + key);
    }
  }
  return Status::OK();
}

Status ParseWal(const JsonValue& v, WalSpec* out) {
  if (!v.is_object()) return Bad("storage.wal must be an object");
  for (const auto& [key, value] : v.members()) {
    if (key == "enabled") {
      RTB_RETURN_IF_ERROR(GetBool(value, "storage.wal.enabled", &out->enabled));
    } else if (key == "path") {
      RTB_RETURN_IF_ERROR(GetStr(value, "storage.wal.path", &out->path));
    } else if (key == "group_commit_window") {
      RTB_RETURN_IF_ERROR(GetUint(value, "storage.wal.group_commit_window",
                                  &out->group_commit_window));
    } else {
      return Bad("unknown key storage.wal." + key);
    }
  }
  return Status::OK();
}

Status ParseStorage(const JsonValue& v, StorageSpec* out) {
  if (!v.is_object()) return Bad("storage must be an object");
  for (const auto& [key, value] : v.members()) {
    if (key == "backend") {
      RTB_RETURN_IF_ERROR(GetStr(value, "storage.backend", &out->backend));
    } else if (key == "path") {
      RTB_RETURN_IF_ERROR(GetStr(value, "storage.path", &out->path));
    } else if (key == "wal") {
      RTB_RETURN_IF_ERROR(ParseWal(value, &out->wal));
    } else {
      return Bad("unknown key storage." + key);
    }
  }
  return Status::OK();
}

Status ParsePool(const JsonValue& v, PoolSpec* out) {
  if (!v.is_object()) return Bad("pool must be an object");
  for (const auto& [key, value] : v.members()) {
    if (key == "buffer_pages") {
      RTB_RETURN_IF_ERROR(
          GetUint(value, "pool.buffer_pages", &out->buffer_pages));
    } else if (key == "policy") {
      RTB_RETURN_IF_ERROR(GetStr(value, "pool.policy", &out->policy));
    } else if (key == "shards") {
      RTB_RETURN_IF_ERROR(GetUint(value, "pool.shards", &out->shards));
    } else if (key == "pinned_levels") {
      uint64_t levels = 0;
      RTB_RETURN_IF_ERROR(GetUint(value, "pool.pinned_levels", &levels));
      if (levels > UINT16_MAX) return Bad("pool.pinned_levels out of range");
      out->pinned_levels = static_cast<uint16_t>(levels);
    } else {
      return Bad("unknown key pool." + key);
    }
  }
  return Status::OK();
}

// An extent is a number, or the string "open" for an unconstrained
// (partial-match) axis.
Status GetExtent(const JsonValue& v, const std::string& ctx,
                 model::AxisExtent* out) {
  if (v.is_string()) {
    if (v.str() != "open") {
      return Bad(ctx + " must be a number or \"open\"");
    }
    *out = model::AxisExtent::Open();
    return Status::OK();
  }
  double length = 0.0;
  RTB_RETURN_IF_ERROR(GetDouble(v, ctx, &length));
  *out = model::AxisExtent::Fixed(length);
  return Status::OK();
}

Status ParseClass(const JsonValue& v, size_t i, QueryClassSpec* out) {
  const std::string ctx = "workload.classes[" + std::to_string(i) + "]";
  if (!v.is_object()) return Bad(ctx + " must be an object");
  bool saw_cluster_key = false;
  for (const auto& [key, value] : v.members()) {
    if (key == "label") {
      RTB_RETURN_IF_ERROR(GetStr(value, ctx + ".label", &out->label));
    } else if (key == "model") {
      RTB_RETURN_IF_ERROR(GetStr(value, ctx + ".model", &out->query.center));
    } else if (key == "qx") {
      RTB_RETURN_IF_ERROR(GetExtent(value, ctx + ".qx", &out->query.x));
    } else if (key == "qy") {
      RTB_RETURN_IF_ERROR(GetExtent(value, ctx + ".qy", &out->query.y));
    } else if (key == "hotspots") {
      uint64_t hotspots = 0;
      RTB_RETURN_IF_ERROR(GetUint(value, ctx + ".hotspots", &hotspots));
      if (hotspots == 0 || hotspots > UINT32_MAX) {
        return Bad(ctx + ".hotspots out of range");
      }
      out->query.cluster.hotspots = static_cast<uint32_t>(hotspots);
      saw_cluster_key = true;
    } else if (key == "spread") {
      RTB_RETURN_IF_ERROR(
          GetDouble(value, ctx + ".spread", &out->query.cluster.spread));
      saw_cluster_key = true;
    } else if (key == "skew") {
      RTB_RETURN_IF_ERROR(
          GetDouble(value, ctx + ".skew", &out->query.cluster.skew));
      saw_cluster_key = true;
    } else if (key == "hotspot_seed") {
      RTB_RETURN_IF_ERROR(GetUint(value, ctx + ".hotspot_seed",
                                  &out->query.cluster.placement_seed));
      saw_cluster_key = true;
    } else if (key == "count") {
      RTB_RETURN_IF_ERROR(GetUint(value, ctx + ".count", &out->count));
    } else if (key == "insert_frac") {
      RTB_RETURN_IF_ERROR(
          GetDouble(value, ctx + ".insert_frac", &out->insert_frac));
    } else if (key == "delete_frac") {
      RTB_RETURN_IF_ERROR(
          GetDouble(value, ctx + ".delete_frac", &out->delete_frac));
    } else {
      return Bad("unknown key " + ctx + "." + key);
    }
  }
  if (saw_cluster_key && out->query.center != model::kCenterCluster) {
    return Bad(ctx + ": hotspots/spread/skew/hotspot_seed require "
               "model 'cluster'");
  }
  return Status::OK();
}

Status ParseWorkload(const JsonValue& v, WorkloadSpec* out) {
  if (!v.is_object()) return Bad("workload must be an object");
  for (const auto& [key, value] : v.members()) {
    if (key == "warmup") {
      RTB_RETURN_IF_ERROR(GetUint(value, "workload.warmup", &out->warmup));
    } else if (key == "batch_size") {
      RTB_RETURN_IF_ERROR(
          GetUint(value, "workload.batch_size", &out->batch_size));
    } else if (key == "update_batch_size") {
      RTB_RETURN_IF_ERROR(GetUint(value, "workload.update_batch_size",
                                  &out->update_batch_size));
    } else if (key == "classes") {
      if (!value.is_array()) return Bad("workload.classes must be an array");
      out->classes.clear();
      for (size_t i = 0; i < value.array().size(); ++i) {
        QueryClassSpec cls;
        RTB_RETURN_IF_ERROR(ParseClass(value.array()[i], i, &cls));
        out->classes.push_back(std::move(cls));
      }
    } else {
      return Bad("unknown key workload." + key);
    }
  }
  return Status::OK();
}

Status ParseRun(const JsonValue& v, RunSpec* out) {
  if (!v.is_object()) return Bad("run must be an object");
  for (const auto& [key, value] : v.members()) {
    if (key == "threads") {
      // Retired, but perfbench's specs still write the serial value 1.
      uint64_t threads = 0;
      RTB_RETURN_IF_ERROR(GetUint(value, "run.threads", &threads));
      if (threads != 1) {
        return Bad("run.threads was removed; batched runs on a sharded "
                   "pool (pool.shards > 0) use the shard split");
      }
    } else if (key == "seed") {
      RTB_RETURN_IF_ERROR(GetUint(value, "run.seed", &out->seed));
    } else if (key == "evaluate_model") {
      RTB_RETURN_IF_ERROR(
          GetBool(value, "run.evaluate_model", &out->evaluate_model));
    } else {
      return Bad("unknown key run." + key);
    }
  }
  return Status::OK();
}

bool ValidKind(const std::string& kind) {
  return kind == "uniform" || kind == "region" || kind == "tiger" ||
         kind == "cfd" || kind == "clusters" || kind == "file";
}

bool ValidAlgo(const std::string& algo) {
  return algo == "HS" || algo == "NX" || algo == "STR" || algo == "TAT" ||
         algo == "RSTAR";
}

}  // namespace

Result<storage::PolicyKind> ParsePolicyKind(const std::string& name) {
  if (name == "LRU") return storage::PolicyKind::kLru;
  if (name == "FIFO") return storage::PolicyKind::kFifo;
  if (name == "CLOCK") return storage::PolicyKind::kClock;
  if (name == "LFU") return storage::PolicyKind::kLfu;
  if (name == "RANDOM") return storage::PolicyKind::kRandom;
  if (name == "LRU2") return storage::PolicyKind::kLruK;
  return Status::InvalidArgument(
      "unknown policy '" + name + "' (LRU|FIFO|CLOCK|LFU|RANDOM|LRU2)");
}

Result<ExperimentSpec> ExperimentSpec::FromJson(const std::string& text) {
  RTB_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  if (!doc.is_object()) return Bad("top level must be an object");
  ExperimentSpec spec;
  for (const auto& [key, value] : doc.members()) {
    if (key == "name") {
      RTB_RETURN_IF_ERROR(GetStr(value, "name", &spec.name));
    } else if (key == "dataset") {
      RTB_RETURN_IF_ERROR(ParseDataset(value, &spec.dataset));
    } else if (key == "tree") {
      RTB_RETURN_IF_ERROR(ParseTree(value, &spec.tree));
    } else if (key == "storage") {
      RTB_RETURN_IF_ERROR(ParseStorage(value, &spec.storage));
    } else if (key == "pool") {
      RTB_RETURN_IF_ERROR(ParsePool(value, &spec.pool));
    } else if (key == "workload") {
      RTB_RETURN_IF_ERROR(ParseWorkload(value, &spec.workload));
    } else if (key == "run") {
      RTB_RETURN_IF_ERROR(ParseRun(value, &spec.run));
    } else {
      return Bad("unknown key " + key);
    }
  }
  RTB_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

Result<ExperimentSpec> ExperimentSpec::FromJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return FromJson(text.str());
}

Status ExperimentSpec::Validate() const {
  if (!ValidKind(dataset.kind)) {
    return Bad("unknown dataset.kind '" + dataset.kind +
               "' (uniform|region|tiger|cfd|clusters|file)");
  }
  if (dataset.kind == "file" && dataset.path.empty()) {
    return Bad("dataset.kind 'file' needs dataset.path");
  }
  if (dataset.kind != "file" && dataset.n == 0) {
    return Bad("dataset.n must be >= 1");
  }
  if (tree.fanout < 2) return Bad("tree.fanout must be >= 2");
  if (!ValidAlgo(tree.algo)) {
    return Bad("unknown tree.algo '" + tree.algo +
               "' (HS|NX|STR|TAT|RSTAR)");
  }
  if (storage.backend != "mem" && storage.backend != "file") {
    return Bad("unknown storage.backend '" + storage.backend +
               "' (mem|file)");
  }
  if (storage.backend == "file" && storage.path.empty()) {
    return Bad("storage.backend 'file' needs storage.path");
  }
  if (storage.backend == "file" && !tree.index.empty()) {
    // A persistent index carries its own store file; a second one would
    // silently go unused.
    return Bad("storage.backend 'file' conflicts with tree.index");
  }
  if (storage.wal.enabled && storage.backend != "file") {
    // The log redoes pages of a real store file; an in-memory store
    // has nothing to recover.
    return Bad("storage.wal.enabled requires storage.backend 'file'");
  }
  if (storage.wal.group_commit_window == 0) {
    return Bad("storage.wal.group_commit_window must be >= 1");
  }
  if (pool.buffer_pages == 0) return Bad("pool.buffer_pages must be >= 1");
  RTB_RETURN_IF_ERROR(ParsePolicyKind(pool.policy).status());
  if (workload.batch_size == 0) {
    return Bad("workload.batch_size must be >= 1");
  }
  if (workload.update_batch_size == 0) {
    return Bad("workload.update_batch_size must be >= 1");
  }
  if (workload.classes.empty()) {
    return Bad("workload.classes must have at least one class");
  }
  for (size_t i = 0; i < workload.classes.size(); ++i) {
    const QueryClassSpec& cls = workload.classes[i];
    const std::string ctx = "workload.classes[" + std::to_string(i) + "]";
    if (!sim::HasGenerator(cls.query.center)) {
      return Bad(ctx + ".model must name a registered query model "
                 "('uniform', 'data', 'cluster', ...)");
    }
    if ((!cls.query.x.open &&
         !(cls.query.x.length >= 0.0 && cls.query.x.length < 1.0)) ||
        (!cls.query.y.open &&
         !(cls.query.y.length >= 0.0 && cls.query.y.length < 1.0))) {
      return Bad(ctx + " extents must be in [0, 1)");
    }
    if (Status s = cls.query.Validate(); !s.ok()) {
      return Bad(ctx + ": " + s.message());
    }
    if (cls.count == 0) return Bad(ctx + ".count must be >= 1");
    if (!(cls.insert_frac >= 0.0 && cls.insert_frac <= 1.0) ||
        !(cls.delete_frac >= 0.0 && cls.delete_frac <= 1.0) ||
        cls.insert_frac + cls.delete_frac > 1.0) {
      return Bad(ctx + " update fractions must be in [0, 1] with sum <= 1");
    }
    if (cls.IsMixed()) {
      if (cls.query.has_open_axis()) {
        // Mixed classes insert rectangles drawn from the query generator;
        // an open axis would insert infinite geometry into the tree.
        return Bad(ctx + " mixes updates, which conflicts with open axes");
      }
      if (!tree.index.empty()) {
        // Updates mutate the store; an opened index file must not be
        // rewritten behind the user's back, and the delete ledger needs
        // the dataset the tree was built from.
        return Bad(ctx + " mixes updates, which requires a dataset-built "
                   "tree (tree.index must be empty)");
      }
    }
    if (sim::GeneratorNeedsCenters(cls.query.center) && !tree.index.empty() &&
        dataset.path.empty()) {
      // Built trees supply query centers from their own data; an opened
      // index has no data on hand, so the centers must come from a file.
      return Bad(ctx + " is data-driven over an opened index; set "
                 "dataset.path to the rectangle file");
    }
  }
  return Status::OK();
}

report::JsonDict ExperimentSpec::ToJsonDict() const {
  report::JsonDict doc;
  doc.PutStr("name", name);

  report::JsonDict ds;
  ds.PutStr("kind", dataset.kind);
  ds.PutInt("n", dataset.n);
  ds.PutInt("seed", dataset.seed);
  if (!dataset.path.empty()) ds.PutStr("path", dataset.path);
  doc.PutDict("dataset", ds);

  report::JsonDict tr;
  tr.PutInt("fanout", tree.fanout);
  tr.PutStr("algo", tree.algo);
  if (!tree.index.empty()) tr.PutStr("index", tree.index);
  doc.PutDict("tree", tr);

  report::JsonDict st;
  st.PutStr("backend", storage.backend);
  if (!storage.path.empty()) st.PutStr("path", storage.path);
  if (storage.wal.enabled || !storage.wal.path.empty() ||
      storage.wal.group_commit_window != WalSpec().group_commit_window) {
    // Omitted entirely at the defaults, so a WAL-off spec round-trips to
    // the same bytes it produced before the WAL existed.
    report::JsonDict wal;
    wal.PutBool("enabled", storage.wal.enabled);
    if (!storage.wal.path.empty()) wal.PutStr("path", storage.wal.path);
    wal.PutInt("group_commit_window", storage.wal.group_commit_window);
    st.PutDict("wal", wal);
  }
  doc.PutDict("storage", st);

  report::JsonDict pl;
  pl.PutInt("buffer_pages", pool.buffer_pages);
  pl.PutStr("policy", pool.policy);
  pl.PutInt("shards", pool.shards);
  pl.PutInt("pinned_levels", pool.pinned_levels);
  doc.PutDict("pool", pl);

  report::JsonDict wl;
  wl.PutInt("warmup", workload.warmup);
  wl.PutInt("batch_size", workload.batch_size);
  wl.PutInt("update_batch_size", workload.update_batch_size);
  std::vector<report::JsonDict> classes;
  for (const QueryClassSpec& cls : workload.classes) {
    report::JsonDict c;
    if (!cls.label.empty()) c.PutStr("label", cls.label);
    c.PutStr("model", cls.query.center);
    // An open axis emits the string "open"; fixed extents stay numbers, so
    // pre-redesign specs round-trip byte-identically.
    if (cls.query.x.open) {
      c.PutStr("qx", "open");
    } else {
      c.PutNum("qx", cls.query.x.length);
    }
    if (cls.query.y.open) {
      c.PutStr("qy", "open");
    } else {
      c.PutNum("qy", cls.query.y.length);
    }
    if (cls.query.center == model::kCenterCluster) {
      // Cluster parameters only exist for cluster classes, mirroring the
      // WAL dict's omit-at-defaults contract.
      c.PutInt("hotspots", cls.query.cluster.hotspots);
      c.PutNum("spread", cls.query.cluster.spread);
      c.PutNum("skew", cls.query.cluster.skew);
      c.PutInt("hotspot_seed", cls.query.cluster.placement_seed);
    }
    c.PutInt("count", cls.count);
    if (cls.IsMixed()) {
      c.PutNum("insert_frac", cls.insert_frac);
      c.PutNum("delete_frac", cls.delete_frac);
    }
    classes.push_back(std::move(c));
  }
  wl.PutDictArray("classes", classes);
  doc.PutDict("workload", wl);

  report::JsonDict rn;
  rn.PutInt("seed", run.seed);
  rn.PutBool("evaluate_model", run.evaluate_model);
  doc.PutDict("run", rn);
  return doc;
}

}  // namespace rtb::engine
