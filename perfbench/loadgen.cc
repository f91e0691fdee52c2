// rtb_loadgen: the client half of the serving benchmark (perfbench/run.py
// drives it; perfbench/NOTES.md says why each workload exists).
//
//   rtb_loadgen load   --spec=FILE --port=P --outstanding=N --seconds=S
//                      --trace=0|1 [stream flags]
//   rtb_loadgen replay --spec=FILE --window=B [stream flags]
//
//   stream flags: --seed=N --search=F --knn=F --insert=F --delete=F
//                 --warm_tiles=G
//
// `load` drives a running rtb_server through the public net::Client as a
// closed loop: kConnections connections, one thread each, every connection
// keeps `outstanding` requests in flight and sends the next one when a reply
// arrives. After a warm-up it times a window of `seconds`, stops sending,
// drains what is in flight, and then checks a seeded sample of replies
// against a brute-force oracle over the generated rectangles (no src/rtree
// code is involved in the oracle). With --trace=1 it also reads the
// server's STATS document at both edges of the timed window.
//
// `replay` opens a net::ServingStack from the server's spec in process and
// replays the same seeded request streams in windows of `window` requests,
// in the server's drain order (updates, searches, kNN), recording a span
// around every call into a layer's public function.
//
// Both modes print one JSON object on stdout. A failure prints
// "rtb_loadgen: <step>: <message>" on stderr and exits non-zero.

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "engine/engine.h"
#include "engine/spec.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "model/query_class.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/serving.h"
#include "report/json.h"
#include "rtree/batch.h"
#include "rtree/knn.h"
#include "rtree/update_batch.h"
#include "util/rng.h"

namespace rtb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using geom::Point;
using geom::Rect;
using net::MsgType;

// One process, one thread and one connection per stream.
constexpr uint32_t kConnections = 2;
// SEARCH windows are squares of this side around a data center; with the
// 1M-rectangle TIGER surrogate each returns on the order of a hundred ids.
constexpr double kQuerySide = 0.002;
constexpr uint32_t kNeighbors = 10;  // KNN k.
// KNN points and inserted rectangles sit this far (one standard deviation)
// from a data center.
constexpr double kJitter = 0.001;
// Inserted rectangles are squares with side uniform in [0, kMaxInsertSide).
constexpr double kMaxInsertSide = 0.0005;
// Inserted object ids start here, far above the dataset's ids (0..n-1).
constexpr uint64_t kInsertIdBase = uint64_t{1} << 40;
// Closed-loop warm-up before the timed window.
constexpr double kWarmupS = 1.0;
// The timed window is cut into slices of about this length, each reported
// on its own.
constexpr double kSliceS = 2.0;
// Seeded requests checked against the oracle after the load.
constexpr uint64_t kCheckSamples = 200;
// Stream index of the check sample (connections use 0..kConnections-1).
constexpr uint32_t kCheckStream = 1000;
// A connection that gets no reply for this long counts as failed.
constexpr int kReplyTimeoutS = 30;
// Replayed requests before the replay's measured window, and inside it.
constexpr uint64_t kReplayWarmOps = 4000;
constexpr uint64_t kReplayOps = 24000;

[[noreturn]] void Die(const std::string& step, const std::string& message) {
  std::fprintf(stderr, "rtb_loadgen: %s: %s\n", step.c_str(),
               message.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

class Flags {
 public:
  Flags(int argc, char** argv, std::map<std::string, std::string> values)
      : values_(std::move(values)) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Die("arguments", "malformed argument '" + arg + "'");
      }
      const std::string name = arg.substr(2, eq - 2);
      if (values_.find(name) == values_.end()) {
        Die("arguments", "unknown flag --" + name);
      }
      values_[name] = arg.substr(eq + 1);
    }
  }

  const std::string& Str(const std::string& name) const {
    return values_.at(name);
  }
  double Num(const std::string& name) const {
    return std::strtod(Str(name).c_str(), nullptr);
  }
  uint64_t Int(const std::string& name) const {
    return std::strtoull(Str(name).c_str(), nullptr, 10);
  }

 private:
  std::map<std::string, std::string> values_;
};

// Flags shared by both modes: the server's spec and the request streams.
std::map<std::string, std::string> StreamFlagDefaults() {
  return {{"spec", ""},   {"seed", "1"},   {"search", "0.9"},
          {"knn", "0.1"}, {"insert", "0"}, {"delete", "0"},
          {"warm_tiles", "0"}};
}

struct StreamConfig {
  uint64_t seed = 0;
  double search = 0.0;  // Request-type fractions; the rest are DELETEs.
  double knn = 0.0;
  double insert = 0.0;
  uint32_t warm_tiles = 0;  // Grid side of the whole-tree warm-up; 0 = none.

  static StreamConfig FromFlags(const Flags& f) {
    StreamConfig c;
    c.seed = f.Int("seed");
    c.search = f.Num("search");
    c.knn = f.Num("knn");
    c.insert = f.Num("insert");
    c.warm_tiles = static_cast<uint32_t>(f.Int("warm_tiles"));
    const double total = c.search + c.knn + c.insert + f.Num("delete");
    if (std::fabs(total - 1.0) > 1e-9) {
      Die("arguments", "request-type fractions must sum to 1");
    }
    return c;
  }
};

engine::ExperimentSpec LoadSpec(const Flags& f) {
  auto spec = engine::ExperimentSpec::FromJsonFile(f.Str("spec"));
  if (!spec.ok()) Die("spec", spec.status().ToString());
  if (spec->dataset.kind != "tiger") {
    Die("spec", "the oracle regenerates only \"tiger\" datasets");
  }
  return *spec;
}

// The rectangles the spec's dataset generates: engine::PrepareTree draws a
// "tiger" dataset exactly like this, and object ids are vector indexes.
std::vector<Rect> MakeDataset(const engine::DatasetSpec& ds) {
  data::TigerParams params;
  params.num_rects = ds.n;
  Rng rng(ds.seed);
  return data::GenerateTigerSurrogate(params, &rng);
}

struct Object {
  uint64_t id = 0;
  Rect rect;
};

struct Op {
  MsgType type = MsgType::kSearch;
  Rect rect;      // SEARCH window, or the INSERT/DELETE object's rectangle.
  Point point;    // KNN query point.
  Object object;  // INSERT/DELETE.
};

// One connection's seeded request stream. Every Next() consumes the same
// draws whatever it returns, so stream positions do not depend on timing.
class OpStream {
 public:
  OpStream(const StreamConfig& cfg, const std::vector<Point>* centers,
           uint32_t stream)
      : cfg_(cfg),
        centers_(centers),
        rng_(Rng(cfg.seed * 0x9E3779B97F4A7C15ULL + stream + 1).Fork()),
        stream_(stream) {}

  // `alive` holds this stream's acknowledged, not yet deleted inserts; a
  // DELETE takes its victim out of it, and becomes a SEARCH when it is empty.
  Op Next(std::vector<Object>* alive) {
    const double u = rng_.NextDouble();
    const Point c = (*centers_)[rng_.UniformInt(centers_->size())];
    const double gx = rng_.NextGaussian();
    const double gy = rng_.NextGaussian();
    const double side = rng_.NextDouble() * kMaxInsertSide;
    const uint64_t victim = rng_.NextUint64();

    Op op;
    const double h = kQuerySide / 2.0;
    op.rect = Rect(c.x - h, c.y - h, c.x + h, c.y + h);
    if (u < cfg_.search) return op;
    if (u < cfg_.search + cfg_.knn) {
      op.type = MsgType::kKnn;
      op.point = Point{c.x + kJitter * gx, c.y + kJitter * gy};
      return op;
    }
    if (u < cfg_.search + cfg_.knn + cfg_.insert) {
      const double x = c.x + kJitter * gx;
      const double y = c.y + kJitter * gy;
      op.type = MsgType::kInsert;
      op.object = Object{kInsertIdBase + (uint64_t{stream_} << 32) +
                             next_insert_++,
                         Rect(x, y, x + side, y + side)};
      op.rect = op.object.rect;
      return op;
    }
    if (alive->empty()) return op;
    const size_t i = victim % alive->size();
    op.type = MsgType::kDelete;
    op.object = (*alive)[i];
    op.rect = op.object.rect;
    (*alive)[i] = alive->back();
    alive->pop_back();
    return op;
  }

 private:
  StreamConfig cfg_;
  const std::vector<Point>* centers_;
  Rng rng_;
  uint32_t stream_;
  uint64_t next_insert_ = 0;
};

// The whole unit square as a grid of SEARCH windows: one pass touches every
// page of the tree.
std::vector<Rect> WarmTiles(uint32_t grid) {
  std::vector<Rect> tiles;
  for (uint32_t i = 0; i < grid; ++i) {
    for (uint32_t j = 0; j < grid; ++j) {
      tiles.push_back(Rect(static_cast<double>(i) / grid,
                           static_cast<double>(j) / grid,
                           static_cast<double>(i + 1) / grid,
                           static_cast<double>(j + 1) / grid));
    }
  }
  return tiles;
}

// --- Brute-force oracle -------------------------------------------------

double PointRectDistance(Point p, const Rect& r) {
  const double dx = std::max({r.lo.x - p.x, 0.0, p.x - r.hi.x});
  const double dy = std::max({r.lo.y - p.y, 0.0, p.y - r.hi.y});
  return std::sqrt(dx * dx + dy * dy);
}

// The live object set: the dataset (id = index) plus acknowledged inserts
// that were not deleted.
struct ObjectSet {
  const std::vector<Rect>* rects = nullptr;
  std::vector<Object> inserted;

  std::vector<uint64_t> Search(const Rect& window) const {
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < rects->size(); ++i) {
      if ((*rects)[i].Intersects(window)) ids.push_back(i);
    }
    for (const Object& o : inserted) {
      if (o.rect.Intersects(window)) ids.push_back(o.id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  // The k smallest distances, ascending.
  std::vector<double> NearestDistances(Point p, size_t k) const {
    std::vector<double> d;
    d.reserve(rects->size() + inserted.size());
    for (const Rect& r : *rects) d.push_back(PointRectDistance(p, r));
    for (const Object& o : inserted) d.push_back(PointRectDistance(p, o.rect));
    k = std::min(k, d.size());
    std::partial_sort(d.begin(), d.begin() + static_cast<ptrdiff_t>(k),
                      d.end());
    d.resize(k);
    return d;
  }

  const Rect* Find(uint64_t id) const {
    if (id < rects->size()) return &(*rects)[id];
    for (const Object& o : inserted) {
      if (o.id == id) return &o.rect;
    }
    return nullptr;
  }
};

bool SameDistance(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

// True when a KNN reply is a correct answer: the right count, every
// reported distance is the id's true distance, and the distances are the
// k smallest (ties may pick any of the tied ids).
bool KnnMatches(const ObjectSet& set, Point p,
                const std::vector<net::WireNeighbor>& got) {
  const std::vector<double> want = set.NearestDistances(p, kNeighbors);
  if (got.size() != want.size()) return false;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < got.size(); ++i) {
    const Rect* r = set.Find(got[i].id);
    if (r == nullptr) return false;
    if (!SameDistance(got[i].distance, PointRectDistance(p, *r))) return false;
    if (!SameDistance(got[i].distance, want[i])) return false;
    ids.push_back(got[i].id);
  }
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

// --- Load mode ------------------------------------------------------------

std::unique_ptr<net::Client> Connect(uint16_t port) {
  auto client = net::Client::Connect(port);
  if (!client.ok()) Die("connect", client.status().ToString());
  timeval tv{};
  tv.tv_sec = kReplyTimeoutS;
  setsockopt((*client)->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return std::move(*client);
}

struct Timeline {
  Clock::time_point t0;  // Timed window start ...
  Clock::time_point t1;  // ... and end; no request is sent after t1.
  double slice_s = 0.0;
  size_t slices = 0;
};

// One slice of the timed window: the replies that arrived in it, and the
// latencies of those whose request was also sent inside the window.
struct Slice {
  uint64_t done = 0;
  std::vector<double> search_ms;
  std::vector<double> other_ms;
};

// What one connection's closed loop observed.
struct ConnRun {
  std::vector<Slice> slices;
  uint64_t sent = 0;
  uint64_t errors = 0;      // Error replies.
  uint64_t mismatches = 0;  // Wrong reply type, missing delete, bad kNN.
  uint64_t window_searches = 0;
  uint64_t window_ids = 0;
  std::vector<Object> alive;    // Acknowledged inserts not yet deleted.
  std::vector<Object> deleted;  // Acknowledged deletes.
  std::string failure;          // First error text, for the log.
  bool broken = false;          // The connection failed; replies were lost.
};

void RunConnection(net::Client* client, OpStream* stream,
                   uint32_t outstanding, const Timeline& tl, ConnRun* run) {
  struct Inflight {
    MsgType type = MsgType::kSearch;
    bool done = false;
    Clock::time_point sent;
    Object object;
  };
  // Indexed by request id - 1: net::Client numbers requests 1, 2, ...
  std::vector<Inflight> inflight;
  uint64_t pending = 0;
  run->slices.resize(tl.slices);

  auto fail = [&](const std::string& what) {
    if (run->failure.empty()) run->failure = what;
  };
  auto send = [&] {
    const Op op = stream->Next(&run->alive);
    switch (op.type) {
      case MsgType::kKnn:
        client->QueueKnn(op.point, kNeighbors);
        break;
      case MsgType::kInsert:
        client->QueueInsert(op.object.rect, op.object.id);
        break;
      case MsgType::kDelete:
        client->QueueDelete(op.object.rect, op.object.id);
        break;
      default:
        client->QueueSearch(op.rect);
        break;
    }
    inflight.push_back(Inflight{op.type, false, Clock::now(), op.object});
    ++pending;
    ++run->sent;
    const Status s = client->Flush();
    if (!s.ok()) {
      run->broken = true;
      fail("sending: " + s.ToString());
    }
    return s.ok();
  };
  auto handle = [&](const net::Reply& reply, Clock::time_point now) {
    const uint64_t idx = reply.request_id - 1;
    if (idx >= inflight.size() || inflight[idx].done) {
      ++run->mismatches;
      fail("reply for unknown request id " + std::to_string(reply.request_id));
      return;
    }
    Inflight& req = inflight[idx];
    req.done = true;
    --pending;
    const bool in_window = req.sent >= tl.t0 && now <= tl.t1;
    if (!reply.ok()) {
      ++run->errors;
      fail("error reply: " + reply.text);
    } else if (reply.type != req.type) {
      ++run->mismatches;
      fail("reply type does not match the request");
    } else if (req.type == MsgType::kSearch) {
      if (in_window) {
        ++run->window_searches;
        run->window_ids += reply.ids.size();
      }
    } else if (req.type == MsgType::kKnn) {
      if (reply.neighbors.size() != kNeighbors) {
        ++run->mismatches;
        fail("kNN reply with the wrong neighbor count");
      }
    } else if (req.type == MsgType::kInsert) {
      run->alive.push_back(req.object);
    } else if (reply.found) {
      run->deleted.push_back(req.object);
    } else {
      ++run->mismatches;
      fail("DELETE of an acknowledged insert reported not found");
    }
    if (now >= tl.t0 && now < tl.t1) {
      const auto i = static_cast<size_t>(Seconds(now - tl.t0) / tl.slice_s);
      Slice& slice = run->slices[std::min(i, tl.slices - 1)];
      ++slice.done;
      if (in_window) {
        (req.type == MsgType::kSearch ? slice.search_ms : slice.other_ms)
            .push_back(Seconds(now - req.sent) * 1e3);
      }
    }
  };

  for (uint32_t i = 0; i < outstanding; ++i) {
    if (!send()) return;
  }
  // Each reply's replacement request is written as soon as the reply is
  // handled, one write per request. (Writing the replacements for all the
  // replies of one read together makes search_cold flip between drain
  // patterns from run to run; see NOTES.md.)
  std::vector<uint8_t> in;
  while (pending > 0) {
    constexpr size_t kChunk = 64 * 1024;
    const size_t at = in.size();
    in.resize(at + kChunk);
    const ssize_t n = read(client->fd(), in.data() + at, kChunk);
    in.resize(at + static_cast<size_t>(std::max<ssize_t>(n, 0)));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      run->broken = true;
      fail(n == 0 ? std::string("server closed the connection")
                  : std::string("reading replies: ") + std::strerror(errno));
      return;
    }
    size_t pos = 0;
    while (true) {
      net::Frame frame;
      size_t consumed = 0;
      const net::DecodeResult r = net::DecodeFrame(
          in.data() + pos, in.size() - pos, &frame, &consumed);
      if (r == net::DecodeResult::kNeedMore) break;
      net::Reply reply;
      if (r == net::DecodeResult::kMalformed ||
          !net::ParseReply(frame, &reply).ok()) {
        run->broken = true;
        fail("malformed reply frame");
        return;
      }
      pos += consumed;
      const Clock::time_point now = Clock::now();
      handle(reply, now);
      if (now < tl.t1 && !send()) return;
    }
    in.erase(in.begin(), in.begin() + static_cast<ptrdiff_t>(pos));
  }
}

// Nearest-rank percentile of an unsorted sample (sorted in place).
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v->size())));
  return (*v)[std::min(v->size(), std::max<size_t>(rank, 1)) - 1];
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::string StatsRoundTrip(net::Client* control) {
  const uint64_t id = control->QueueStats();
  auto reply = control->WaitFor(id);
  if (!reply.ok()) Die("stats", reply.status().ToString());
  if (!reply->ok()) Die("stats", "error reply: " + reply->text);
  return reply->text;
}

// Searches every tile and requires a clean answer for each, so every page
// of the tree passes through the pool once. Tiles go in pipelined groups
// small enough that the server never holds more than a few MB of replies,
// which would show in its peak RSS.
void WarmByTiles(net::Client* control, uint32_t grid) {
  constexpr size_t kGroup = 32;
  const std::vector<Rect> tiles = WarmTiles(grid);
  for (size_t first = 0; first < tiles.size(); first += kGroup) {
    const size_t last = std::min(tiles.size(), first + kGroup);
    for (size_t i = first; i < last; ++i) control->QueueSearch(tiles[i]);
    if (Status s = control->Flush(); !s.ok()) Die("warm-up", s.ToString());
    for (size_t i = first; i < last; ++i) {
      auto reply = control->ReadReply();
      if (!reply.ok()) Die("warm-up", reply.status().ToString());
      if (!reply->ok()) Die("warm-up", "error reply: " + reply->text);
    }
  }
}

struct CheckResult {
  uint64_t attempted = 0;
  uint64_t mismatches = 0;
};

// Checks a seeded sample over the control connection after the load; each
// wrong answer counts as a mismatch.
CheckResult CheckReplies(net::Client* control, const StreamConfig& cfg,
                         const std::vector<Point>& centers,
                         const ObjectSet& set,
                         const std::vector<Object>& deleted) {
  struct Expect {
    uint64_t request_id = 0;
    MsgType type = MsgType::kSearch;
    Rect rect;
    Point point;
    uint64_t must_have = UINT64_MAX;  // Id the reply must contain ...
    uint64_t must_lack = UINT64_MAX;  // ... or must not contain.
  };
  std::vector<Expect> expects;
  // The workload's own read mix (inserts and deletes are dropped: they
  // would change the state the oracle checks against).
  StreamConfig read_cfg = cfg;
  read_cfg.search = cfg.search / (cfg.search + cfg.knn);
  read_cfg.knn = 1.0 - read_cfg.search;
  read_cfg.insert = 0.0;
  OpStream stream(read_cfg, &centers, kCheckStream);
  std::vector<Object> none;
  for (uint64_t i = 0; i < kCheckSamples; ++i) {
    const Op op = stream.Next(&none);
    Expect e;
    e.type = op.type;
    e.rect = op.rect;
    e.point = op.point;
    e.request_id = op.type == MsgType::kKnn
                       ? control->QueueKnn(op.point, kNeighbors)
                       : control->QueueSearch(op.rect);
    expects.push_back(e);
  }
  // Acknowledged inserts must be found, acknowledged deletes must not.
  auto sample_objects = [&](const std::vector<Object>& objects, bool present) {
    const size_t step = std::max<size_t>(1, objects.size() / kCheckSamples);
    for (size_t i = 0; i < objects.size(); i += step) {
      Expect e;
      e.rect = objects[i].rect;
      (present ? e.must_have : e.must_lack) = objects[i].id;
      e.request_id = control->QueueSearch(e.rect);
      expects.push_back(e);
    }
  };
  sample_objects(set.inserted, true);
  sample_objects(deleted, false);
  if (Status s = control->Flush(); !s.ok()) Die("check", s.ToString());

  CheckResult result;
  for (const Expect& e : expects) {
    ++result.attempted;
    auto reply = control->WaitFor(e.request_id);
    if (!reply.ok()) Die("check", reply.status().ToString());
    bool good = reply->ok();
    if (good && e.type == MsgType::kKnn) {
      good = KnnMatches(set, e.point, reply->neighbors);
    } else if (good) {
      std::vector<uint64_t> got(reply->ids.begin(), reply->ids.end());
      std::sort(got.begin(), got.end());
      if (e.must_have != UINT64_MAX) {
        good = std::binary_search(got.begin(), got.end(), e.must_have);
      } else if (e.must_lack != UINT64_MAX) {
        good = !std::binary_search(got.begin(), got.end(), e.must_lack);
      } else {
        good = got == set.Search(e.rect);
      }
    }
    if (!good) ++result.mismatches;
  }
  return result;
}

int RunLoad(int argc, char** argv) {
  auto defaults = StreamFlagDefaults();
  defaults.insert({{"port", "0"},
                   {"outstanding", "8"},
                   {"seconds", "10"},
                   {"trace", "0"}});
  const Flags flags(argc, argv, defaults);
  const StreamConfig cfg = StreamConfig::FromFlags(flags);
  const auto port = static_cast<uint16_t>(flags.Int("port"));
  const auto outstanding =
      static_cast<uint32_t>(std::max<uint64_t>(1, flags.Int("outstanding")));
  const double seconds = flags.Num("seconds");
  if (!(seconds > 0.0)) Die("arguments", "--seconds must be positive");
  const bool trace = flags.Int("trace") != 0;

  const std::vector<Rect> rects = MakeDataset(LoadSpec(flags).dataset);
  const std::vector<Point> centers = data::Centers(rects);

  std::unique_ptr<net::Client> control = Connect(port);
  if (cfg.warm_tiles > 0) WarmByTiles(control.get(), cfg.warm_tiles);

  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<std::unique_ptr<OpStream>> streams;
  for (uint32_t c = 0; c < kConnections; ++c) {
    clients.push_back(Connect(port));
    streams.push_back(std::make_unique<OpStream>(cfg, &centers, c));
  }

  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  Timeline tl;
  // Whole slices of about kSliceS that exactly tile the window.
  tl.slices = static_cast<size_t>(std::max(1.0, std::round(seconds / kSliceS)));
  tl.slice_s = seconds / static_cast<double>(tl.slices);
  tl.t0 = after(Clock::now(), kWarmupS);
  tl.t1 = after(tl.t0, seconds);

  std::vector<ConnRun> runs(kConnections);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunConnection, clients[c].get(), streams[c].get(),
                         outstanding, std::cref(tl), &runs[c]);
  }
  std::string stats_start;
  std::string stats_end;
  std::this_thread::sleep_until(tl.t0);
  const double cpu0 = CpuSeconds();
  if (trace) stats_start = StatsRoundTrip(control.get());
  std::this_thread::sleep_until(tl.t1);
  const double cpu1 = CpuSeconds();
  if (trace) stats_end = StatsRoundTrip(control.get());
  for (std::thread& t : threads) t.join();

  ConnRun all;
  all.slices.resize(tl.slices);
  for (ConnRun& r : runs) {
    if (!r.failure.empty()) {
      std::fprintf(stderr, "rtb_loadgen: load: %s\n", r.failure.c_str());
    }
    if (r.broken) Die("load", "connection failed: " + r.failure);
    for (size_t i = 0; i < tl.slices; ++i) {
      Slice& to = all.slices[i];
      const Slice& from = r.slices[i];
      to.done += from.done;
      to.search_ms.insert(to.search_ms.end(), from.search_ms.begin(),
                          from.search_ms.end());
      to.other_ms.insert(to.other_ms.end(), from.other_ms.begin(),
                         from.other_ms.end());
    }
    all.sent += r.sent;
    all.errors += r.errors;
    all.mismatches += r.mismatches;
    all.window_searches += r.window_searches;
    all.window_ids += r.window_ids;
    all.alive.insert(all.alive.end(), r.alive.begin(), r.alive.end());
    all.deleted.insert(all.deleted.end(), r.deleted.begin(), r.deleted.end());
  }
  ObjectSet set;
  set.rects = &rects;
  set.inserted = std::move(all.alive);
  const CheckResult check =
      CheckReplies(control.get(), cfg, centers, set, all.deleted);

  // Every slice is reported on its own: perfbench/run.py takes each gated
  // figure as the median over the slices of all of a run's segments, so a
  // stall in one slice (a busy neighbour on a shared host) does not move it.
  uint64_t window_ops = 0;
  std::vector<report::JsonDict> slices;
  for (Slice& slice : all.slices) {
    window_ops += slice.done;
    report::JsonDict d;
    d.PutNum("ops_per_s", static_cast<double>(slice.done) / tl.slice_s);
    d.PutInt("search_n", slice.search_ms.size());
    d.PutNum("search_p50_ms", Percentile(&slice.search_ms, 0.50));
    d.PutNum("search_p99_ms", Percentile(&slice.search_ms, 0.99));
    d.PutInt("other_n", slice.other_ms.size());
    d.PutNum("other_p50_ms", Percentile(&slice.other_ms, 0.50));
    d.PutNum("other_p99_ms", Percentile(&slice.other_ms, 0.99));
    slices.push_back(std::move(d));
  }

  report::JsonDict out;
  out.PutInt("sent", all.sent);
  out.PutInt("errors", all.errors);
  out.PutInt("mismatches", all.mismatches + check.mismatches);
  out.PutInt("checks", check.attempted);
  out.PutInt("window_ops", window_ops);
  out.PutNum("window_s", seconds);
  out.PutDictArray("slices", slices);
  out.PutNum("results_per_search",
             all.window_searches == 0
                 ? 0.0
                 : static_cast<double>(all.window_ids) /
                       static_cast<double>(all.window_searches));
  out.PutNum("cpu_s", cpu1 - cpu0);
  std::string line = out.ToString();
  if (trace) {
    // Splice the server's own documents in verbatim.
    line.pop_back();
    line += ", \"stats_start\": " + stats_start +
            ", \"stats_end\": " + stats_end + "}";
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

// --- Replay mode ----------------------------------------------------------

// Accumulated span time of one layer call site.
struct Span {
  Clock::duration total{};
  Clock::time_point start;
  void Begin() { start = Clock::now(); }
  void End() { total += Clock::now() - start; }
};

int RunReplay(int argc, char** argv) {
  auto defaults = StreamFlagDefaults();
  defaults.insert({{"window", "1"}});
  const Flags flags(argc, argv, defaults);
  const StreamConfig cfg = StreamConfig::FromFlags(flags);
  const auto window =
      static_cast<size_t>(std::max<uint64_t>(1, flags.Int("window")));
  const engine::ExperimentSpec spec = LoadSpec(flags);
  const std::vector<Rect> rects = MakeDataset(spec.dataset);
  const std::vector<Point> centers = data::Centers(rects);

  // engine::PrepareTree on its own (into a side file), for its span and for
  // the tree summary the paper's model needs.
  engine::ExperimentSpec model_spec = spec;
  model_spec.storage.path += ".model";
  Span prepare;
  prepare.Begin();
  auto prepared = engine::PrepareTree(model_spec);
  prepare.End();
  if (!prepared.ok()) Die("replay prepare", prepared.status().ToString());
  auto estimate = engine::EvaluateModel(
      *prepared->summary,
      model::QueryClass::DataDrivenRegion(kQuerySide, kQuerySide), spec.pool,
      &centers);
  if (!estimate.ok()) Die("replay model", estimate.status().ToString());
  if (Status s = prepared->store->Close(); !s.ok()) {
    Die("replay prepare", s.ToString());
  }
  prepared->store.reset();
  std::remove(model_spec.storage.path.c_str());

  Span open;
  open.Begin();
  auto stack = net::ServingStack::Open(spec);
  open.End();
  if (!stack.ok()) Die("replay open", stack.status().ToString());
  net::ServingStack* st = stack->get();
  rtree::BatchExecutor search_exec(st->tree());
  rtree::UpdateBatchExecutor update_exec(st->tree());
  if (cfg.warm_tiles > 0) {
    std::vector<std::vector<rtree::ObjectId>> results;
    const std::vector<Rect> tiles = WarmTiles(cfg.warm_tiles);
    if (Status s = search_exec.Run(tiles, &results); !s.ok()) {
      Die("replay warm-up", s.ToString());
    }
  }

  std::vector<std::unique_ptr<OpStream>> streams;
  std::vector<std::vector<Object>> alive(kConnections);
  for (uint32_t c = 0; c < kConnections; ++c) {
    streams.push_back(std::make_unique<OpStream>(cfg, &centers, c));
  }

  Span decode, update, search, knn, encode, processing;
  rtree::BatchStats search_stats;
  rtree::UpdateBatchStats update_stats;
  rtree::QueryStats knn_stats;
  uint64_t ops = 0, searches = 0, knns = 0, updates = 0;
  uint64_t reply_bytes = 0, search_misses = 0, delete_missing = 0;

  std::vector<uint8_t> in;
  std::vector<uint8_t> out;
  std::vector<uint32_t> owner;  // Stream of each request in the window.
  std::vector<Object> objects;  // INSERT/DELETE object of each request.
  std::vector<net::Request> requests;
  std::vector<size_t> upd, srch, nn;
  std::vector<rtree::UpdateOp> update_ops;
  std::vector<uint8_t> found;
  std::vector<Rect> search_rects;
  std::vector<std::vector<rtree::ObjectId>> results;
  std::vector<std::vector<rtree::Neighbor>> knn_results;
  std::vector<net::WireNeighbor> neighbors;

  // One window, processed like Server::ExecuteDrain. Spans and counters
  // are kept only when `measure` is set.
  auto run_window = [&](bool measure) {
    in.clear();
    owner.clear();
    objects.clear();
    for (size_t j = 0; j < window; ++j) {
      const auto c = static_cast<uint32_t>(j % kConnections);
      const Op op = streams[c]->Next(&alive[c]);
      const uint64_t id = j + 1;
      switch (op.type) {
        case MsgType::kKnn:
          net::AppendKnnRequest(id, op.point, kNeighbors, &in);
          break;
        case MsgType::kInsert:
          net::AppendInsertRequest(id, op.object.rect, op.object.id, &in);
          break;
        case MsgType::kDelete:
          net::AppendDeleteRequest(id, op.object.rect, op.object.id, &in);
          break;
        default:
          net::AppendSearchRequest(id, op.rect, &in);
          break;
      }
      owner.push_back(c);
      objects.push_back(op.object);
    }

    Span w_decode, w_update, w_search, w_knn, w_encode, w_all;
    w_all.Begin();
    w_decode.Begin();
    requests.assign(window, net::Request{});
    size_t pos = 0;
    for (size_t j = 0; j < window; ++j) {
      net::Frame frame;
      size_t consumed = 0;
      if (net::DecodeFrame(in.data() + pos, in.size() - pos, &frame,
                           &consumed) != net::DecodeResult::kFrame ||
          !net::ParseRequest(frame, &requests[j]).ok()) {
        Die("replay decode", "request frame did not decode");
      }
      pos += consumed;
    }
    w_decode.End();

    upd.clear();
    srch.clear();
    nn.clear();
    for (size_t j = 0; j < window; ++j) {
      switch (requests[j].type) {
        case MsgType::kInsert:
        case MsgType::kDelete:
          upd.push_back(j);
          break;
        case MsgType::kSearch:
          srch.push_back(j);
          break;
        default:
          nn.push_back(j);
          break;
      }
    }
    rtree::UpdateBatchStats u_stats;
    if (!upd.empty()) {
      update_ops.clear();
      for (const size_t j : upd) {
        const net::Request& r = requests[j];
        update_ops.push_back(r.type == MsgType::kInsert
                                 ? rtree::UpdateOp::Insert(r.rect, r.id)
                                 : rtree::UpdateOp::Delete(r.rect, r.id));
      }
      w_update.Begin();
      const Status s = update_exec.Run(
          std::span<const rtree::UpdateOp>(update_ops), &u_stats, &found);
      w_update.End();
      if (!s.ok()) Die("replay update", s.ToString());
    }
    rtree::BatchStats s_stats;
    uint64_t misses_before = 0;
    uint64_t misses_after = 0;
    if (!srch.empty()) {
      search_rects.clear();
      for (const size_t j : srch) search_rects.push_back(requests[j].rect);
      misses_before = st->pool()->AggregateStats().misses;
      w_search.Begin();
      const Status s = search_exec.Run(std::span<const Rect>(search_rects),
                                       &results, &s_stats);
      w_search.End();
      misses_after = st->pool()->AggregateStats().misses;
      if (!s.ok()) Die("replay search", s.ToString());
    }
    rtree::QueryStats k_stats;
    knn_results.resize(nn.size());
    for (size_t i = 0; i < nn.size(); ++i) {
      const net::Request& r = requests[nn[i]];
      w_knn.Begin();
      auto result = rtree::SearchKnn(*st->tree(), r.point, r.k, &k_stats);
      w_knn.End();
      if (!result.ok()) Die("replay knn", result.status().ToString());
      knn_results[i] = std::move(*result);
    }
    out.clear();
    w_encode.Begin();
    for (size_t u = 0; u < upd.size(); ++u) {
      const net::Request& r = requests[upd[u]];
      if (r.type == MsgType::kInsert) {
        net::AppendInsertReply(r.request_id, &out);
      } else {
        net::AppendDeleteReply(r.request_id, found[u] != 0, &out);
      }
    }
    for (size_t s = 0; s < srch.size(); ++s) {
      net::AppendSearchReply(requests[srch[s]].request_id, results[s], &out);
    }
    for (size_t i = 0; i < nn.size(); ++i) {
      neighbors.clear();
      for (const rtree::Neighbor& nb : knn_results[i]) {
        neighbors.push_back(net::WireNeighbor{nb.id, nb.distance});
      }
      net::AppendKnnReply(requests[nn[i]].request_id, neighbors, &out);
    }
    w_encode.End();
    w_all.End();

    // Acknowledge: inserts become delete victims of their stream.
    for (size_t u = 0; u < upd.size(); ++u) {
      const size_t j = upd[u];
      if (requests[j].type == MsgType::kInsert) {
        alive[owner[j]].push_back(objects[j]);
      } else if (found[u] == 0) {
        ++delete_missing;
      }
    }
    if (!measure) return;
    ops += window;
    updates += upd.size();
    searches += srch.size();
    knns += nn.size();
    reply_bytes += out.size();
    search_misses += misses_after - misses_before;
    decode.total += w_decode.total;
    update.total += w_update.total;
    search.total += w_search.total;
    knn.total += w_knn.total;
    encode.total += w_encode.total;
    processing.total += w_all.total;
    search_stats.node_accesses += s_stats.node_accesses;
    search_stats.page_visits += s_stats.page_visits;
    update_stats.node_accesses += u_stats.node_accesses;
    update_stats.splits += u_stats.splits;
    knn_stats.nodes_accessed += k_stats.nodes_accessed;
  };

  for (uint64_t done = 0; done < kReplayWarmOps; done += window) {
    run_window(false);
  }
  const storage::BufferStats pool0 = st->pool()->AggregateStats();
  const storage::IoStats io0 = st->store()->stats();
  while (ops < kReplayOps) run_window(true);
  const storage::BufferStats pool1 = st->pool()->AggregateStats();
  const storage::IoStats io1 = st->store()->stats();
  if (Status s = st->Close(); !s.ok()) Die("replay close", s.ToString());

  auto secs = [](const Span& s) { return Seconds(s.total); };
  report::JsonDict doc;
  doc.PutInt("ops", ops);
  doc.PutInt("window", window);
  doc.PutInt("searches", searches);
  doc.PutInt("knns", knns);
  doc.PutInt("updates", updates);
  doc.PutInt("delete_missing", delete_missing);
  doc.PutNum("processing_s", secs(processing));
  doc.PutNum("decode_s", secs(decode));
  doc.PutNum("update_s", secs(update));
  doc.PutNum("search_s", secs(search));
  doc.PutNum("knn_s", secs(knn));
  doc.PutNum("encode_s", secs(encode));
  doc.PutInt("reply_bytes", reply_bytes);
  doc.PutInt("search_misses", search_misses);
  doc.PutInt("search_node_accesses", search_stats.node_accesses);
  doc.PutInt("knn_node_accesses", knn_stats.nodes_accessed);
  doc.PutInt("update_node_accesses", update_stats.node_accesses);
  doc.PutInt("update_splits", update_stats.splits);
  doc.PutInt("pool_misses", pool1.misses - pool0.misses);
  doc.PutInt("store_read_syscalls", io1.ReadSyscalls() - io0.ReadSyscalls());
  doc.PutInt("store_read_batches", io1.read_batches - io0.read_batches);
  doc.PutInt("store_batch_pages", io1.batch_pages - io0.batch_pages);
  doc.PutNum("prepare_tree_s", secs(prepare));
  doc.PutNum("stack_open_s", secs(open));
  doc.PutNum("predicted_disk_per_search", estimate->disk_accesses);
  std::printf("%s\n", doc.ToString().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "load") return RunLoad(argc, argv);
  if (mode == "replay") return RunReplay(argc, argv);
  std::fprintf(stderr,
               "usage: rtb_loadgen load --spec=FILE --port=P [flags]\n"
               "       rtb_loadgen replay --spec=FILE --window=B [flags]\n");
  return 2;
}

}  // namespace
}  // namespace rtb::perfbench

int main(int argc, char** argv) { return rtb::perfbench::Main(argc, argv); }
