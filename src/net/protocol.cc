#include "net/protocol.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/status.h"

namespace rtb::net {
namespace {

// Little-endian scalar writers/readers. memcpy keeps them alignment-safe;
// the build targets little-endian hosts (same assumption FilePageStore
// makes for page headers), so no byte swapping.
void PutU16(uint16_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof v);
  std::memcpy(out->data() + at, &v, sizeof v);
}

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof v);
  std::memcpy(out->data() + at, &v, sizeof v);
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof v);
  std::memcpy(out->data() + at, &v, sizeof v);
}

void PutF64(double v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof v);
  std::memcpy(out->data() + at, &v, sizeof v);
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

double GetF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Writes the frame length + prologue for a payload of `payload_len` bytes.
void PutHeader(uint8_t type, uint8_t status, uint64_t request_id,
               size_t payload_len, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(kPrologueBytes + payload_len), out);
  out->push_back(type);
  out->push_back(status);
  PutU16(0, out);
  PutU64(request_id, out);
}

// Request payload sizes, by type.
constexpr size_t kSearchReqBytes = 4 * sizeof(double);
constexpr size_t kKnnReqBytes = 2 * sizeof(double) + sizeof(uint32_t);
constexpr size_t kUpdateReqBytes = 4 * sizeof(double) + sizeof(uint64_t);

geom::Rect ReadRect(const uint8_t* p) {
  return geom::Rect(GetF64(p), GetF64(p + 8), GetF64(p + 16), GetF64(p + 24));
}

bool FiniteRect(const geom::Rect& r) {
  return std::isfinite(r.lo.x) && std::isfinite(r.lo.y) &&
         std::isfinite(r.hi.x) && std::isfinite(r.hi.y);
}

// One SEARCH axis is either fully finite or the open-bound sentinel
// (lo = -inf, hi = +inf, the partial-match encoding). A lone infinity,
// a reversed sentinel, or a NaN is garbage and is rejected.
bool SearchAxisOk(double lo, double hi) {
  if (std::isfinite(lo) && std::isfinite(hi)) return true;
  return lo == -std::numeric_limits<double>::infinity() &&
         hi == std::numeric_limits<double>::infinity();
}

void PutRect(const geom::Rect& r, std::vector<uint8_t>* out) {
  PutF64(r.lo.x, out);
  PutF64(r.lo.y, out);
  PutF64(r.hi.x, out);
  PutF64(r.hi.y, out);
}

}  // namespace

DecodeResult DecodeFrame(const uint8_t* data, size_t len, Frame* out,
                         size_t* consumed) {
  if (len < kLengthBytes) return DecodeResult::kNeedMore;
  const uint32_t frame_len = GetU32(data);
  if (frame_len < kPrologueBytes ||
      frame_len > kPrologueBytes + kMaxPayloadBytes) {
    return DecodeResult::kMalformed;
  }
  const size_t total = kLengthBytes + frame_len;
  if (len < total) return DecodeResult::kNeedMore;
  const uint8_t* p = data + kLengthBytes;
  out->type = p[0];
  out->status = p[1];
  // p[2..3] reserved, ignored.
  out->request_id = GetU64(p + 4);
  out->payload = p + kPrologueBytes;
  out->payload_len = frame_len - kPrologueBytes;
  *consumed = total;
  return DecodeResult::kFrame;
}

Status ParseRequest(const Frame& frame, Request* out) {
  if (frame.type & kReplyBit) {
    return Status::InvalidArgument("reply frame where a request was expected");
  }
  out->request_id = frame.request_id;
  const uint8_t* p = frame.payload;
  switch (frame.type) {
    case static_cast<uint8_t>(MsgType::kSearch):
      if (frame.payload_len != kSearchReqBytes) {
        return Status::InvalidArgument("SEARCH payload must be 32 bytes");
      }
      out->type = MsgType::kSearch;
      out->rect = ReadRect(p);
      if (!SearchAxisOk(out->rect.lo.x, out->rect.hi.x) ||
          !SearchAxisOk(out->rect.lo.y, out->rect.hi.y)) {
        return Status::InvalidArgument(
            "SEARCH rect has non-finite coords (open axis is lo=-inf, "
            "hi=+inf)");
      }
      return Status::OK();
    case static_cast<uint8_t>(MsgType::kKnn):
      if (frame.payload_len != kKnnReqBytes) {
        return Status::InvalidArgument("KNN payload must be 20 bytes");
      }
      out->type = MsgType::kKnn;
      out->point = geom::Point{GetF64(p), GetF64(p + 8)};
      out->k = GetU32(p + 16);
      if (!std::isfinite(out->point.x) || !std::isfinite(out->point.y)) {
        return Status::InvalidArgument("KNN point has non-finite coords");
      }
      if (out->k == 0) {
        return Status::InvalidArgument("KNN k must be >= 1");
      }
      // A larger k could encode a reply past the frame cap.
      if (out->k > kMaxKnnK) {
        return Status::InvalidArgument("KNN k must be <= " +
                                       std::to_string(kMaxKnnK));
      }
      return Status::OK();
    case static_cast<uint8_t>(MsgType::kInsert):
    case static_cast<uint8_t>(MsgType::kDelete):
      if (frame.payload_len != kUpdateReqBytes) {
        return Status::InvalidArgument("update payload must be 40 bytes");
      }
      out->type = static_cast<MsgType>(frame.type);
      out->rect = ReadRect(p);
      out->id = GetU64(p + 32);
      // Refuse garbage geometry at the boundary: an empty-rect insert
      // would make UpdateBatchExecutor reject the whole coalesced batch.
      if (!FiniteRect(out->rect) || out->rect.is_empty()) {
        return Status::InvalidArgument("update rect empty or non-finite");
      }
      return Status::OK();
    case static_cast<uint8_t>(MsgType::kStats):
      if (frame.payload_len != 0) {
        return Status::InvalidArgument("STATS payload must be empty");
      }
      out->type = MsgType::kStats;
      return Status::OK();
    default:
      return Status::InvalidArgument("unknown request type " +
                                     std::to_string(frame.type));
  }
}

Status ParseReply(const Frame& frame, Reply* out) {
  if (!(frame.type & kReplyBit)) {
    return Status::InvalidArgument("request frame where a reply was expected");
  }
  const uint8_t base = frame.type & static_cast<uint8_t>(~kReplyBit);
  if (base < static_cast<uint8_t>(MsgType::kSearch) ||
      base > static_cast<uint8_t>(MsgType::kStats)) {
    return Status::InvalidArgument("unknown reply type " +
                                   std::to_string(frame.type));
  }
  out->type = static_cast<MsgType>(base);
  out->status = frame.status;
  out->request_id = frame.request_id;
  out->ids.clear();
  out->neighbors.clear();
  out->found = false;
  out->text.clear();
  const uint8_t* p = frame.payload;
  if (frame.status != 0) {
    out->text.assign(reinterpret_cast<const char*>(p), frame.payload_len);
    return Status::OK();
  }
  switch (out->type) {
    case MsgType::kSearch: {
      if (frame.payload_len < sizeof(uint32_t)) {
        return Status::InvalidArgument("SEARCH reply shorter than its count");
      }
      const uint32_t n = GetU32(p);
      if (frame.payload_len !=
          sizeof(uint32_t) + static_cast<size_t>(n) * sizeof(uint64_t)) {
        return Status::InvalidArgument("SEARCH reply size/count mismatch");
      }
      out->ids.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        out->ids[i] = GetU64(p + 4 + i * 8);
      }
      return Status::OK();
    }
    case MsgType::kKnn: {
      if (frame.payload_len < sizeof(uint32_t)) {
        return Status::InvalidArgument("KNN reply shorter than its count");
      }
      // size_t arithmetic: `n * 16` in uint32 would wrap for a corrupt
      // n >= 2^28 and pass the check with a 4-byte payload, making the
      // resize/read below run far past the frame.
      const uint32_t n = GetU32(p);
      if (frame.payload_len !=
          sizeof(uint32_t) + static_cast<size_t>(n) * 16) {
        return Status::InvalidArgument("KNN reply size/count mismatch");
      }
      out->neighbors.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        out->neighbors[i].id = GetU64(p + 4 + i * 16);
        out->neighbors[i].distance = GetF64(p + 4 + i * 16 + 8);
      }
      return Status::OK();
    }
    case MsgType::kInsert:
      if (frame.payload_len != 0) {
        return Status::InvalidArgument("INSERT reply must be empty");
      }
      return Status::OK();
    case MsgType::kDelete:
      if (frame.payload_len != 1) {
        return Status::InvalidArgument("DELETE reply must be 1 byte");
      }
      out->found = p[0] != 0;
      return Status::OK();
    case MsgType::kStats:
      out->text.assign(reinterpret_cast<const char*>(p), frame.payload_len);
      return Status::OK();
  }
  return Status::InvalidArgument("unreachable reply type");
}

void AppendSearchRequest(uint64_t request_id, const geom::Rect& rect,
                         std::vector<uint8_t>* out) {
  PutHeader(static_cast<uint8_t>(MsgType::kSearch), 0, request_id,
            kSearchReqBytes, out);
  PutRect(rect, out);
}

void AppendKnnRequest(uint64_t request_id, geom::Point p, uint32_t k,
                      std::vector<uint8_t>* out) {
  PutHeader(static_cast<uint8_t>(MsgType::kKnn), 0, request_id, kKnnReqBytes,
            out);
  PutF64(p.x, out);
  PutF64(p.y, out);
  PutU32(k, out);
}

void AppendInsertRequest(uint64_t request_id, const geom::Rect& rect,
                         rtree::ObjectId id, std::vector<uint8_t>* out) {
  PutHeader(static_cast<uint8_t>(MsgType::kInsert), 0, request_id,
            kUpdateReqBytes, out);
  PutRect(rect, out);
  PutU64(id, out);
}

void AppendDeleteRequest(uint64_t request_id, const geom::Rect& rect,
                         rtree::ObjectId id, std::vector<uint8_t>* out) {
  PutHeader(static_cast<uint8_t>(MsgType::kDelete), 0, request_id,
            kUpdateReqBytes, out);
  PutRect(rect, out);
  PutU64(id, out);
}

void AppendStatsRequest(uint64_t request_id, std::vector<uint8_t>* out) {
  PutHeader(static_cast<uint8_t>(MsgType::kStats), 0, request_id, 0, out);
}

void AppendSearchReply(uint64_t request_id,
                       const std::vector<rtree::ObjectId>& ids,
                       std::vector<uint8_t>* out) {
  const size_t payload = sizeof(uint32_t) + ids.size() * sizeof(uint64_t);
  PutHeader(static_cast<uint8_t>(MsgType::kSearch) | kReplyBit, 0, request_id,
            payload, out);
  PutU32(static_cast<uint32_t>(ids.size()), out);
  for (const rtree::ObjectId id : ids) PutU64(id, out);
}

void AppendKnnReply(uint64_t request_id,
                    const std::vector<WireNeighbor>& neighbors,
                    std::vector<uint8_t>* out) {
  const size_t payload = sizeof(uint32_t) + neighbors.size() * 16;
  PutHeader(static_cast<uint8_t>(MsgType::kKnn) | kReplyBit, 0, request_id,
            payload, out);
  PutU32(static_cast<uint32_t>(neighbors.size()), out);
  for (const WireNeighbor& n : neighbors) {
    PutU64(n.id, out);
    PutF64(n.distance, out);
  }
}

void AppendInsertReply(uint64_t request_id, std::vector<uint8_t>* out) {
  PutHeader(static_cast<uint8_t>(MsgType::kInsert) | kReplyBit, 0, request_id,
            0, out);
}

void AppendDeleteReply(uint64_t request_id, bool found,
                       std::vector<uint8_t>* out) {
  PutHeader(static_cast<uint8_t>(MsgType::kDelete) | kReplyBit, 0, request_id,
            1, out);
  out->push_back(found ? 1 : 0);
}

void AppendStatsReply(uint64_t request_id, const std::string& json,
                      std::vector<uint8_t>* out) {
  const size_t len = std::min(json.size(), kMaxPayloadBytes);
  PutHeader(static_cast<uint8_t>(MsgType::kStats) | kReplyBit, 0, request_id,
            len, out);
  out->insert(out->end(), json.data(), json.data() + len);
}

void AppendErrorReply(uint64_t request_id, MsgType type, const Status& status,
                      std::vector<uint8_t>* out) {
  const std::string& msg = status.message();
  const size_t len = std::min(msg.size(), kMaxPayloadBytes);
  const uint8_t code = status.ok()
                           ? static_cast<uint8_t>(StatusCode::kInvalidArgument)
                           : static_cast<uint8_t>(status.code());
  PutHeader(static_cast<uint8_t>(type) | kReplyBit, code, request_id, len,
            out);
  out->insert(out->end(), msg.data(), msg.data() + len);
}

void AppendRawFrame(uint8_t type, uint8_t status, uint64_t request_id,
                    const uint8_t* payload, size_t payload_len,
                    std::vector<uint8_t>* out) {
  PutHeader(type, status, request_id, payload_len, out);
  if (payload_len > 0) out->insert(out->end(), payload, payload + payload_len);
}

}  // namespace rtb::net
