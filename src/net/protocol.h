// The rtb wire protocol: length-prefixed binary frames for pipelined
// request/reply serving (net/server.h).
//
// A frame is
//
//   u32 frame_len        bytes that follow this field (prologue + payload)
//   u8  type             MsgType; replies set kReplyBit
//   u8  status           0 in requests; replies: 0 = OK, else StatusCode
//   u16 reserved         0 on the wire, ignored on receipt
//   u64 request_id       echoed verbatim in the reply
//   u8  payload[...]     typed per MsgType (below)
//
// all little-endian. frame_len >= kProloguebytes always; payloads are capped
// at kMaxPayloadBytes so a hostile length prefix cannot make the server
// buffer gigabytes. Request ids are chosen by the client (any value; echoing
// them is what makes out-of-order replies routable), and a connection may
// have any number of frames in flight — the server replies per admission
// drain, not per frame.
//
// Payloads:
//
//   SEARCH  request   4 f64: lo.x lo.y hi.x hi.y
//                     an axis is *open* (partial match: it does not
//                     constrain the query) when encoded as the sentinel
//                     lo = -inf, hi = +inf; otherwise both bounds must be
//                     finite. Any other non-finite combination is a typed
//                     error — which is also what pre-capability servers
//                     reply to the sentinel, so a client can probe with
//                     STATS "capabilities" (kCapOpenBoundSearch) first.
//           reply     u32 n, then n u64 object ids
//   KNN     request   2 f64: x y, then u32 k (1 <= k <= kMaxKnnK)
//           reply     u32 n, then n x (u64 id, f64 distance)
//   INSERT  request   4 f64 rect, u64 object id
//           reply     empty
//   DELETE  request   4 f64 rect, u64 object id
//           reply     u8 found (1 when the entry existed)
//   STATS   request   empty
//           reply     UTF-8 JSON document (the server's rtb-serve stats)
//   error   reply     UTF-8 message; `status` carries the StatusCode
//
// Error handling contract (tests/protocol_test.cc): a frame whose *header*
// is unusable — frame_len below the prologue size or above the cap — means
// the byte stream can no longer be trusted, so the peer sends one error
// reply with request id 0 and closes (DecodeResult::kMalformed). A frame
// that frames correctly but fails typed parsing (unknown type, payload
// size mismatch, non-finite update geometry) yields a typed error reply
// carrying the frame's request id, and the connection continues — the
// length prefix kept the stream in sync. Nothing in this layer aborts.

#ifndef RTB_NET_PROTOCOL_H_
#define RTB_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "rtree/node.h"
#include "util/result.h"

namespace rtb::net {

/// Bytes between the length field and the payload: type, status, reserved,
/// request id.
inline constexpr size_t kPrologueBytes = 12;

/// Bytes of the length field itself.
inline constexpr size_t kLengthBytes = 4;

/// Hard cap on one frame's payload. Large enough for a ~128k-id search
/// reply; small enough that a hostile length prefix cannot balloon a
/// connection buffer.
inline constexpr size_t kMaxPayloadBytes = size_t{1} << 20;

/// Largest KNN k a request may ask for: the most (u64 id, f64 distance)
/// pairs a reply payload holds after its u32 count, 65,535.
inline constexpr uint32_t kMaxKnnK =
    (kMaxPayloadBytes - sizeof(uint32_t)) / 16;

enum class MsgType : uint8_t {
  kSearch = 1,
  kKnn = 2,
  kInsert = 3,
  kDelete = 4,
  kStats = 5,
};

/// Set on the type byte of every reply frame.
inline constexpr uint8_t kReplyBit = 0x80;

/// Capability bits advertised in the STATS reply's "capabilities" field
/// (a u64 rendered as a JSON number). Old servers omit the field, which
/// reads as 0 — no optional features.
inline constexpr uint64_t kCapOpenBoundSearch = uint64_t{1} << 0;

/// The capability set this build of the server advertises.
inline constexpr uint64_t kServerCapabilities = kCapOpenBoundSearch;

/// A decoded but not yet interpreted frame. `payload` points into the
/// caller's buffer and is only valid until that buffer changes.
struct Frame {
  uint8_t type = 0;
  uint8_t status = 0;
  uint64_t request_id = 0;
  const uint8_t* payload = nullptr;
  size_t payload_len = 0;
};

enum class DecodeResult {
  kFrame,     // *out holds a frame; *consumed bytes were used.
  kNeedMore,  // The buffer holds a frame prefix; read more bytes.
  kMalformed, // The header is unusable; the stream cannot be resynced.
};

/// Extracts one frame from [data, data+len). On kFrame, `*consumed` is the
/// total frame size (length field included) and `*out` points into `data`.
/// kMalformed means the length prefix itself is invalid (frame_len below
/// the prologue or above the payload cap) — the caller should error out and
/// close, because frame boundaries are lost.
DecodeResult DecodeFrame(const uint8_t* data, size_t len, Frame* out,
                         size_t* consumed);

/// One typed request (the server's admission unit).
struct Request {
  MsgType type = MsgType::kSearch;
  uint64_t request_id = 0;
  geom::Rect rect;             // kSearch / kInsert / kDelete.
  geom::Point point{0.0, 0.0}; // kKnn.
  uint32_t k = 0;              // kKnn.
  rtree::ObjectId id = 0;      // kInsert / kDelete.
};

/// Interprets a request frame. InvalidArgument on an unknown type, a
/// payload whose size does not match the type, or an insert/delete whose
/// rectangle has non-finite coordinates or is empty (lo > hi) — mutating
/// the tree with garbage geometry is refused at the boundary. The
/// connection may continue after the typed error reply; framing was intact.
Status ParseRequest(const Frame& frame, Request* out);

/// One kNN hit on the wire.
struct WireNeighbor {
  rtree::ObjectId id = 0;
  double distance = 0.0;
};

/// A decoded reply (client side; servers encode directly).
struct Reply {
  MsgType type = MsgType::kSearch; // The request's type (kReplyBit stripped).
  uint8_t status = 0;              // 0 = OK, else a StatusCode value.
  uint64_t request_id = 0;
  std::vector<rtree::ObjectId> ids;     // kSearch.
  std::vector<WireNeighbor> neighbors;  // kKnn.
  bool found = false;                   // kDelete.
  std::string text;                     // kStats JSON, or the error message.

  bool ok() const { return status == 0; }
};

/// Interprets a reply frame (must have kReplyBit set).
Status ParseReply(const Frame& frame, Reply* out);

// --- Encoders. All append to `out`; none can fail. -----------------------

void AppendSearchRequest(uint64_t request_id, const geom::Rect& rect,
                         std::vector<uint8_t>* out);
void AppendKnnRequest(uint64_t request_id, geom::Point p, uint32_t k,
                      std::vector<uint8_t>* out);
void AppendInsertRequest(uint64_t request_id, const geom::Rect& rect,
                         rtree::ObjectId id, std::vector<uint8_t>* out);
void AppendDeleteRequest(uint64_t request_id, const geom::Rect& rect,
                         rtree::ObjectId id, std::vector<uint8_t>* out);
void AppendStatsRequest(uint64_t request_id, std::vector<uint8_t>* out);

void AppendSearchReply(uint64_t request_id,
                       const std::vector<rtree::ObjectId>& ids,
                       std::vector<uint8_t>* out);
void AppendKnnReply(uint64_t request_id,
                    const std::vector<WireNeighbor>& neighbors,
                    std::vector<uint8_t>* out);
void AppendInsertReply(uint64_t request_id, std::vector<uint8_t>* out);
void AppendDeleteReply(uint64_t request_id, bool found,
                       std::vector<uint8_t>* out);
void AppendStatsReply(uint64_t request_id, const std::string& json,
                      std::vector<uint8_t>* out);

/// An error reply: `type` is the failing request's type (kReplyBit is added
/// here), `status` must be non-OK. Messages longer than the payload cap are
/// truncated rather than producing an unsendable frame.
void AppendErrorReply(uint64_t request_id, MsgType type, const Status& status,
                      std::vector<uint8_t>* out);

/// Generic encoder used by tests to exercise the decoder against arbitrary
/// type/status/payload combinations.
void AppendRawFrame(uint8_t type, uint8_t status, uint64_t request_id,
                    const uint8_t* payload, size_t payload_len,
                    std::vector<uint8_t>* out);

}  // namespace rtb::net

#endif  // RTB_NET_PROTOCOL_H_
