// Codec tests for the rtb wire protocol (net/protocol.h): round-trips for
// every frame type, byte-at-a-time partial feeds (the short-read case the
// server's DrainInput must handle), malformed/oversized/truncated frames,
// and a fuzz-ish sweep of random byte strings through the decoder — which
// must classify, never crash.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace rtb::net {
namespace {

using geom::Point;
using geom::Rect;

// Decodes exactly one frame from `bytes`, asserting it consumed everything.
Frame MustDecode(const std::vector<uint8_t>& bytes) {
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
            DecodeResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

TEST(ProtocolTest, SearchRequestRoundTrip) {
  std::vector<uint8_t> buf;
  const Rect rect(0.1, 0.2, 0.3, 0.4);
  AppendSearchRequest(77, rect, &buf);

  const Frame frame = MustDecode(buf);
  Request req;
  ASSERT_TRUE(ParseRequest(frame, &req).ok());
  EXPECT_EQ(req.type, MsgType::kSearch);
  EXPECT_EQ(req.request_id, 77u);
  EXPECT_EQ(req.rect, rect);
}

// The open-axis sentinel (lo = -inf, hi = +inf on an axis) is the only
// legal non-finite SEARCH encoding; every other combination of the four
// bounds drawn from {finite, -inf, +inf, NaN} must be a typed error.
TEST(ProtocolTest, OpenBoundSearchAxes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

  // Accepted: open x, open y, both open.
  for (const Rect& rect :
       {Rect(-kInf, 0.2, kInf, 0.4), Rect(0.1, -kInf, 0.3, kInf),
        Rect(-kInf, -kInf, kInf, kInf)}) {
    std::vector<uint8_t> buf;
    AppendSearchRequest(11, rect, &buf);
    Request req;
    ASSERT_TRUE(ParseRequest(MustDecode(buf), &req).ok());
    EXPECT_EQ(req.rect, rect);
  }

  // Exhaustive sweep: each of the four bounds independently finite, -inf,
  // +inf, or NaN. Legal iff each axis is fully finite or exactly the
  // (-inf, +inf) sentinel.
  const double kVals[4] = {0.25, -kInf, kInf, kNan};
  auto axis_ok = [](double lo, double hi) {
    return (std::isfinite(lo) && std::isfinite(hi)) ||
           (lo == -kInf && hi == kInf);
  };
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 4; ++c) {
        for (int d = 0; d < 4; ++d) {
          const Rect rect(kVals[a], kVals[b], kVals[c], kVals[d]);
          std::vector<uint8_t> buf;
          AppendSearchRequest(12, rect, &buf);
          Request req;
          const bool want =
              axis_ok(rect.lo.x, rect.hi.x) && axis_ok(rect.lo.y, rect.hi.y);
          EXPECT_EQ(ParseRequest(MustDecode(buf), &req).ok(), want)
              << rect.lo.x << " " << rect.lo.y << " " << rect.hi.x << " "
              << rect.hi.y;
        }
      }
    }
  }
}

TEST(ProtocolTest, KnnRequestRoundTrip) {
  std::vector<uint8_t> buf;
  AppendKnnRequest(5, Point{0.5, 0.25}, 12, &buf);
  Request req;
  ASSERT_TRUE(ParseRequest(MustDecode(buf), &req).ok());
  EXPECT_EQ(req.type, MsgType::kKnn);
  EXPECT_EQ(req.point.x, 0.5);
  EXPECT_EQ(req.point.y, 0.25);
  EXPECT_EQ(req.k, 12u);
}

// k is capped where the largest reply still fits one frame: any larger k
// could encode a reply the peer's DecodeFrame rejects as malformed.
TEST(ProtocolTest, KnnKIsCappedAtTheReplyFrame) {
  EXPECT_EQ(kMaxKnnK, 65'535u);
  const std::vector<WireNeighbor> full(kMaxKnnK, WireNeighbor{1, 0.5});
  std::vector<uint8_t> reply;
  AppendKnnReply(1, full, &reply);
  Reply parsed;
  ASSERT_TRUE(ParseReply(MustDecode(reply), &parsed).ok());
  EXPECT_EQ(parsed.neighbors.size(), kMaxKnnK);
  EXPECT_GT(sizeof(uint32_t) + (kMaxKnnK + 1) * 16, kMaxPayloadBytes);

  std::vector<uint8_t> buf;
  AppendKnnRequest(2, Point{0.5, 0.5}, kMaxKnnK, &buf);
  Request req;
  ASSERT_TRUE(ParseRequest(MustDecode(buf), &req).ok());
  EXPECT_EQ(req.k, kMaxKnnK);

  buf.clear();
  AppendKnnRequest(3, Point{0.5, 0.5}, kMaxKnnK + 1, &buf);
  const Status over = ParseRequest(MustDecode(buf), &req);
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument) << over.ToString();
}

TEST(ProtocolTest, UpdateRequestRoundTrip) {
  std::vector<uint8_t> buf;
  const Rect rect(0.0, 0.0, 0.1, 0.1);
  AppendInsertRequest(1, rect, 42, &buf);
  AppendDeleteRequest(2, rect, 43, &buf);

  Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(buf.data(), buf.size(), &frame, &consumed),
            DecodeResult::kFrame);
  Request req;
  ASSERT_TRUE(ParseRequest(frame, &req).ok());
  EXPECT_EQ(req.type, MsgType::kInsert);
  EXPECT_EQ(req.id, 42u);
  EXPECT_EQ(req.rect, rect);

  const size_t first = consumed;
  ASSERT_EQ(DecodeFrame(buf.data() + first, buf.size() - first, &frame,
                        &consumed),
            DecodeResult::kFrame);
  ASSERT_TRUE(ParseRequest(frame, &req).ok());
  EXPECT_EQ(req.type, MsgType::kDelete);
  EXPECT_EQ(req.id, 43u);
}

TEST(ProtocolTest, ReplyRoundTrips) {
  {
    std::vector<uint8_t> buf;
    AppendSearchReply(9, {1, 2, 3}, &buf);
    Reply reply;
    ASSERT_TRUE(ParseReply(MustDecode(buf), &reply).ok());
    EXPECT_TRUE(reply.ok());
    EXPECT_EQ(reply.type, MsgType::kSearch);
    EXPECT_EQ(reply.request_id, 9u);
    EXPECT_EQ(reply.ids, (std::vector<rtree::ObjectId>{1, 2, 3}));
  }
  {
    std::vector<uint8_t> buf;
    AppendKnnReply(10, {{7, 0.5}, {8, 1.5}}, &buf);
    Reply reply;
    ASSERT_TRUE(ParseReply(MustDecode(buf), &reply).ok());
    ASSERT_EQ(reply.neighbors.size(), 2u);
    EXPECT_EQ(reply.neighbors[0].id, 7u);
    EXPECT_EQ(reply.neighbors[1].distance, 1.5);
  }
  {
    std::vector<uint8_t> buf;
    AppendInsertReply(11, &buf);
    Reply reply;
    ASSERT_TRUE(ParseReply(MustDecode(buf), &reply).ok());
    EXPECT_EQ(reply.type, MsgType::kInsert);
  }
  {
    std::vector<uint8_t> buf;
    AppendDeleteReply(12, true, &buf);
    Reply reply;
    ASSERT_TRUE(ParseReply(MustDecode(buf), &reply).ok());
    EXPECT_TRUE(reply.found);
  }
  {
    std::vector<uint8_t> buf;
    AppendStatsReply(13, "{\"x\":1}", &buf);
    Reply reply;
    ASSERT_TRUE(ParseReply(MustDecode(buf), &reply).ok());
    EXPECT_EQ(reply.text, "{\"x\":1}");
  }
}

TEST(ProtocolTest, ErrorReplyCarriesCodeAndMessage) {
  std::vector<uint8_t> buf;
  AppendErrorReply(21, MsgType::kDelete,
                   Status::NotFound("no such entry"), &buf);
  Reply reply;
  ASSERT_TRUE(ParseReply(MustDecode(buf), &reply).ok());
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.type, MsgType::kDelete);
  EXPECT_EQ(reply.status, static_cast<uint8_t>(StatusCode::kNotFound));
  EXPECT_EQ(reply.text, "no such entry");
}

// The server feeds whatever the socket delivered; a frame arriving one
// byte at a time must yield kNeedMore until the last byte lands.
TEST(ProtocolTest, PartialFeedNeedsMoreUntilComplete) {
  std::vector<uint8_t> buf;
  AppendSearchRequest(3, Rect(0, 0, 1, 1), &buf);
  Frame frame;
  size_t consumed = 0;
  for (size_t len = 0; len < buf.size(); ++len) {
    EXPECT_EQ(DecodeFrame(buf.data(), len, &frame, &consumed),
              DecodeResult::kNeedMore)
        << "at prefix length " << len;
  }
  EXPECT_EQ(DecodeFrame(buf.data(), buf.size(), &frame, &consumed),
            DecodeResult::kFrame);
}

TEST(ProtocolTest, MalformedLengthsAreRejected) {
  // frame_len below the prologue: stream unusable.
  std::vector<uint8_t> tiny(4, 0);
  tiny[0] = 4;  // frame_len = 4 < kPrologueBytes.
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(tiny.data(), tiny.size(), &frame, &consumed),
            DecodeResult::kMalformed);

  // frame_len above the cap: a hostile allocation request.
  std::vector<uint8_t> huge(4, 0);
  const uint32_t over = static_cast<uint32_t>(kPrologueBytes +
                                              kMaxPayloadBytes + 1);
  std::memcpy(huge.data(), &over, sizeof over);
  EXPECT_EQ(DecodeFrame(huge.data(), huge.size(), &frame, &consumed),
            DecodeResult::kMalformed);
}

TEST(ProtocolTest, TypedPayloadErrorsAreStatusesNotCrashes) {
  // Unknown type.
  {
    std::vector<uint8_t> buf;
    AppendRawFrame(99, 0, 1, nullptr, 0, &buf);
    Request req;
    EXPECT_FALSE(ParseRequest(MustDecode(buf), &req).ok());
  }
  // Truncated SEARCH payload (frames fine, typed size mismatch).
  {
    std::vector<uint8_t> buf;
    const uint8_t partial[16] = {};
    AppendRawFrame(static_cast<uint8_t>(MsgType::kSearch), 0, 2, partial,
                   sizeof partial, &buf);
    Request req;
    EXPECT_FALSE(ParseRequest(MustDecode(buf), &req).ok());
  }
  // Non-finite insert rectangle.
  {
    std::vector<uint8_t> buf;
    const Rect bad(0.0, 0.0, std::numeric_limits<double>::quiet_NaN(), 1.0);
    AppendInsertRequest(3, bad, 7, &buf);
    Request req;
    EXPECT_FALSE(ParseRequest(MustDecode(buf), &req).ok());
  }
  // Empty (lo > hi) insert rectangle — would poison a whole update batch.
  {
    std::vector<uint8_t> buf;
    AppendInsertRequest(4, Rect(0.5, 0.5, 0.1, 0.1), 7, &buf);
    Request req;
    EXPECT_FALSE(ParseRequest(MustDecode(buf), &req).ok());
  }
  // kNN with k == 0.
  {
    std::vector<uint8_t> buf;
    AppendKnnRequest(5, Point{0.5, 0.5}, 0, &buf);
    Request req;
    EXPECT_FALSE(ParseRequest(MustDecode(buf), &req).ok());
  }
  // Reply bit set where a request is expected.
  {
    std::vector<uint8_t> buf;
    AppendSearchReply(6, {}, &buf);
    Request req;
    EXPECT_FALSE(ParseRequest(MustDecode(buf), &req).ok());
  }
  // Search reply whose count disagrees with its payload size.
  {
    std::vector<uint8_t> buf;
    uint8_t payload[12] = {};
    payload[0] = 200;  // Claims 200 ids; carries one.
    AppendRawFrame(static_cast<uint8_t>(MsgType::kSearch) | kReplyBit, 0, 7,
                   payload, sizeof payload, &buf);
    Reply reply;
    EXPECT_FALSE(ParseReply(MustDecode(buf), &reply).ok());
  }
  // kNN reply whose count would wrap the size check in uint32 arithmetic
  // (0x10000000 * 16 == 0 mod 2^32): must be a size mismatch, not a ~4 GB
  // resize plus an out-of-bounds payload read.
  {
    std::vector<uint8_t> buf;
    uint8_t payload[4];
    const uint32_t n = 0x10000000u;
    std::memcpy(payload, &n, sizeof n);
    AppendRawFrame(static_cast<uint8_t>(MsgType::kKnn) | kReplyBit, 0, 8,
                   payload, sizeof payload, &buf);
    Reply reply;
    EXPECT_FALSE(ParseReply(MustDecode(buf), &reply).ok());
    EXPECT_TRUE(reply.neighbors.empty());
  }
}

// Random byte strings through the decoder: every prefix must classify as
// kFrame / kNeedMore / kMalformed without reading out of bounds (ASan is
// the real assertion here), and kFrame must consume a plausible size.
TEST(ProtocolTest, FuzzDecodeNeverCrashes) {
  Rng rng(1998);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = 1 + rng.UniformInt(96);
    std::vector<uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
    Frame frame;
    size_t consumed = 0;
    const DecodeResult r =
        DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed);
    if (r == DecodeResult::kFrame) {
      EXPECT_LE(consumed, bytes.size());
      EXPECT_GE(consumed, kLengthBytes + kPrologueBytes);
      // Typed parsing on the fuzzed frame must classify, not crash.
      Request req;
      Reply reply;
      if (frame.type & kReplyBit) {
        ParseReply(frame, &reply).ok();
      } else {
        ParseRequest(frame, &req).ok();
      }
    }
  }
}

// Encoded frames survive a fuzz of split points: any split of the byte
// stream into two reads decodes to the same two frames.
TEST(ProtocolTest, SplitStreamDecodesIdentically) {
  std::vector<uint8_t> buf;
  AppendSearchRequest(1, Rect(0, 0, 0.5, 0.5), &buf);
  AppendInsertRequest(2, Rect(0.1, 0.1, 0.2, 0.2), 9, &buf);

  for (size_t split = 0; split <= buf.size(); ++split) {
    // Feed [0, split) then the rest, as a stateful reader would.
    std::vector<uint8_t> acc(buf.begin(), buf.begin() + split);
    std::vector<uint64_t> ids;
    size_t pos = 0;
    for (int phase = 0; phase < 2; ++phase) {
      while (true) {
        Frame frame;
        size_t consumed = 0;
        const DecodeResult r = DecodeFrame(acc.data() + pos, acc.size() - pos,
                                           &frame, &consumed);
        if (r != DecodeResult::kFrame) break;
        ids.push_back(frame.request_id);
        pos += consumed;
      }
      acc.insert(acc.end(), buf.begin() + split, buf.end());
    }
    EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2})) << "split at " << split;
  }
}

}  // namespace
}  // namespace rtb::net
