#include "proto/frame.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace ph::proto {
namespace {

constexpr FrameKind kAllKinds[] = {
    FrameKind::datagram,       FrameKind::channel_open,
    FrameKind::channel_accept, FrameKind::channel_reject,
    FrameKind::channel_data,   FrameKind::channel_ping,
    FrameKind::channel_pong};

/// Envelope + payload: the bytes one datagram carries.
Bytes frame_bytes(FrameKind kind, BytesView payload) {
  Writer w;
  begin_frame(w, kind);
  w.raw(payload);
  return std::move(w).take();
}

/// Length prefix + envelope + payload: one frame on a stream.
Bytes stream_bytes(FrameKind kind, BytesView payload) {
  Writer w;
  begin_stream_frame(w, kind, payload.size());
  w.raw(payload);
  return std::move(w).take();
}

TEST(FrameTest, RoundTripsEveryKind) {
  for (FrameKind kind : kAllKinds) {
    const Bytes payload = to_bytes("payload for " + std::string(to_string(kind)));
    const Bytes wire = frame_bytes(kind, payload);
    ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());

    auto decoded = decode_frame(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->version, kFrameVersion);
    EXPECT_EQ(to_text(decoded->payload), to_text(payload));
  }
}

TEST(FrameTest, RoundTripsEmptyPayload) {
  const Bytes wire = frame_bytes(FrameKind::channel_data, {});
  ASSERT_EQ(wire.size(), kFrameHeaderSize);
  auto decoded = decode_frame(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameTest, HeaderLayoutIsLittleEndianMagicVersionKind) {
  const Bytes wire = frame_bytes(FrameKind::datagram, to_bytes("x"));
  ASSERT_GE(wire.size(), kFrameHeaderSize);
  EXPECT_EQ(wire[0], 0x48);  // 'H' — low byte of 0x5048
  EXPECT_EQ(wire[1], 0x50);  // 'P'
  EXPECT_EQ(wire[2], kFrameVersion);
  EXPECT_EQ(wire[3], static_cast<std::uint8_t>(FrameKind::datagram));
}

// One stream frame per kind, written through the same Writer calls the
// socket backend makes for it. The literals pin the stream wire format:
// changing one breaks daemons built before the change.
TEST(FrameTest, StreamWireBytesAreGolden) {
  struct Case {
    FrameKind kind;
    Bytes wire;
  };
  std::vector<Case> cases;
  const auto add = [&](FrameKind kind, std::size_t payload_size,
                       const auto& write_payload, Bytes golden) {
    Writer w;
    begin_stream_frame(w, kind, payload_size);
    write_payload(w);
    cases.push_back({kind, std::move(w).take()});
    EXPECT_EQ(cases.back().wire, golden) << to_string(kind);
  };
  add(FrameKind::datagram, 8,
      [](Writer& w) {
        w.u32(7);
        w.u16(5000);
        w.raw(to_bytes("hi"));
      },
      {0x0c, 0x00, 0x00, 0x00, 0x48, 0x50, 0x01, 0x01,
       0x07, 0x00, 0x00, 0x00, 0x88, 0x13, 0x68, 0x69});
  add(FrameKind::channel_open, 6,
      [](Writer& w) {
        w.u32(7);
        w.u16(5000);
      },
      {0x0a, 0x00, 0x00, 0x00, 0x48, 0x50, 0x01, 0x02,
       0x07, 0x00, 0x00, 0x00, 0x88, 0x13});
  add(FrameKind::channel_accept, 4, [](Writer& w) { w.u32(9); },
      {0x08, 0x00, 0x00, 0x00, 0x48, 0x50, 0x01, 0x03,
       0x09, 0x00, 0x00, 0x00});
  add(FrameKind::channel_reject, 1, [](Writer& w) { w.u8(5); },
      {0x05, 0x00, 0x00, 0x00, 0x48, 0x50, 0x01, 0x04, 0x05});
  add(FrameKind::channel_data, 2, [](Writer& w) { w.raw(to_bytes("ok")); },
      {0x06, 0x00, 0x00, 0x00, 0x48, 0x50, 0x01, 0x05, 0x6f, 0x6b});
  add(FrameKind::channel_ping, 8,
      [](Writer& w) { w.u64(0x0102030405060708ull); },
      {0x0c, 0x00, 0x00, 0x00, 0x48, 0x50, 0x01, 0x06,
       0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01});
  add(FrameKind::channel_pong, 8,
      [](Writer& w) { w.u64(0x0102030405060708ull); },
      {0x0c, 0x00, 0x00, 0x00, 0x48, 0x50, 0x01, 0x07,
       0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01});
  ASSERT_EQ(cases.size(), std::size(kAllKinds));

  for (const Case& c : cases) {
    FrameStream stream;
    stream.append(c.wire);
    auto next = stream.peek();
    ASSERT_TRUE(next && *next) << to_string(c.kind);
    EXPECT_EQ((*next)->kind, c.kind);
    EXPECT_EQ(Bytes((*next)->payload.begin(), (*next)->payload.end()),
              Bytes(c.wire.begin() + 8, c.wire.end()));
  }
}

TEST(FrameTest, RejectsBadMagic) {
  Bytes wire = frame_bytes(FrameKind::datagram, to_bytes("x"));
  wire[0] ^= 0xFF;
  auto decoded = decode_frame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, Errc::protocol_error);
}

TEST(FrameTest, RejectsFutureVersion) {
  Bytes wire = frame_bytes(FrameKind::datagram, to_bytes("x"));
  wire[2] = kFrameVersion + 1;
  auto decoded = decode_frame(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, Errc::protocol_error);
}

TEST(FrameTest, RejectsUnknownKind) {
  for (std::uint8_t kind : {0x00, 0x08, 0xEE}) {
    Bytes wire = frame_bytes(FrameKind::datagram, to_bytes("x"));
    wire[3] = kind;
    auto decoded = decode_frame(wire);
    ASSERT_FALSE(decoded.ok()) << "accepted kind " << int{kind};
    EXPECT_EQ(decoded.error().code, Errc::protocol_error);
  }
}

TEST(FrameTest, RejectsTruncatedHeader) {
  const Bytes wire = frame_bytes(FrameKind::datagram, to_bytes("x"));
  for (std::size_t len = 0; len < kFrameHeaderSize; ++len) {
    auto decoded = decode_frame(BytesView(wire.data(), len));
    ASSERT_FALSE(decoded.ok()) << "accepted a " << len << "-byte frame";
    EXPECT_EQ(decoded.error().code, Errc::protocol_error);
  }
}

// --- FrameStream ------------------------------------------------------------

struct Popped {
  FrameKind kind;
  std::string payload;
  bool operator==(const Popped&) const = default;
};

/// Pops every complete, well-formed frame; fails on a bad one.
void pop_all(FrameStream& stream, std::vector<Popped>& out) {
  while (auto next = stream.peek()) {
    ASSERT_TRUE(*next) << next->error().to_string();
    out.push_back({(*next)->kind, to_text((*next)->payload)});
    stream.pop();
  }
}

Bytes three_frame_stream() {
  Bytes wire = stream_bytes(FrameKind::channel_data, to_bytes("alpha"));
  const Bytes ping =
      stream_bytes(FrameKind::channel_ping, to_bytes("12345678"));
  const Bytes empty = stream_bytes(FrameKind::channel_data, {});
  wire.insert(wire.end(), ping.begin(), ping.end());
  wire.insert(wire.end(), empty.begin(), empty.end());
  return wire;
}

const std::vector<Popped> kThreeFrames = {
    {FrameKind::channel_data, "alpha"},
    {FrameKind::channel_ping, "12345678"},
    {FrameKind::channel_data, ""}};

TEST(FrameStreamTest, ReassemblesSplitAtEveryByteOffset) {
  const Bytes wire = three_frame_stream();
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    FrameStream stream;
    std::vector<Popped> got;
    stream.append(BytesView(wire).first(split));
    pop_all(stream, got);
    stream.append(BytesView(wire).subspan(split));
    pop_all(stream, got);
    EXPECT_EQ(got, kThreeFrames) << "split at " << split;
    EXPECT_EQ(stream.buffered(), 0u);
  }
  // And one byte at a time.
  FrameStream stream;
  std::vector<Popped> got;
  for (std::uint8_t byte : wire) {
    stream.append(BytesView(&byte, 1));
    pop_all(stream, got);
  }
  EXPECT_EQ(got, kThreeFrames);
}

TEST(FrameStreamTest, PopsCoalescedFramesInOrder) {
  FrameStream stream;
  stream.append(three_frame_stream());
  auto first = stream.peek();
  ASSERT_TRUE(first && *first);
  const BytesView alpha = (*first)->payload;
  stream.pop();
  // A popped frame's view outlives pop(): handlers run after it.
  EXPECT_EQ(to_text(alpha), "alpha");
  std::vector<Popped> got;
  pop_all(stream, got);
  EXPECT_EQ(got, (std::vector<Popped>{kThreeFrames[1], kThreeFrames[2]}));
  EXPECT_EQ(stream.buffered(), 0u);
}

TEST(FrameStreamTest, ZeroLengthPrefixPopsAsBadFrame) {
  FrameStream stream;
  stream.append(Bytes{0, 0, 0, 0});
  stream.append(stream_bytes(FrameKind::channel_data, to_bytes("after")));
  auto bad = stream.peek();
  ASSERT_TRUE(bad);
  ASSERT_FALSE(*bad);
  EXPECT_EQ(bad->error().code, Errc::protocol_error);
  EXPECT_FALSE(stream.poisoned());
  stream.pop();
  std::vector<Popped> got;
  pop_all(stream, got);
  EXPECT_EQ(got, (std::vector<Popped>{{FrameKind::channel_data, "after"}}));
}

TEST(FrameStreamTest, OversizePrefixPoisonsTheStream) {
  Writer at_limit;
  at_limit.u32(kMaxStreamFrame);
  FrameStream limit;
  limit.append(at_limit.data());
  EXPECT_FALSE(limit.peek()) << "a frame of kMaxStreamFrame is legal";
  EXPECT_FALSE(limit.poisoned());

  Writer over;
  over.u32(kMaxStreamFrame + 1);
  FrameStream stream;
  stream.append(over.data());
  ASSERT_TRUE(stream.poisoned());
  for (int i = 0; i < 2; ++i) {
    auto next = stream.peek();
    ASSERT_TRUE(next);
    ASSERT_FALSE(*next);
    EXPECT_EQ(next->error().code, Errc::protocol_error);
    stream.pop();  // no way past a poisoned prefix
  }
  stream.append(stream_bytes(FrameKind::channel_data, to_bytes("late")));
  EXPECT_EQ(stream.buffered(), 4u) << "a poisoned stream buffers nothing more";
}

TEST(FrameStreamTest, BytesAfterTheLastFrameStayBuffered) {
  const Bytes next_frame =
      stream_bytes(FrameKind::channel_data, to_bytes("next"));
  Bytes wire = stream_bytes(FrameKind::channel_data, to_bytes("first"));
  wire.insert(wire.end(), next_frame.begin(), next_frame.begin() + 6);

  FrameStream stream;
  stream.append(wire);
  std::vector<Popped> got;
  pop_all(stream, got);
  EXPECT_EQ(got, (std::vector<Popped>{{FrameKind::channel_data, "first"}}));
  EXPECT_EQ(stream.buffered(), 6u);

  stream.append(BytesView(next_frame).subspan(6));
  pop_all(stream, got);
  EXPECT_EQ(got.back(), (Popped{FrameKind::channel_data, "next"}));
  EXPECT_EQ(stream.buffered(), 0u);
}

}  // namespace
}  // namespace ph::proto
