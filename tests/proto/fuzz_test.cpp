// Decoder robustness: randomized mutations and random byte soup must never
// crash, hang or read out of bounds — every outcome is either a valid
// decode or a clean protocol_error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "proto/daemon.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "proto/session.hpp"
#include "sim/rng.hpp"
#include "sns/protocol.hpp"

namespace ph::proto {
namespace {

Bytes sample_request_bytes() {
  Request request;
  request.op = Opcode::ps_get_profile;
  request.requester = "alice";
  request.member_id = "bob";
  request.argument = "argument text";
  request.mail = {"bob", "alice", "subject", "body", 42};
  return encode(request);
}

Bytes sample_response_bytes() {
  Response response;
  response.op = Opcode::ps_get_shared_content;
  response.names = {"one", "two"};
  response.profile.member_id = "bob";
  response.profile.interests = {"a", "b", "c"};
  response.profile.comments = {{"x", "y", 1}};
  response.items = {{"f", 10}};
  response.content = Bytes(64, 0x7e);
  return encode(response);
}

Bytes sample_daemon_bytes() {
  DaemonMessage message;
  message.op = DaemonOp::service_reply;
  message.device_name = "dev";
  message.services = {{"PeerHoodCommunity", 1000, {{"k", "v"}}}};
  return encode(message);
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, MutatedRequestsNeverCrash) {
  sim::Rng rng(GetParam());
  const Bytes original = sample_request_bytes();
  for (int round = 0; round < 500; ++round) {
    Bytes mutated = original;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 7));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.uniform_int(0, mutated.size() - 1)] ^=
          static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    if (rng.chance(0.3)) mutated.resize(rng.uniform_int(0, mutated.size()));
    auto decoded = decode_request(mutated);  // must not crash
    if (decoded.ok()) {
      // Whatever decoded must re-encode without crashing either.
      (void)encode(*decoded);
    }
  }
}

TEST_P(FuzzTest, MutatedResponsesNeverCrash) {
  sim::Rng rng(GetParam() * 3 + 1);
  const Bytes original = sample_response_bytes();
  for (int round = 0; round < 500; ++round) {
    Bytes mutated = original;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 7));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.uniform_int(0, mutated.size() - 1)] ^=
          static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    if (rng.chance(0.3)) mutated.resize(rng.uniform_int(0, mutated.size()));
    auto decoded = decode_response(mutated);
    if (decoded.ok()) (void)encode(*decoded);
  }
}

TEST_P(FuzzTest, MutatedDaemonMessagesNeverCrash) {
  sim::Rng rng(GetParam() * 7 + 5);
  const Bytes original = sample_daemon_bytes();
  for (int round = 0; round < 500; ++round) {
    Bytes mutated = original;
    mutated[rng.uniform_int(0, mutated.size() - 1)] ^=
        static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    if (rng.chance(0.3)) mutated.resize(rng.uniform_int(0, mutated.size()));
    auto decoded = decode_daemon_message(mutated);
    if (decoded.ok()) (void)encode(*decoded);
    // The view decoder accepts exactly what the owning one does, and its
    // service section decodes to the same list.
    auto view = decode_daemon_view(mutated);
    ASSERT_EQ(view.ok(), decoded.ok());
    if (view.ok()) {
      EXPECT_EQ(view->device_name, decoded->device_name);
      auto services = decode_services(view->services);
      ASSERT_TRUE(services.ok());
      EXPECT_EQ(*services, decoded->services);
    }
  }
}

// Session frames of every op, mutated: a frame that parses must lie
// inside the input (the payload is a view into it) and re-encode to the
// bytes it was parsed from.
TEST_P(FuzzTest, MutatedSessionFramesNeverCrash) {
  sim::Rng rng(GetParam() * 31 + 7);
  const Bytes payload(40, 0x3c);
  for (int round = 0; round < 500; ++round) {
    SessionWire wire;
    wire.op = static_cast<SessionOp>(rng.uniform_int(1, 6));
    wire.session = rng.uniform_int(0, UINT64_MAX);
    wire.seq = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    wire.trace = rng.uniform_int(0, 3);
    if (wire.op == SessionOp::data) wire.payload = payload;
    Bytes mutated = encode(wire);
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < flips; ++i) {
      // Every other flip lands in the payload length prefix (bytes
      // 21..24), where a uniform flip would rarely go.
      const std::size_t at = i % 2 == 0 ? 21 + rng.uniform_int(0, 3)
                                        : rng.uniform_int(0, mutated.size() - 1);
      mutated[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    if (rng.chance(0.3)) mutated.resize(rng.uniform_int(0, mutated.size()));
    auto decoded = decode_session_wire(mutated);
    if (!decoded.ok()) continue;
    const BytesView in(mutated);
    ASSERT_GE(decoded->payload.data(), in.data());
    ASSERT_LE(decoded->payload.data() + decoded->payload.size(),
              in.data() + in.size());
    const Bytes again = encode(*decoded);
    ASSERT_LE(again.size(), mutated.size());
    EXPECT_TRUE(std::equal(again.begin(), again.end(), mutated.begin()));
  }
}

TEST_P(FuzzTest, MutatedSnsPagesNeverCrash) {
  sim::Rng rng(GetParam() * 19 + 3);
  sns::PageResponse response;
  response.kind = sns::PageKind::member_list;
  response.names = {"dave", "emma"};
  response.body_bytes = 256;
  const Bytes original = sns::encode(response);
  // The body-length prefix sits just before the 256-byte body; a mutation
  // landing uniformly would hit it about once in 70 rounds, so every
  // fourth round aims at it.
  const std::size_t body_length_at = original.size() - 256 - 4;
  for (int round = 0; round < 500; ++round) {
    Bytes mutated = original;
    const std::size_t at =
        round % 4 == 0 ? body_length_at + rng.uniform_int(0, 3)
                       : rng.uniform_int(0, mutated.size() - 1);
    mutated[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    if (rng.chance(0.3)) mutated.resize(rng.uniform_int(0, mutated.size()));
    auto decoded = sns::decode_page_response(mutated);
    if (decoded.ok()) (void)sns::encode(*decoded);
  }
}

// Concatenated stream frames, mutated and fed in random chunk sizes, the
// way a socket hands them over. Whatever FrameStream pops must be bytes
// that were appended, and must re-encode to exactly the bytes it came from.
TEST_P(FuzzTest, MutatedFrameStreamsNeverCrash) {
  sim::Rng rng(GetParam() * 29 + 17);
  Writer w;
  std::vector<std::size_t> prefix_at;
  for (auto kind : {FrameKind::channel_open, FrameKind::channel_accept,
                    FrameKind::channel_data, FrameKind::channel_ping,
                    FrameKind::channel_data, FrameKind::channel_pong,
                    FrameKind::channel_reject}) {
    prefix_at.push_back(w.data().size());
    const Bytes payload = sample_daemon_bytes();
    begin_stream_frame(w, kind, payload.size());
    w.raw(payload);
  }
  const Bytes original = w.data();
  for (int round = 0; round < 500; ++round) {
    Bytes mutated = original;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < flips; ++i) {
      // Every other flip lands in a length prefix, where a uniform flip
      // would rarely go.
      const std::size_t at =
          i % 2 == 0 ? prefix_at[rng.uniform_int(0, prefix_at.size() - 1)] +
                           rng.uniform_int(0, 3)
                     : rng.uniform_int(0, mutated.size() - 1);
      mutated[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    if (rng.chance(0.3)) mutated.resize(rng.uniform_int(0, mutated.size()));

    // The length prefix at `offset`, read straight from the input.
    const auto length_at = [&](std::size_t offset) {
      return Reader(BytesView(mutated).subspan(offset, kStreamPrefixSize))
          .u32()
          .value();
    };
    FrameStream stream;
    std::size_t appended = 0;
    std::size_t consumed = 0;  // offset of the front frame's prefix
    while (appended < mutated.size() && !stream.poisoned()) {
      const std::size_t chunk = std::min<std::size_t>(
          rng.uniform_int(1, 64), mutated.size() - appended);
      stream.append(BytesView(mutated).subspan(appended, chunk));
      appended += chunk;
      while (auto next = stream.peek()) {
        const std::uint32_t length = length_at(consumed);
        if (stream.poisoned()) {
          ASSERT_GT(length, kMaxStreamFrame);
          break;
        }
        const std::size_t end = consumed + kStreamPrefixSize + length;
        ASSERT_LE(end, appended);
        if (*next) {
          const FrameView& frame = **next;
          ASSERT_EQ(kFrameHeaderSize + frame.payload.size(), length);
          ASSERT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                                 mutated.begin() + static_cast<long>(
                                     end - frame.payload.size())));
          Writer again;
          begin_stream_frame(again, frame.kind, frame.payload.size());
          again.raw(frame.payload);
          ASSERT_EQ(again.data(),
                    Bytes(mutated.begin() + static_cast<long>(consumed),
                          mutated.begin() + static_cast<long>(end)));
        }
        const std::size_t before = stream.buffered();
        stream.pop();
        ASSERT_EQ(before - stream.buffered(), end - consumed);
        consumed = end;
      }
      // Nothing left to pop, so the front frame must really be partial.
      if (!stream.poisoned() && appended - consumed >= kStreamPrefixSize) {
        ASSERT_LT(appended - consumed - kStreamPrefixSize, length_at(consumed));
      }
    }
    if (!stream.poisoned()) {
      EXPECT_EQ(consumed + stream.buffered(), mutated.size());
    }
  }
}

TEST_P(FuzzTest, RandomByteSoupNeverCrashes) {
  sim::Rng rng(GetParam() * 13 + 11);
  for (int round = 0; round < 300; ++round) {
    Bytes soup(rng.uniform_int(0, 300));
    for (auto& byte : soup) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)decode_request(soup);
    (void)decode_response(soup);
    (void)decode_daemon_message(soup);
    (void)decode_daemon_view(soup);
    (void)decode_session_wire(soup);
    (void)sns::decode_page_request(soup);
    (void)sns::decode_page_response(soup);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ph::proto
