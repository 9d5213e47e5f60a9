// Decoder robustness: randomized mutations and random byte soup must never
// crash, hang or read out of bounds — every outcome is either a valid
// decode or a clean protocol_error.
#include <gtest/gtest.h>

#include "proto/daemon.hpp"
#include "proto/messages.hpp"
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
    (void)sns::decode_page_request(soup);
    (void)sns::decode_page_response(soup);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ph::proto
