// Golden wire bytes of the PeerHood control formats: daemon datagrams,
// session frames and community requests/responses. The literals are the
// images these formats have always had on the wire; an encoder that drifts
// by one byte breaks interoperability with every deployed peer, so each
// test pins both encode() forms — the owning one and the one that appends
// to a caller's Writer — and decodes the literal back.
#include <algorithm>

#include <gtest/gtest.h>

#include "proto/codec.hpp"
#include "proto/daemon.hpp"
#include "proto/messages.hpp"
#include "proto/session.hpp"

namespace ph::proto {
namespace {

/// `encode(message, w)` must append exactly `expected` to what `w` holds.
template <typename T>
void expect_appends(const T& message, const Bytes& expected) {
  Writer appended;
  appended.u8(0xee);
  encode(message, appended);
  ASSERT_EQ(appended.data().size(), 1 + expected.size());
  EXPECT_EQ(appended.data().front(), 0xee);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         appended.data().begin() + 1));
}

TEST(DaemonWireGolden, ServiceQuery) {
  const DaemonMessage query{DaemonOp::service_query, 0x01020304u,
                            0x1122334455667788ull, "n1", {}};
  const Bytes expected = {
      0x01,                                            // op: service_query
      0x04, 0x03, 0x02, 0x01,                          // token
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // trace_parent
      0x02, 0x00, 0x00, 0x00, 'n', '1',                // device name
      0x00, 0x00, 0x00, 0x00,                          // no services
  };
  EXPECT_EQ(encode(query), expected);
  expect_appends(query, expected);
  EXPECT_EQ(*decode_daemon_message(expected), query);
}

TEST(DaemonWireGolden, ServiceReplyWithTwoServicesAndAttributes) {
  const DaemonMessage reply{
      DaemonOp::service_reply, 7, 9, "alice",
      {{"chat", 1001, {{"type", "social"}, {"v", "2"}}},
       {"ftp", 2000, {{"x", "y"}}}}};
  const Bytes expected = {
      0x02,                                            // op: service_reply
      0x07, 0x00, 0x00, 0x00,                          // token
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // trace_parent
      0x05, 0x00, 0x00, 0x00, 'a', 'l', 'i', 'c', 'e',
      0x02, 0x00, 0x00, 0x00,                          // two services
      0x04, 0x00, 0x00, 0x00, 'c', 'h', 'a', 't',
      0xe9, 0x03,                                      // port 1001
      0x02, 0x00, 0x00, 0x00,                          // two attributes
      0x04, 0x00, 0x00, 0x00, 't', 'y', 'p', 'e',
      0x06, 0x00, 0x00, 0x00, 's', 'o', 'c', 'i', 'a', 'l',
      0x01, 0x00, 0x00, 0x00, 'v',
      0x01, 0x00, 0x00, 0x00, '2',
      0x03, 0x00, 0x00, 0x00, 'f', 't', 'p',
      0xd0, 0x07,                                      // port 2000
      0x01, 0x00, 0x00, 0x00,                          // one attribute
      0x01, 0x00, 0x00, 0x00, 'x',
      0x01, 0x00, 0x00, 0x00, 'y',
  };
  EXPECT_EQ(encode(reply), expected);
  expect_appends(reply, expected);
  EXPECT_EQ(*decode_daemon_message(expected), reply);
}

TEST(DaemonWireGolden, Ping) {
  const DaemonMessage ping{DaemonOp::ping, 5, 0, "bob", {}};
  const Bytes expected = {
      0x03,                                            // op: ping
      0x05, 0x00, 0x00, 0x00,                          // token
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // untraced
      0x03, 0x00, 0x00, 0x00, 'b', 'o', 'b',
      0x00, 0x00, 0x00, 0x00,                          // no services
  };
  EXPECT_EQ(encode(ping), expected);
  expect_appends(ping, expected);
  EXPECT_EQ(*decode_daemon_message(expected), ping);
}

TEST(DaemonWireGolden, Pong) {
  const DaemonMessage pong{DaemonOp::pong, 5, 6, "bob", {}};
  const Bytes expected = {
      0x04,                                            // op: pong
      0x05, 0x00, 0x00, 0x00,                          // token
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // trace_parent
      0x03, 0x00, 0x00, 0x00, 'b', 'o', 'b',
      0x00, 0x00, 0x00, 0x00,                          // no services
  };
  EXPECT_EQ(encode(pong), expected);
  expect_appends(pong, expected);
  EXPECT_EQ(*decode_daemon_message(expected), pong);
}

/// Session frames share one layout; every op but `data` travels with an
/// empty payload.
Bytes session_frame(std::uint8_t op, std::uint8_t trace,
                    std::initializer_list<std::uint8_t> payload) {
  Bytes out = {
      op,
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // session id
      0x03, 0x00, 0x00, 0x00,                          // seq
      trace, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // trace context
      static_cast<std::uint8_t>(payload.size()), 0x00, 0x00, 0x00,
  };
  // push_back, not insert: GCC 12 reports a false -Warray-bounds on
  // vector::insert here, and the tree builds with -Werror.
  for (std::uint8_t byte : payload) out.push_back(byte);
  return out;
}

TEST(SessionWireGolden, EveryOp) {
  const Bytes payload = {0xde, 0xad};
  for (SessionOp op : {SessionOp::hello, SessionOp::resume,
                       SessionOp::resume_ack, SessionOp::data, SessionOp::ack,
                       SessionOp::close}) {
    SCOPED_TRACE(static_cast<int>(op));
    const bool data = op == SessionOp::data;
    SessionWire wire;
    wire.op = op;
    wire.session = 0x0102030405060708ull;
    wire.seq = 3;
    wire.trace = data ? 0x21 : 0;
    if (data) wire.payload = payload;
    const Bytes expected =
        data ? session_frame(4, 0x21, {0xde, 0xad})
             : session_frame(static_cast<std::uint8_t>(op), 0, {});
    EXPECT_EQ(encode(wire), expected);
    expect_appends(wire, expected);
    auto decoded = decode_session_wire(expected);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->op, op);
    EXPECT_EQ(decoded->session, wire.session);
    EXPECT_EQ(decoded->seq, 3u);
    EXPECT_EQ(decoded->trace, wire.trace);
    EXPECT_TRUE(std::ranges::equal(decoded->payload, wire.payload));
  }
}

TEST(CommunityWireGolden, Request) {
  Request request;
  request.op = Opcode::ps_msg;
  request.trace_parent = 3;
  request.requester = "m1";
  request.member_id = "m2";
  request.argument = "hi";
  request.mail = {"m2", "m1", "s", "b", 7};
  request.offset = 1;
  request.length = 2;
  const Bytes expected = {
      0x07,                                            // op: PS_MSG
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // trace_parent
      0x02, 0x00, 0x00, 0x00, 'm', '1',                // requester
      0x02, 0x00, 0x00, 0x00, 'm', '2',                // member id
      0x02, 0x00, 0x00, 0x00, 'h', 'i',                // argument
      0x02, 0x00, 0x00, 0x00, 'm', '2',                // mail: receiver
      0x02, 0x00, 0x00, 0x00, 'm', '1',                //       sender
      0x01, 0x00, 0x00, 0x00, 's',                     //       subject
      0x01, 0x00, 0x00, 0x00, 'b',                     //       body
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //       sent at
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // offset
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // length
  };
  EXPECT_EQ(encode(request), expected);
  expect_appends(request, expected);
  EXPECT_EQ(*decode_request(expected), request);
}

TEST(CommunityWireGolden, Response) {
  Response response;
  response.op = Opcode::ps_get_profile;
  response.status = Status::ok;
  response.names = {"a"};
  response.profile = {"m", "M", 30, "x", {"i"}, {"t"}, {{"c", "hey", 5}}, {"v"}};
  response.items = {{"f", 9}};
  response.content = {1, 2};
  response.content_total = 2;
  const Bytes expected = {
      0x04,                                            // op: PS_GETPROFILE
      0x00,                                            // status: OK
      0x01, 0x00, 0x00, 0x00,                          // one name
      0x01, 0x00, 0x00, 0x00, 'a',
      0x01, 0x00, 0x00, 0x00, 'm',                     // profile: member id
      0x01, 0x00, 0x00, 0x00, 'M',                     //   display name
      0x1e, 0x00, 0x00, 0x00,                          //   age 30
      0x01, 0x00, 0x00, 0x00, 'x',                     //   about
      0x01, 0x00, 0x00, 0x00,                          //   one interest
      0x01, 0x00, 0x00, 0x00, 'i',
      0x01, 0x00, 0x00, 0x00,                          //   one friend
      0x01, 0x00, 0x00, 0x00, 't',
      0x01, 0x00, 0x00, 0x00,                          //   one comment
      0x01, 0x00, 0x00, 0x00, 'c',
      0x03, 0x00, 0x00, 0x00, 'h', 'e', 'y',
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00,                          //   one visitor
      0x01, 0x00, 0x00, 0x00, 'v',
      0x01, 0x00, 0x00, 0x00,                          // one shared item
      0x01, 0x00, 0x00, 0x00, 'f',
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x01, 0x02,              // content
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // content total
  };
  EXPECT_EQ(encode(response), expected);
  expect_appends(response, expected);
  EXPECT_EQ(*decode_response(expected), response);
}

}  // namespace
}  // namespace ph::proto
