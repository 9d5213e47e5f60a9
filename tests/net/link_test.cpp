#include "transport/transport.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/medium.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace ph::net {
namespace {

TechProfile lossless_bt() {
  TechProfile p = bluetooth_2_0();
  p.frame_loss = 0.0;
  return p;
}

class LinkTest : public ::testing::Test {
 protected:
  LinkTest() : medium_(simulator_, sim::Rng(3)) {}

  void SetUp() override {
    a_ = medium_.add_node("a", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
    b_ = medium_.add_node("b", std::make_unique<sim::StaticMobility>(sim::Vec2{2, 0}));
    radio_a_ = &medium_.add_adapter(a_, lossless_bt());
    radio_b_ = &medium_.add_adapter(b_, lossless_bt());
  }

  /// Establishes a link a->b on port 5; returns {client link, server link}.
  std::pair<transport::Channel, transport::Channel> connect() {
    transport::Channel client, server;
    radio_b_->listen(5, [&](transport::Channel link) { server = link; });
    radio_a_->connect(b_, 5, [&](Result<transport::Channel> link) {
      ASSERT_TRUE(link.ok()) << link.error().to_string();
      client = *link;
    });
    simulator_.run_until(simulator_.now() + sim::seconds(2));
    EXPECT_TRUE(client.valid());
    EXPECT_TRUE(server.valid());
    return {client, server};
  }

  sim::Simulator simulator_;
  Medium medium_;
  NodeId a_ = 0, b_ = 0;
  Adapter* radio_a_ = nullptr;
  Adapter* radio_b_ = nullptr;
};

TEST_F(LinkTest, ConnectTakesConnectLatency) {
  bool connected = false;
  radio_b_->listen(5, [](transport::Channel) {});
  radio_a_->connect(b_, 5, [&](Result<transport::Channel> link) { connected = link.ok(); });
  simulator_.run_until(sim::milliseconds(500));  // BT paging is 640 ms
  EXPECT_FALSE(connected);
  simulator_.run_until(sim::seconds(1));
  EXPECT_TRUE(connected);
}

TEST_F(LinkTest, ConnectToNonListenerFails) {
  Error error;
  radio_a_->connect(b_, 99, [&](Result<transport::Channel> link) {
    ASSERT_FALSE(link.ok());
    error = link.error();
  });
  simulator_.run_until(sim::seconds(2));
  EXPECT_EQ(error.code, Errc::connect_failed);
}

TEST_F(LinkTest, ConnectToUnreachableNodeFails) {
  NodeId far = medium_.add_node(
      "far", std::make_unique<sim::StaticMobility>(sim::Vec2{500, 0}));
  medium_.add_adapter(far, lossless_bt()).listen(5, [](transport::Channel) {});
  Error error;
  radio_a_->connect(far, 5, [&](Result<transport::Channel> link) {
    ASSERT_FALSE(link.ok());
    error = link.error();
  });
  simulator_.run_until(sim::seconds(2));
  EXPECT_EQ(error.code, Errc::device_unreachable);
}

TEST_F(LinkTest, ConnectToPoweredOffPeerFails) {
  radio_b_->listen(5, [](transport::Channel) {});
  radio_b_->set_powered(false);
  bool failed = false;
  radio_a_->connect(b_, 5, [&](Result<transport::Channel> link) { failed = !link.ok(); });
  simulator_.run_until(sim::seconds(2));
  EXPECT_TRUE(failed);
}

TEST_F(LinkTest, MessagesDeliveredInOrder) {
  auto [client, server] = connect();
  std::vector<std::string> received;
  server.on_receive([&](BytesView data) { received.push_back(to_text(data)); });
  client.send(to_bytes("one"));
  client.send(to_bytes("two"));
  client.send(to_bytes("three"));
  simulator_.run_until(simulator_.now() + sim::seconds(2));
  EXPECT_EQ(received, (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(LinkTest, BidirectionalTraffic) {
  auto [client, server] = connect();
  std::string at_server, at_client;
  server.on_receive([&](BytesView d) { at_server = to_text(d); });
  client.on_receive([&](BytesView d) { at_client = to_text(d); });
  client.send(to_bytes("hello"));
  server.send(to_bytes("world"));
  simulator_.run_until(simulator_.now() + sim::seconds(2));
  EXPECT_EQ(at_server, "hello");
  EXPECT_EQ(at_client, "world");
}

TEST_F(LinkTest, LargePayloadTakesBandwidthTime) {
  auto [client, server] = connect();
  bool received = false;
  server.on_receive([&](BytesView) { received = true; });
  // 723 kbps -> ~11 s for 1 MB.
  client.send(Bytes(1'000'000, 0x42));
  simulator_.run_until(simulator_.now() + sim::seconds(5));
  EXPECT_FALSE(received);
  simulator_.run_until(simulator_.now() + sim::seconds(10));
  EXPECT_TRUE(received);
}

TEST_F(LinkTest, CloseNotifiesPeer) {
  auto [client, server] = connect();
  bool server_broke = false;
  server.on_break([&] { server_broke = true; });
  client.close();
  EXPECT_FALSE(client.open());
  simulator_.run_until(simulator_.now() + sim::seconds(1));
  EXPECT_TRUE(server_broke);
  EXPECT_FALSE(server.open());
}

TEST_F(LinkTest, DoubleCloseIsSafe) {
  auto [client, server] = connect();
  client.close();
  client.close();
  simulator_.run_until(simulator_.now() + sim::seconds(1));
  SUCCEED();
}

TEST_F(LinkTest, SendAfterCloseIsDiscarded) {
  auto [client, server] = connect();
  bool received = false;
  server.on_receive([&](BytesView) { received = true; });
  client.close();
  client.send(to_bytes("ghost"));
  simulator_.run_until(simulator_.now() + sim::seconds(1));
  EXPECT_FALSE(received);
}

TEST_F(LinkTest, PeerMovingOutOfRangeBreaksLinkOnNextSend) {
  // b walks east at 2 m/s; leaves the 10 m BT range after ~5 s.
  medium_.set_mobility(b_, std::make_unique<sim::LinearMobility>(
                               sim::Vec2{2, 0}, sim::Vec2{2.0, 0.0}));
  auto [client, server] = connect();
  bool client_broke = false, server_broke = false;
  client.on_break([&] { client_broke = true; });
  server.on_break([&] { server_broke = true; });
  simulator_.run_until(sim::seconds(10));  // b is now ~22 m away
  client.send(to_bytes("anyone there?"));
  simulator_.run_until(sim::seconds(12));
  EXPECT_TRUE(client_broke);
  EXPECT_TRUE(server_broke);
  EXPECT_FALSE(client.open());
}

TEST_F(LinkTest, PoweringOffAdapterBreaksItsLinks) {
  auto [client, server] = connect();
  bool client_broke = false;
  client.on_break([&] { client_broke = true; });
  radio_b_->set_powered(false);
  EXPECT_TRUE(client_broke);
  EXPECT_FALSE(client.open());
  EXPECT_EQ(medium_.stats().counter("links_broken"), 1u);
}

TEST_F(LinkTest, SignalReflectsDistance) {
  auto [client, server] = connect();
  EXPECT_GT(client.signal(), 0.9);  // 2 m apart, 10 m range
  medium_.set_mobility(b_, std::make_unique<sim::StaticMobility>(sim::Vec2{9, 0}));
  EXPECT_LT(client.signal(), 0.3);
}

TEST_F(LinkTest, StatsCountTraffic) {
  auto [client, server] = connect();
  server.on_receive([](BytesView) {});
  client.send(to_bytes("abcd"));
  simulator_.run_until(simulator_.now() + sim::seconds(1));
  EXPECT_EQ(medium_.stats().counter("links_opened"), 1u);
  EXPECT_EQ(medium_.stats().counter("link_messages_sent"), 1u);
  EXPECT_EQ(medium_.stats().counter("link_bytes_sent"), 4u);
}

TEST_F(LinkTest, InvalidLinkHandleIsInert) {
  transport::Channel link;
  EXPECT_FALSE(link.valid());
  EXPECT_FALSE(link.open());
  link.send(to_bytes("x"));  // must not crash
  link.close();
  EXPECT_DOUBLE_EQ(link.signal(), 0.0);
}

// --- channel-handle ownership ----------------------------------------------
// Each side of a link is a transport::Channel aliasing the one LinkState:
// the state lives exactly as long as some handle to either side does.

TEST_F(LinkTest, CopiesOfOneSideCompareEqualAndTheSidesDoNot) {
  auto [client, server] = connect();
  const transport::Channel client_copy = client;
  const transport::Channel server_copy = server;
  EXPECT_TRUE(client_copy == client);
  EXPECT_TRUE(server_copy == server);
  EXPECT_FALSE(client == server);
  EXPECT_FALSE(client_copy == server_copy);
  EXPECT_EQ(client_copy.remote_node(), b_);
  EXPECT_EQ(server_copy.remote_node(), a_);
}

/// A handle whose link is dead reads closed, has no signal, and sends
/// nothing: no medium traffic, no transport count, no delivery.
void expect_inert(transport::Channel& kept, Medium& medium,
                  sim::Simulator& simulator) {
  EXPECT_TRUE(kept.valid());
  EXPECT_FALSE(kept.open());
  EXPECT_DOUBLE_EQ(kept.signal(), 0.0);
  const obs::Counter& messages =
      medium.registry().counter("transport.channel_messages");
  const std::uint64_t sent_before = medium.stats().counter("link_messages_sent");
  const std::uint64_t messages_before = messages.value();
  kept.send(to_bytes("ghost"));
  kept.close();
  simulator.run_until(simulator.now() + sim::seconds(1));
  EXPECT_EQ(medium.stats().counter("link_messages_sent"), sent_before);
  EXPECT_EQ(messages.value(), messages_before);
}

TEST_F(LinkTest, HandleKeptAfterABreakIsInert) {
  auto [client, server] = connect();
  radio_b_->set_powered(false);
  server = transport::Channel{};  // the peer drops its handle too
  expect_inert(client, medium_, simulator_);
}

TEST_F(LinkTest, HandleKeptAfterALocalCloseIsInert) {
  auto [client, server] = connect();
  client.close();
  simulator_.run_until(simulator_.now() + sim::seconds(1));
  server = transport::Channel{};
  expect_inert(client, medium_, simulator_);
}

TEST_F(LinkTest, HandleKeptAfterThePeerClosesAndDropsItsHandleIsInert) {
  auto [client, server] = connect();
  int received = 0;
  server.on_receive([&](BytesView) { ++received; });
  server.close();
  server = transport::Channel{};
  simulator_.run_until(simulator_.now() + sim::seconds(1));
  expect_inert(client, medium_, simulator_);
  EXPECT_EQ(received, 0);
}

TEST_F(LinkTest, LastHandleFreesTheLinkAndCompactionForgetsIt) {
  // Unlimited radios: every link below stays up at once.
  TechProfile wide = lossless_bt();
  wide.max_links = 0;
  const NodeId c = medium_.add_node(
      "c", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 2}));
  const NodeId d = medium_.add_node(
      "d", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 4}));
  Adapter& radio_c = medium_.add_adapter(c, wide);
  Adapter& radio_d = medium_.add_adapter(d, wide);
  std::vector<transport::Channel> clients, servers;
  radio_d.listen(5, [&](transport::Channel link) { servers.push_back(link); });
  constexpr std::size_t kLinks = 40;
  for (std::size_t i = 0; i < kLinks; ++i) {
    radio_c.connect(d, 5, [&](Result<transport::Channel> link) {
      ASSERT_TRUE(link.ok()) << link.error().to_string();
      clients.push_back(*link);
    });
  }
  simulator_.run_until(simulator_.now() + sim::seconds(2));
  ASSERT_EQ(clients.size(), kLinks);
  ASSERT_EQ(servers.size(), kLinks);
  EXPECT_EQ(medium_.tracked_link_count(), kLinks);

  // An open link's handlers die only with its LinkState, so a sentinel
  // captured by one shows when the last handle to either side is gone.
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  servers[0].on_receive([sentinel](BytesView) {});
  sentinel.reset();
  clients[0] = transport::Channel{};
  EXPECT_FALSE(watch.expired());  // the server side still holds the link
  servers[0] = transport::Channel{};
  EXPECT_TRUE(watch.expired());

  // Close the rest; once enough of them have died the registry compacts,
  // forgetting the freed link along with the closed ones.
  for (std::size_t i = 1; i < kLinks; ++i) clients[i].close();
  simulator_.run_until(simulator_.now() + sim::seconds(2));
  EXPECT_LT(medium_.tracked_link_count(), kLinks);
  EXPECT_EQ(medium_.stats().counter("links_compacted"), 1u);
}

TEST_F(LinkTest, RetransmissionsDelayButDeliver) {
  TechProfile lossy = bluetooth_2_0();
  lossy.frame_loss = 0.3;
  NodeId c = medium_.add_node(
      "c", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 2}));
  NodeId d = medium_.add_node(
      "d", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 4}));
  Adapter& radio_c = medium_.add_adapter(c, lossy);
  Adapter& radio_d = medium_.add_adapter(d, lossy);
  transport::Channel client;
  int received = 0;
  radio_d.listen(5, [&](transport::Channel link) {
    auto server = std::make_shared<transport::Channel>(link);
    server->on_receive([&received, server](BytesView) { ++received; });
  });
  radio_c.connect(d, 5, [&](Result<transport::Channel> link) { client = *link; });
  simulator_.run_until(simulator_.now() + sim::seconds(2));
  for (int i = 0; i < 100; ++i) client.send(to_bytes("x"));
  simulator_.run_until(simulator_.now() + sim::minutes(1));
  EXPECT_EQ(received, 100);  // reliable: everything arrives
  EXPECT_GT(medium_.stats().counter("retransmissions"), 0u);
}

}  // namespace
}  // namespace ph::net
