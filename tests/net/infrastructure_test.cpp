// WLAN infrastructure mode (thesis §2.4.2): stations reach each other
// through access points, with longer effective range than ad-hoc mode.
#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace ph::net {
namespace {

class InfrastructureTest : public ::testing::Test {
 protected:
  InfrastructureTest() : medium_(simulator_, sim::Rng(95)) {
    profile_ = wlan_80211b_infrastructure();
    profile_.frame_loss = 0.0;
  }

  NodeId add_station(const std::string& name, sim::Vec2 pos) {
    NodeId id = medium_.add_node(
        name, std::make_unique<sim::StaticMobility>(pos));
    medium_.add_adapter(id, profile_);
    return id;
  }

  sim::Simulator simulator_;
  Medium medium_;
  TechProfile profile_;
};

TEST_F(InfrastructureTest, NoApMeansNoReachability) {
  NodeId a = add_station("a", {0, 0});
  NodeId b = add_station("b", {5, 0});  // trivially close, but no AP
  EXPECT_FALSE(medium_.reachable(a, b, profile_));
  EXPECT_DOUBLE_EQ(medium_.signal(a, b, profile_), 0.0);
}

TEST_F(InfrastructureTest, CommonApConnectsDistantStations) {
  // 150 m apart: far beyond the 100 m ad-hoc range, but both 75 m from
  // the AP — "communication range is longer" in infrastructure mode.
  NodeId a = add_station("a", {0, 0});
  NodeId b = add_station("b", {150, 0});
  medium_.add_access_point("ap", {75, 0}, 100.0);
  EXPECT_TRUE(medium_.reachable(a, b, profile_));
  // The same geometry in ad-hoc mode is out of range.
  TechProfile adhoc = wlan_80211b();
  NodeId c = medium_.add_node(
      "c", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 10}));
  NodeId d = medium_.add_node(
      "d", std::make_unique<sim::StaticMobility>(sim::Vec2{150, 10}));
  medium_.add_adapter(c, adhoc);
  medium_.add_adapter(d, adhoc);
  EXPECT_FALSE(medium_.reachable(c, d, adhoc));
}

TEST_F(InfrastructureTest, StationOutsideTheCellUnreachable) {
  NodeId a = add_station("a", {0, 0});
  NodeId b = add_station("b", {250, 0});  // 150 m from the AP
  medium_.add_access_point("ap", {100, 0}, 100.0);
  EXPECT_TRUE(medium_.signal(a, b, profile_) == 0.0);
}

TEST_F(InfrastructureTest, SignalIsTheWeakestLeg) {
  NodeId a = add_station("a", {90, 0});   // 10 m from AP: strong uplink
  NodeId b = add_station("b", {180, 0});  // 80 m from AP: weak downlink
  medium_.add_access_point("ap", {100, 0}, 100.0);
  const double signal = medium_.signal(a, b, profile_);
  EXPECT_GT(signal, 0.0);
  // min(up, down) = the 80 m leg's falloff = 1 - 0.64.
  EXPECT_NEAR(signal, 0.36, 1e-9);
}

TEST_F(InfrastructureTest, BestOfMultipleAps) {
  NodeId a = add_station("a", {0, 0});
  NodeId b = add_station("b", {60, 0});
  medium_.add_access_point("far-ap", {30, 95}, 100.0);   // weak for both
  medium_.add_access_point("near-ap", {30, 0}, 100.0);   // strong for both
  const double signal = medium_.signal(a, b, profile_);
  EXPECT_GT(signal, 0.9);  // the near AP's legs are each 30 m / 100 m
}

TEST_F(InfrastructureTest, ApsBridgeOverTheWiredLan) {
  // Two separate cells, no common AP: the distribution system still
  // connects the stations (§2.4.2 "inter-networking with wired LAN").
  NodeId a = add_station("a", {0, 0});
  NodeId b = add_station("b", {300, 0});
  medium_.add_access_point("west", {20, 0}, 100.0);
  medium_.add_access_point("east", {280, 0}, 100.0);
  EXPECT_TRUE(medium_.reachable(a, b, profile_));
  // Kill the east cell: b loses coverage, the path dies.
  // (west alone cannot reach b at 280 m.)
  for (NodeId ap = 1; ap <= medium_.node_count(); ++ap) {
    if (medium_.node_name(ap) == "east") {
      medium_.set_access_point_active(ap, false);
    }
  }
  EXPECT_FALSE(medium_.reachable(a, b, profile_));
}

TEST_F(InfrastructureTest, DataFlowsThroughTheAp) {
  NodeId a = add_station("a", {0, 0});
  NodeId b = add_station("b", {150, 0});
  medium_.add_access_point("ap", {75, 0}, 100.0);
  Adapter* radio_a = medium_.adapter(a, Technology::wlan);
  Adapter* radio_b = medium_.adapter(b, Technology::wlan);
  std::string received;
  radio_b->bind(7, [&](NodeId, BytesView data) { received = to_text(data); });
  radio_a->send_datagram(b, 7, to_bytes("via the AP"));
  simulator_.run_for(sim::seconds(1));
  EXPECT_EQ(received, "via the AP");
}

TEST_F(InfrastructureTest, ApFailureBreaksLinksImmediately) {
  NodeId a = add_station("a", {0, 0});
  NodeId b = add_station("b", {150, 0});
  NodeId ap = medium_.add_access_point("ap", {75, 0}, 100.0);
  Adapter* radio_a = medium_.adapter(a, Technology::wlan);
  Adapter* radio_b = medium_.adapter(b, Technology::wlan);
  transport::Channel client;
  std::shared_ptr<transport::Channel> server;
  radio_b->listen(5, [&](transport::Channel link) {
    server = std::make_shared<transport::Channel>(link);
  });
  radio_a->connect(b, 5, [&](Result<transport::Channel> link) {
    ASSERT_TRUE(link.ok());
    client = *link;
  });
  simulator_.run_for(sim::seconds(1));
  ASSERT_TRUE(client.open());
  bool broke = false;
  client.on_break([&] { broke = true; });
  medium_.set_access_point_active(ap, false);
  EXPECT_TRUE(broke);
  EXPECT_FALSE(client.open());
  // Bringing the AP back restores reachability for new connections.
  medium_.set_access_point_active(ap, true);
  EXPECT_TRUE(medium_.reachable(a, b, profile_));
}

TEST_F(InfrastructureTest, SecondApKeepsLinkAliveWhenFirstDies) {
  NodeId a = add_station("a", {0, 0});
  NodeId b = add_station("b", {60, 0});
  NodeId ap1 = medium_.add_access_point("ap1", {30, 0}, 100.0);
  medium_.add_access_point("ap2", {30, 10}, 100.0);
  Adapter* radio_a = medium_.adapter(a, Technology::wlan);
  Adapter* radio_b = medium_.adapter(b, Technology::wlan);
  radio_b->listen(5, [](transport::Channel) {});
  transport::Channel client;
  radio_a->connect(b, 5, [&](Result<transport::Channel> link) { client = *link; });
  simulator_.run_for(sim::seconds(1));
  ASSERT_TRUE(client.open());
  medium_.set_access_point_active(ap1, false);
  EXPECT_TRUE(client.open());  // ap2 still covers both stations
}

TEST_F(InfrastructureTest, RelayAddsLatency) {
  // Same payload, same distance: infrastructure delivery is ap_relay
  // slower than ad-hoc.
  NodeId a = add_station("a", {0, 0});
  NodeId b = add_station("b", {50, 0});
  medium_.add_access_point("ap", {25, 0}, 100.0);
  Adapter* radio_a = medium_.adapter(a, Technology::wlan);
  Adapter* radio_b = medium_.adapter(b, Technology::wlan);
  sim::Time infra_at = 0;
  radio_b->bind(7, [&](NodeId, BytesView) { infra_at = simulator_.now(); });
  radio_a->send_datagram(b, 7, Bytes(100, 1));
  simulator_.run_for(sim::seconds(1));

  TechProfile adhoc = wlan_80211b();
  adhoc.frame_loss = 0.0;
  NodeId c = medium_.add_node(
      "c", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 50}));
  NodeId d = medium_.add_node(
      "d", std::make_unique<sim::StaticMobility>(sim::Vec2{50, 50}));
  Adapter& radio_c = medium_.add_adapter(c, adhoc);
  Adapter& radio_d = medium_.add_adapter(d, adhoc);
  sim::Time adhoc_sent = simulator_.now();
  sim::Time adhoc_at = 0;
  radio_d.bind(7, [&](NodeId, BytesView) { adhoc_at = simulator_.now(); });
  radio_c.send_datagram(d, 7, Bytes(100, 1));
  simulator_.run_for(sim::seconds(1));

  ASSERT_GT(infra_at, 0u);
  ASSERT_GT(adhoc_at, 0u);
  EXPECT_EQ(infra_at - 0, (adhoc_at - adhoc_sent) + profile_.ap_relay);
}

}  // namespace
}  // namespace ph::net
