#include "net/medium.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace ph::net {
namespace {

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_(simulator_, sim::Rng(1)) {}

  NodeId add_static_node(const std::string& name, sim::Vec2 pos) {
    return medium_.add_node(name, std::make_unique<sim::StaticMobility>(pos));
  }

  sim::Simulator simulator_;
  Medium medium_;
};

TEST_F(MediumTest, NodeIdsAreDenseFromOne) {
  EXPECT_EQ(add_static_node("a", {0, 0}), 1u);
  EXPECT_EQ(add_static_node("b", {0, 0}), 2u);
  EXPECT_EQ(medium_.node_count(), 2u);
}

TEST_F(MediumTest, NodeNameStored) {
  NodeId id = add_static_node("laptop", {0, 0});
  EXPECT_EQ(medium_.node_name(id), "laptop");
}

TEST_F(MediumTest, PositionSamplesMobilityAtCurrentTime) {
  NodeId id = medium_.add_node(
      "walker", std::make_unique<sim::LinearMobility>(sim::Vec2{0, 0},
                                                      sim::Vec2{1.0, 0.0}));
  simulator_.run_until(sim::seconds(5));
  EXPECT_DOUBLE_EQ(medium_.position(id).x, 5.0);
}

TEST_F(MediumTest, SetMobilityReplacesModel) {
  NodeId id = add_static_node("a", {0, 0});
  medium_.set_mobility(id, std::make_unique<sim::StaticMobility>(sim::Vec2{9, 9}));
  EXPECT_DOUBLE_EQ(medium_.position(id).x, 9.0);
}

TEST_F(MediumTest, AdapterLookup) {
  NodeId id = add_static_node("a", {0, 0});
  Adapter& adapter = medium_.add_adapter(id, bluetooth_2_0());
  EXPECT_EQ(medium_.adapter(id, Technology::bluetooth), &adapter);
  EXPECT_EQ(medium_.adapter(id, Technology::wlan), nullptr);
}

TEST_F(MediumTest, SignalFullAtZeroDistance) {
  NodeId a = add_static_node("a", {0, 0});
  NodeId b = add_static_node("b", {0, 0});
  medium_.add_adapter(a, bluetooth_2_0());
  medium_.add_adapter(b, bluetooth_2_0());
  EXPECT_DOUBLE_EQ(medium_.signal(a, b, bluetooth_2_0()), 1.0);
}

TEST_F(MediumTest, SignalZeroAtRange) {
  NodeId a = add_static_node("a", {0, 0});
  NodeId b = add_static_node("b", {10.0, 0});  // exactly BT range
  medium_.add_adapter(a, bluetooth_2_0());
  medium_.add_adapter(b, bluetooth_2_0());
  EXPECT_DOUBLE_EQ(medium_.signal(a, b, bluetooth_2_0()), 0.0);
  EXPECT_FALSE(medium_.reachable(a, b, bluetooth_2_0()));
}

TEST_F(MediumTest, SignalDecreasesWithDistance) {
  NodeId a = add_static_node("a", {0, 0});
  NodeId near = add_static_node("near", {2, 0});
  NodeId far = add_static_node("far", {8, 0});
  medium_.add_adapter(a, bluetooth_2_0());
  medium_.add_adapter(near, bluetooth_2_0());
  medium_.add_adapter(far, bluetooth_2_0());
  EXPECT_GT(medium_.signal(a, near, bluetooth_2_0()),
            medium_.signal(a, far, bluetooth_2_0()));
}

TEST_F(MediumTest, SignalZeroWithoutAdapter) {
  NodeId a = add_static_node("a", {0, 0});
  NodeId b = add_static_node("b", {1, 0});
  medium_.add_adapter(a, bluetooth_2_0());
  // b has no Bluetooth radio.
  EXPECT_DOUBLE_EQ(medium_.signal(a, b, bluetooth_2_0()), 0.0);
}

TEST_F(MediumTest, SignalZeroWhenPoweredOff) {
  NodeId a = add_static_node("a", {0, 0});
  NodeId b = add_static_node("b", {1, 0});
  medium_.add_adapter(a, bluetooth_2_0());
  Adapter& radio_b = medium_.add_adapter(b, bluetooth_2_0());
  radio_b.set_powered(false);
  EXPECT_DOUBLE_EQ(medium_.signal(a, b, bluetooth_2_0()), 0.0);
}

TEST_F(MediumTest, SignalToSelfIsZero) {
  NodeId a = add_static_node("a", {0, 0});
  medium_.add_adapter(a, bluetooth_2_0());
  EXPECT_DOUBLE_EQ(medium_.signal(a, a, bluetooth_2_0()), 0.0);
}

TEST_F(MediumTest, GatewayTechIgnoresDistance) {
  NodeId a = add_static_node("a", {0, 0});
  NodeId b = add_static_node("b", {100000.0, 0});
  medium_.add_adapter(a, gprs());
  medium_.add_adapter(b, gprs());
  EXPECT_DOUBLE_EQ(medium_.signal(a, b, gprs()), 1.0);
  EXPECT_TRUE(medium_.reachable(a, b, gprs()));
}

TEST_F(MediumTest, NodesInRangeFiltersByDistanceAndPower) {
  NodeId a = add_static_node("a", {0, 0});
  NodeId close1 = add_static_node("c1", {3, 0});
  NodeId close2 = add_static_node("c2", {0, 4});
  NodeId far = add_static_node("far", {50, 0});
  NodeId off = add_static_node("off", {1, 1});
  medium_.add_adapter(a, bluetooth_2_0());
  medium_.add_adapter(close1, bluetooth_2_0());
  medium_.add_adapter(close2, bluetooth_2_0());
  medium_.add_adapter(far, bluetooth_2_0());
  medium_.add_adapter(off, bluetooth_2_0()).set_powered(false);
  auto in_range = medium_.nodes_in_range(a, bluetooth_2_0());
  EXPECT_EQ(in_range, (std::vector<NodeId>{close1, close2}));
}

TEST_F(MediumTest, MovingNodeLeavesRange) {
  NodeId a = add_static_node("a", {0, 0});
  // Walks east at 1 m/s: in BT range until t=10 s.
  NodeId walker = medium_.add_node(
      "walker", std::make_unique<sim::LinearMobility>(sim::Vec2{0, 0},
                                                      sim::Vec2{1.0, 0.0}));
  medium_.add_adapter(a, bluetooth_2_0());
  medium_.add_adapter(walker, bluetooth_2_0());
  simulator_.run_until(sim::seconds(5));
  EXPECT_TRUE(medium_.reachable(a, walker, bluetooth_2_0()));
  simulator_.run_until(sim::seconds(11));
  EXPECT_FALSE(medium_.reachable(a, walker, bluetooth_2_0()));
}

// --- link accounting ---------------------------------------------------

class MediumLinkAccountingTest : public MediumTest {
 protected:
  void SetUp() override {
    TechProfile bt = bluetooth_2_0();
    bt.frame_loss = 0.0;
    a_ = add_static_node("a", {0, 0});
    b_ = add_static_node("b", {2, 0});
    radio_a_ = &medium_.add_adapter(a_, bt);
    radio_b_ = &medium_.add_adapter(b_, bt);
    radio_b_->listen(5, [](transport::Channel) {});
  }

  transport::Channel connect() {
    transport::Channel client;
    radio_a_->connect(b_, 5, [&](Result<transport::Channel> link) {
      ASSERT_TRUE(link.ok()) << link.error().to_string();
      client = *link;
    });
    simulator_.run_until(simulator_.now() + sim::seconds(2));
    EXPECT_TRUE(client.valid());
    return client;
  }

  NodeId a_ = 0, b_ = 0;
  Adapter* radio_a_ = nullptr;
  Adapter* radio_b_ = nullptr;
};

TEST_F(MediumLinkAccountingTest, OpenLinkCountTracksBothEndpoints) {
  EXPECT_EQ(medium_.open_link_count(a_, Technology::bluetooth), 0u);
  transport::Channel link = connect();
  EXPECT_EQ(medium_.open_link_count(a_, Technology::bluetooth), 1u);
  EXPECT_EQ(medium_.open_link_count(b_, Technology::bluetooth), 1u);
  EXPECT_EQ(medium_.open_link_count(a_, Technology::wlan), 0u);
}

TEST_F(MediumLinkAccountingTest, CapacityFreesAtCloseInitiation) {
  transport::Channel link = connect();
  // close() only *schedules* the teardown, but a closing link no longer
  // occupies piconet capacity — the count must drop before the close
  // completes, matching the semantics a new connect() relies on.
  link.close();
  EXPECT_EQ(medium_.open_link_count(a_, Technology::bluetooth), 0u);
  EXPECT_EQ(medium_.open_link_count(b_, Technology::bluetooth), 0u);
  simulator_.run_all();
  EXPECT_FALSE(link.open());
  EXPECT_EQ(medium_.open_link_count(a_, Technology::bluetooth), 0u);
}

TEST_F(MediumLinkAccountingTest, CountDropsWhenPowerOffBreaksLinks) {
  transport::Channel link = connect();
  radio_b_->set_powered(false);  // breaks the link immediately
  EXPECT_FALSE(link.open());
  EXPECT_EQ(medium_.open_link_count(a_, Technology::bluetooth), 0u);
  EXPECT_EQ(medium_.open_link_count(b_, Technology::bluetooth), 0u);
}

TEST_F(MediumLinkAccountingTest, BreakAfterCloseInitiationDoesNotDoubleFree) {
  transport::Channel first = connect();
  first.close();
  // The link is closing but not yet dead; a power-off now takes the break
  // path. The count already dropped at close initiation and must not go
  // negative / wrap for later links.
  radio_a_->set_powered(false);
  simulator_.run_all();
  radio_a_->set_powered(true);
  transport::Channel second = connect();
  EXPECT_EQ(medium_.open_link_count(a_, Technology::bluetooth), 1u);
  EXPECT_EQ(medium_.open_link_count(b_, Technology::bluetooth), 1u);
}

TEST_F(MediumLinkAccountingTest, TrackedLinksStayBoundedUnderChurn) {
  // The regression this guards: links_ grew one weak_ptr per link ever
  // opened. 200 open/close cycles must leave the registry near-empty, not
  // 200 entries long.
  for (int i = 0; i < 200; ++i) {
    transport::Channel link = connect();
    link.close();
    simulator_.run_all();
  }
  EXPECT_LT(medium_.tracked_link_count(), 64u);
  EXPECT_GT(medium_.stats().counter("links_compacted"), 0u);
  EXPECT_EQ(medium_.open_link_count(a_, Technology::bluetooth), 0u);
}

}  // namespace
}  // namespace ph::net
