// Piconet capacity (thesis §2.4.1): a Bluetooth radio carries at most 7
// active links; further connections are refused until one closes.
#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"

namespace ph::net {
namespace {

TechProfile capped_bt() {
  TechProfile p = bluetooth_2_0();
  p.frame_loss = 0.0;
  return p;
}

class PiconetTest : public ::testing::Test {
 protected:
  PiconetTest() : medium_(simulator_, sim::Rng(90)) {
    hub_ = medium_.add_node("hub", std::make_unique<sim::StaticMobility>(
                                       sim::Vec2{0, 0}));
    hub_radio_ = &medium_.add_adapter(hub_, capped_bt());
    hub_radio_->listen(5, [this](transport::Channel link) {
      accepted_.push_back(std::make_shared<transport::Channel>(link));
    });
  }

  NodeId add_spoke(int index) {
    NodeId id = medium_.add_node(
        "spoke" + std::to_string(index),
        std::make_unique<sim::StaticMobility>(
            sim::Vec2{2.0 + 0.1 * index, 0}));
    medium_.add_adapter(id, capped_bt());
    return id;
  }

  /// Connects spoke -> hub; returns the link (invalid on refusal).
  Result<transport::Channel> connect_from(NodeId spoke) {
    Result<transport::Channel> outcome = Error{Errc::timeout, "never completed"};
    medium_.adapter(spoke, Technology::bluetooth)
        ->connect(hub_, 5, [&](Result<transport::Channel> link) { outcome = std::move(link); });
    simulator_.run_for(sim::seconds(2));
    return outcome;
  }

  sim::Simulator simulator_;
  Medium medium_;
  NodeId hub_ = 0;
  Adapter* hub_radio_ = nullptr;
  std::vector<std::shared_ptr<transport::Channel>> accepted_;
};

TEST_F(PiconetTest, SevenLinksFitTheEighthIsRefused) {
  std::vector<transport::Channel> links;
  for (int i = 0; i < 7; ++i) {
    auto link = connect_from(add_spoke(i));
    ASSERT_TRUE(link.ok()) << "link " << i << ": " << link.error().to_string();
    links.push_back(*link);
  }
  EXPECT_EQ(medium_.open_link_count(hub_, Technology::bluetooth), 7u);
  auto eighth = connect_from(add_spoke(7));
  ASSERT_FALSE(eighth.ok());
  EXPECT_EQ(eighth.error().code, Errc::radio_busy);
  EXPECT_NE(eighth.error().message.find("capacity"), std::string::npos);
}

TEST_F(PiconetTest, ClosingALinkFreesCapacity) {
  std::vector<transport::Channel> links;
  for (int i = 0; i < 7; ++i) {
    links.push_back(*connect_from(add_spoke(i)));
  }
  links.front().close();
  simulator_.run_for(sim::seconds(1));
  EXPECT_EQ(medium_.open_link_count(hub_, Technology::bluetooth), 6u);
  EXPECT_TRUE(connect_from(add_spoke(7)).ok());
}

TEST_F(PiconetTest, BreakageAlsoFreesCapacity) {
  std::vector<NodeId> spokes;
  std::vector<transport::Channel> links;
  for (int i = 0; i < 7; ++i) {
    spokes.push_back(add_spoke(i));
    links.push_back(*connect_from(spokes.back()));
  }
  // Spoke 0's radio dies -> its link breaks -> capacity frees.
  medium_.adapter(spokes[0], Technology::bluetooth)->set_powered(false);
  simulator_.run_for(sim::seconds(1));
  EXPECT_TRUE(connect_from(add_spoke(7)).ok());
}

TEST_F(PiconetTest, WlanHasNoLinkCap) {
  sim::Simulator simulator;
  Medium medium(simulator, sim::Rng(91));
  TechProfile wlan = wlan_80211b();
  wlan.frame_loss = 0.0;
  NodeId hub = medium.add_node(
      "hub", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  Adapter& hub_radio = medium.add_adapter(hub, wlan);
  std::vector<std::shared_ptr<transport::Channel>> accepted;
  hub_radio.listen(5, [&](transport::Channel link) {
    accepted.push_back(std::make_shared<transport::Channel>(link));
  });
  int successes = 0;
  for (int i = 0; i < 20; ++i) {
    NodeId spoke = medium.add_node(
        "s" + std::to_string(i),
        std::make_unique<sim::StaticMobility>(sim::Vec2{5, 0}));
    medium.add_adapter(spoke, wlan).connect(hub, 5, [&](Result<transport::Channel> link) {
      if (link.ok()) ++successes;
    });
  }
  simulator.run_for(sim::seconds(2));
  EXPECT_EQ(successes, 20);
}

}  // namespace
}  // namespace ph::net
