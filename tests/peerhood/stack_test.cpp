#include "net/medium.hpp"
#include "peerhood/stack.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace ph::peerhood {
namespace {

class StackTest : public ::testing::Test {
 protected:
  StackTest() : medium_(simulator_, sim::Rng(80)) {}

  sim::Simulator simulator_;
  net::Medium medium_;
};

TEST_F(StackTest, DefaultConfigIsBluetoothOnly) {
  Stack stack(medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
              {});
  ASSERT_EQ(stack.daemon().plugins().size(), 1u);
  EXPECT_EQ(stack.daemon().plugins()[0]->name(), "BTPlugin");
  EXPECT_TRUE(stack.daemon().running());  // autostart default
}

TEST_F(StackTest, MultiRadioConfigCreatesOnePluginEach) {
  StackConfig config;
  config.radios = {net::bluetooth_2_0(), net::wlan_80211b(), net::gprs()};
  Stack stack(medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
              config);
  ASSERT_EQ(stack.daemon().plugins().size(), 3u);
  EXPECT_NE(stack.daemon().plugin_for(net::Technology::bluetooth), nullptr);
  EXPECT_NE(stack.daemon().plugin_for(net::Technology::wlan), nullptr);
  EXPECT_NE(stack.daemon().plugin_for(net::Technology::gprs), nullptr);
  // The node carries matching adapters in the world.
  EXPECT_NE(medium_.adapter(stack.id(), net::Technology::wlan), nullptr);
}

TEST_F(StackTest, NamePropagatesEverywhere) {
  StackConfig config;
  config.device_name = "my-laptop";
  Stack stack(medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
              config);
  EXPECT_EQ(stack.name(), "my-laptop");
  EXPECT_EQ(medium_.node_name(stack.id()), "my-laptop");
  EXPECT_EQ(stack.daemon().device_name(), "my-laptop");
}

TEST_F(StackTest, AutostartFalseLeavesDaemonStopped) {
  StackConfig config;
  config.autostart = false;
  Stack stack(medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
              config);
  EXPECT_FALSE(stack.daemon().running());
  (void)stack.daemon().start();
  EXPECT_TRUE(stack.daemon().running());
}

TEST_F(StackTest, SetRadioPoweredTogglesAdapter) {
  Stack stack(medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
              {});
  net::Adapter* adapter = medium_.adapter(stack.id(), net::Technology::bluetooth);
  ASSERT_NE(adapter, nullptr);
  EXPECT_TRUE(adapter->powered());
  ASSERT_TRUE(stack.set_radio_powered(net::Technology::bluetooth, false).ok());
  EXPECT_FALSE(adapter->powered());
  ASSERT_TRUE(stack.set_radio_powered(net::Technology::bluetooth, true).ok());
  EXPECT_TRUE(adapter->powered());
}

TEST_F(StackTest, PoweringUnknownTechnologyIsNoop) {
  Stack stack(medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
              {});
  const Result<void> result =
      stack.set_radio_powered(net::Technology::gprs, false);  // no GPRS radio
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().code, Errc::not_supported);
}

TEST_F(StackTest, PoweringMissingRadioReportsNotSupported) {
  // Two devices on one shared transport: the lookup is per device, so the
  // neighbour's GPRS radio does not satisfy this device's request.
  Stack phone(medium_, StackConfig{}.with_name("phone"));
  Stack modem(medium_, StackConfig{}.with_name("modem").with_radios(
                           {net::bluetooth_2_0(), net::gprs()}));
  const Result<void> result =
      phone.set_radio_powered(net::Technology::gprs, false);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().code, Errc::not_supported);
  EXPECT_TRUE(modem.set_radio_powered(net::Technology::gprs, false));
  EXPECT_FALSE(medium_.adapter(modem.id(), net::Technology::gprs)->powered());
}

TEST_F(StackTest, ShorthandStacksShareTheMediumAsTheirTransport) {
  Stack a(medium_, nullptr, StackConfig{}.with_name("a"));
  Stack b(medium_, nullptr, StackConfig{}.with_name("b"));
  EXPECT_EQ(&a.transport(), &b.transport());
  EXPECT_EQ(&a.transport(), static_cast<transport::Transport*>(&medium_));
}

TEST_F(StackTest, DaemonConfigPassedThrough) {
  StackConfig config;
  config.daemon.ping_interval = sim::seconds(42);
  config.daemon.max_missed_pings = 9;
  Stack stack(medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
              config);
  EXPECT_EQ(stack.daemon().config().ping_interval, sim::seconds(42));
  EXPECT_EQ(stack.daemon().config().max_missed_pings, 9);
}

}  // namespace
}  // namespace ph::peerhood
