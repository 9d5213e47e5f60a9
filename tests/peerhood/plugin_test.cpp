#include "peerhood/plugin.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"

namespace ph::peerhood {
namespace {

class PluginTest : public ::testing::Test {
 protected:
  PluginTest() : medium_(simulator_, sim::Rng(4)) {
    device_ = medium_.add_device(
        "dev", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  }

  /// Installs a radio on the device and wraps its endpoint in a plugin.
  std::unique_ptr<NetworkPlugin> plugin_for(net::TechProfile profile) {
    return make_plugin(medium_.add_endpoint(device_, std::move(profile)));
  }

  sim::Simulator simulator_;
  net::Medium medium_;
  transport::DeviceId device_ = 0;
};

TEST_F(PluginTest, BtPluginIdentity) {
  auto plugin = plugin_for(net::bluetooth_2_0());
  EXPECT_EQ(plugin->name(), "BTPlugin");
  EXPECT_EQ(plugin->technology(), net::Technology::bluetooth);
  EXPECT_EQ(plugin->endpoint().device(), device_);
}

TEST_F(PluginTest, WlanPluginIdentity) {
  auto plugin = plugin_for(net::wlan_80211b());
  EXPECT_EQ(plugin->name(), "WLANPlugin");
  EXPECT_EQ(plugin->technology(), net::Technology::wlan);
}

TEST_F(PluginTest, GprsPluginIdentity) {
  auto plugin = plugin_for(net::gprs());
  EXPECT_EQ(plugin->name(), "GPRSPlugin");
  EXPECT_EQ(plugin->technology(), net::Technology::gprs);
}

TEST_F(PluginTest, PreferenceOrdersFreeTechnologiesFirst) {
  auto bt_plugin = plugin_for(net::bluetooth_2_0());
  auto wlan_plugin = plugin_for(net::wlan_80211b());
  auto gprs_plugin = plugin_for(net::gprs());
  // The thesis prefers cost-free short-range radios over metered GPRS.
  EXPECT_EQ(bt_plugin->preference(), 0);
  EXPECT_EQ(wlan_plugin->preference(), 1);
  EXPECT_EQ(gprs_plugin->preference(), 2);
  EXPECT_LT(bt_plugin->preference(), gprs_plugin->preference());
  EXPECT_LT(wlan_plugin->preference(), gprs_plugin->preference());
}

TEST_F(PluginTest, MakePluginDispatchesOnTechnology) {
  EXPECT_EQ(plugin_for(net::bluetooth_2_0())->name(), "BTPlugin");
  EXPECT_EQ(plugin_for(net::wlan_80211g())->name(), "WLANPlugin");
  EXPECT_EQ(plugin_for(net::gprs())->name(), "GPRSPlugin");
}

TEST_F(PluginTest, ProfilePassesThrough) {
  auto plugin = plugin_for(net::wlan_80211a());
  EXPECT_EQ(plugin->profile().name, "IEEE 802.11a");
  EXPECT_DOUBLE_EQ(plugin->profile().bandwidth_bps, 54e6);
}

}  // namespace
}  // namespace ph::peerhood
