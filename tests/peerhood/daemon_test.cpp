#include "net/medium.hpp"
#include "peerhood/daemon.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "peerhood/stack.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace ph::peerhood {
namespace {

using testutil::run_until;

net::TechProfile deterministic_bt() {
  net::TechProfile p = net::bluetooth_2_0();
  p.frame_loss = 0.0;
  p.inquiry_detect_prob = 1.0;
  return p;
}

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() : medium_(simulator_, sim::Rng(5)) {}

  Stack& add_device(const std::string& name, sim::Vec2 pos,
                    bool autostart = true) {
    StackConfig config;
    config.device_name = name;
    config.radios = {deterministic_bt()};
    config.autostart = autostart;
    stacks_.push_back(std::make_unique<Stack>(
        medium_, std::make_unique<sim::StaticMobility>(pos), config));
    return *stacks_.back();
  }

  Stack& add_moving_device(const std::string& name, sim::Vec2 origin,
                           sim::Vec2 velocity) {
    StackConfig config;
    config.device_name = name;
    config.radios = {deterministic_bt()};
    stacks_.push_back(std::make_unique<Stack>(
        medium_, std::make_unique<sim::LinearMobility>(origin, velocity),
        config));
    return *stacks_.back();
  }

  sim::Simulator simulator_;
  net::Medium medium_;
  std::vector<std::unique_ptr<Stack>> stacks_;
};

TEST_F(DaemonTest, DiscoversNeighbourAfterInquiry) {
  Stack& a = add_device("a", {0, 0});
  Stack& b = add_device("b", {3, 0});
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().devices().empty(); },
      sim::seconds(15)));
  auto devices = a.daemon().devices();
  ASSERT_EQ(devices.size(), 1u);
  EXPECT_EQ(devices[0].id, b.id());
  EXPECT_EQ(devices[0].name, "b");
  EXPECT_TRUE(devices[0].has_technology(net::Technology::bluetooth));
}

TEST_F(DaemonTest, DiscoveryIsMutual) {
  Stack& a = add_device("a", {0, 0});
  Stack& b = add_device("b", {3, 0});
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        return !a.daemon().devices().empty() && !b.daemon().devices().empty();
      },
      sim::seconds(15)));
  EXPECT_EQ(b.daemon().devices()[0].id, a.id());
}

TEST_F(DaemonTest, OutOfRangeDeviceNotDiscovered) {
  Stack& a = add_device("a", {0, 0});
  add_device("far", {100, 0});
  simulator_.run_until(sim::seconds(30));
  EXPECT_TRUE(a.daemon().devices().empty());
}

TEST_F(DaemonTest, ServiceDiscoveryTransfersServiceList) {
  Stack& a = add_device("a", {0, 0});
  Stack& b = add_device("b", {3, 0});
  ASSERT_TRUE(b.daemon()
                  .register_service({"PeerHoodCommunity", 1000, {}})
                  .ok());
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().devices().empty(); },
      sim::seconds(15)));
  auto device = a.daemon().device(b.id());
  ASSERT_TRUE(device.ok());
  ASSERT_EQ(device->services.size(), 1u);
  EXPECT_EQ(device->services[0].name, "PeerHoodCommunity");
  EXPECT_EQ(device->services[0].port, 1000);
}

TEST_F(DaemonTest, FindServiceLocatesAdvertisingDevices) {
  Stack& a = add_device("a", {0, 0});
  Stack& b = add_device("b", {3, 0});
  Stack& c = add_device("c", {0, 3});
  ASSERT_TRUE(b.daemon().register_service({"ChatService", 1000, {}}).ok());
  ASSERT_TRUE(c.daemon().register_service({"ChatService", 1000, {}}).ok());
  ASSERT_TRUE(run_until(
      simulator_, [&] { return a.daemon().devices().size() == 2; },
      sim::seconds(20)));
  auto found = a.daemon().find_service("ChatService");
  EXPECT_EQ(found.size(), 2u);
  EXPECT_TRUE(a.daemon().find_service("NoSuchService").empty());
}

TEST_F(DaemonTest, RegisterServiceRejectsDuplicates) {
  Stack& a = add_device("a", {0, 0});
  EXPECT_TRUE(a.daemon().register_service({"S", 1, {}}).ok());
  auto second = a.daemon().register_service({"S", 2, {}});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, Errc::service_already_registered);
}

TEST_F(DaemonTest, RegisterServiceRejectsEmptyName) {
  Stack& a = add_device("a", {0, 0});
  auto result = a.daemon().register_service({"", 1, {}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::invalid_argument);
}

TEST_F(DaemonTest, UpdateServiceAttributesPropagatesToNeighbours) {
  Stack& a = add_device("a", {0, 0});
  Stack& b = add_device("b", {3, 0});
  ASSERT_TRUE(b.daemon()
                  .register_service({"S", 1000, {{"state", "old"}}})
                  .ok());
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().find_service("S").empty(); },
      sim::seconds(20)));
  ASSERT_TRUE(
      b.daemon().update_service_attributes("S", {{"state", "new"}}).ok());
  // The next service refresh (inquiry cycle) carries the new attributes.
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        auto found = a.daemon().find_service("S");
        return !found.empty() &&
               found[0].second.attributes.at("state") == "new";
      },
      sim::minutes(1)));
}

TEST_F(DaemonTest, UpdateAttributesOfUnknownServiceFails) {
  Stack& a = add_device("a", {0, 0});
  auto result = a.daemon().update_service_attributes("Nope", {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::service_not_found);
}

TEST_F(DaemonTest, AttributeChangeFiresOnUpdate) {
  Stack& a = add_device("a", {0, 0});
  Stack& b = add_device("b", {3, 0});
  ASSERT_TRUE(b.daemon().register_service({"S", 1000, {{"k", "1"}}}).ok());
  int updates = 0;
  a.daemon().monitor_device(b.id(), [&](const NeighbourEvent& event) {
    if (event.kind == NeighbourEvent::Kind::updated) ++updates;
  });
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().find_service("S").empty(); },
      sim::seconds(20)));
  const int before = updates;
  ASSERT_TRUE(b.daemon().update_service_attributes("S", {{"k", "2"}}).ok());
  ASSERT_TRUE(run_until(
      simulator_, [&] { return updates > before; }, sim::minutes(1)));
}

TEST_F(DaemonTest, WlanPushAnnouncementSkipsTheScanWait) {
  // On broadcast-capable radios, a newly registered service is announced
  // immediately — neighbours learn of it in milliseconds instead of at the
  // next discovery cycle (compare Table 3's 30 s "Service Sharing" row on
  // Bluetooth).
  StackConfig config;
  config.radios = {net::wlan_80211b()};
  config.device_name = "wa";
  stacks_.push_back(std::make_unique<Stack>(
      medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}), config));
  Stack& a = *stacks_.back();
  config.device_name = "wb";
  stacks_.push_back(std::make_unique<Stack>(
      medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{3, 0}), config));
  Stack& b = *stacks_.back();
  ASSERT_TRUE(run_until(
      simulator_, [&] { return a.daemon().device(b.id()).ok(); },
      sim::seconds(5)));
  const sim::Time registered_at = simulator_.now();
  ASSERT_TRUE(b.daemon().register_service({"LateService", 1500, {}}).ok());
  ASSERT_TRUE(run_until(
      simulator_,
      [&] { return !a.daemon().find_service("LateService").empty(); },
      sim::seconds(5)));
  // Far below the 20 s inquiry interval: the broadcast did it.
  EXPECT_LT(simulator_.now() - registered_at, sim::seconds(1));
  EXPECT_GT(b.daemon().stats().counter("announcements_sent"), 0u);
}

TEST_F(DaemonTest, BluetoothHasNoPushAnnouncements) {
  Stack& a = add_device("a", {0, 0});
  (void)a;
  ASSERT_TRUE(a.daemon().register_service({"S", 1, {}}).ok());
  EXPECT_EQ(a.daemon().stats().counter("announcements_sent"), 0u);
}

TEST_F(DaemonTest, UnregisterServiceRemovesIt) {
  Stack& a = add_device("a", {0, 0});
  ASSERT_TRUE(a.daemon().register_service({"S", 1, {}}).ok());
  EXPECT_TRUE(a.daemon().unregister_service("S").ok());
  EXPECT_TRUE(a.daemon().local_services().empty());
  auto again = a.daemon().unregister_service("S");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, Errc::service_not_found);
}

TEST_F(DaemonTest, MonitorAllFiresOnAppear) {
  Stack& a = add_device("a", {0, 0});
  add_device("b", {3, 0});
  std::vector<std::string> appeared;
  a.daemon().monitor_all([&](const NeighbourEvent& event) {
    if (event.kind == NeighbourEvent::Kind::appeared) {
      appeared.push_back(event.device.name);
    }
  });
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !appeared.empty(); }, sim::seconds(15)));
  EXPECT_EQ(appeared, (std::vector<std::string>{"b"}));
}

TEST_F(DaemonTest, MonitorDeviceFiltersOtherDevices) {
  Stack& a = add_device("a", {0, 0});
  Stack& b = add_device("b", {3, 0});
  Stack& c = add_device("c", {0, 3});
  int b_events = 0, any_events = 0;
  a.daemon().monitor_device(b.id(), [&](const NeighbourEvent& event) {
    if (event.kind == NeighbourEvent::Kind::appeared) ++b_events;
  });
  a.daemon().monitor_all([&](const NeighbourEvent& event) {
    if (event.kind == NeighbourEvent::Kind::appeared) ++any_events;
  });
  ASSERT_TRUE(run_until(
      simulator_, [&] { return a.daemon().devices().size() == 2; },
      sim::seconds(20)));
  (void)c;
  EXPECT_EQ(b_events, 1);
  EXPECT_EQ(any_events, 2);
}

TEST_F(DaemonTest, DepartingDeviceDisappears) {
  Stack& a = add_device("a", {0, 0});
  // b stays put through the first inquiry (which ends at ~10.3 s), then
  // walks off and is out of the 10 m range by ~t=25 s.
  StackConfig b_config;
  b_config.device_name = "b";
  b_config.radios = {deterministic_bt()};
  stacks_.push_back(std::make_unique<Stack>(
      medium_,
      std::make_unique<sim::WaypointMobility>(
          std::vector<sim::WaypointMobility::Waypoint>{
              {sim::seconds(0), {0, 1}},
              {sim::seconds(15), {0, 1}},
              {sim::seconds(25), {60, 1}}}),
      b_config));
  Stack& b = *stacks_.back();
  std::vector<DeviceId> gone;
  a.daemon().monitor_all([&](const NeighbourEvent& event) {
    if (event.kind == NeighbourEvent::Kind::disappeared) {
      gone.push_back(event.device.id);
    }
  });
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().devices().empty(); },
      sim::seconds(15)));
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !gone.empty(); }, sim::minutes(1)));
  EXPECT_EQ(gone, (std::vector<DeviceId>{b.id()}));
  EXPECT_TRUE(a.daemon().devices().empty());
}

TEST_F(DaemonTest, ReturningDeviceReappears) {
  Stack& a = add_device("a", {0, 0});
  // In range through the first inquiry (ends ~10.3 s), out of range during
  // the second (~40 s), back for the later rounds.
  StackConfig config;
  config.device_name = "b";
  config.radios = {deterministic_bt()};
  stacks_.push_back(std::make_unique<Stack>(
      medium_,
      std::make_unique<sim::WaypointMobility>(
          std::vector<sim::WaypointMobility::Waypoint>{
              {sim::seconds(0), {2, 0}},
              {sim::seconds(25), {2, 0}},
              {sim::seconds(30), {60, 0}},
              {sim::seconds(55), {60, 0}},
              {sim::seconds(60), {2, 0}}}),
      config));
  int appearances = 0, disappearances = 0;
  a.daemon().monitor_all([&](const NeighbourEvent& event) {
    if (event.kind == NeighbourEvent::Kind::appeared) ++appearances;
    if (event.kind == NeighbourEvent::Kind::disappeared) ++disappearances;
  });
  simulator_.run_until(sim::minutes(2));
  EXPECT_GE(appearances, 2);
  EXPECT_GE(disappearances, 1);
}

TEST_F(DaemonTest, UnmonitorStopsCallbacks) {
  Stack& a = add_device("a", {0, 0});
  add_device("b", {3, 0});
  int events = 0;
  Daemon::MonitorId id = a.daemon().monitor_all(
      [&](const NeighbourEvent&) { ++events; });
  a.daemon().unmonitor(id);
  simulator_.run_until(sim::seconds(20));
  EXPECT_EQ(events, 0);
}

// A notify calls the monitors registered when it began: one registered by
// a handler waits for the next event, and one unregistered by a handler
// (even the running one) still gets the event in progress, then no more.
TEST_F(DaemonTest, MonitorsChangedDuringNotifyKeepSnapshotSemantics) {
  Stack& a = add_device("a", {0, 0});
  add_device("b", {3, 0});
  add_device("c", {0, 3});
  int total = 0, first = 0, removed = 0, added = 0;
  Daemon::MonitorId first_id = 0, removed_id = 0;
  a.daemon().monitor_all([&](const NeighbourEvent&) { ++total; });
  first_id = a.daemon().monitor_all([&](const NeighbourEvent&) {
    ++first;
    a.daemon().unmonitor(first_id);  // itself, while running
    a.daemon().unmonitor(removed_id);
    a.daemon().monitor_all([&](const NeighbourEvent&) { ++added; });
  });
  removed_id = a.daemon().monitor_all([&](const NeighbourEvent&) { ++removed; });
  simulator_.run_until(sim::seconds(20));
  ASSERT_GE(total, 2);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(removed, 1);
  EXPECT_EQ(added, total - 1);
}

TEST_F(DaemonTest, DeviceLookupFailsForUnknown) {
  Stack& a = add_device("a", {0, 0});
  auto result = a.daemon().device(999);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Errc::unknown_device);
}

TEST_F(DaemonTest, StoppedDaemonDoesNotDiscover) {
  Stack& a = add_device("a", {0, 0}, /*autostart=*/false);
  add_device("b", {3, 0});
  simulator_.run_until(sim::seconds(30));
  EXPECT_TRUE(a.daemon().devices().empty());
  EXPECT_FALSE(a.daemon().running());
}

TEST_F(DaemonTest, StartAfterStopResumesDiscovery) {
  Stack& a = add_device("a", {0, 0}, /*autostart=*/false);
  add_device("b", {3, 0});
  simulator_.run_until(sim::seconds(5));
  (void)a.daemon().start();
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().devices().empty(); },
      sim::seconds(15)));
  EXPECT_TRUE(a.daemon().running());
}

TEST_F(DaemonTest, StoppedDaemonStillAnswersQueries) {
  // The control port stays bound even when the local daemon's own loops
  // are stopped — the device remains discoverable by others.
  Stack& a = add_device("a", {0, 0});
  Stack& b = add_device("b", {3, 0}, /*autostart=*/false);
  ASSERT_TRUE(b.daemon().register_service({"S", 1, {}}).ok());
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().devices().empty(); },
      sim::seconds(15)));
  EXPECT_EQ(a.daemon().devices()[0].name, "b");
}

TEST_F(DaemonTest, StatsTrackActivity) {
  Stack& a = add_device("a", {0, 0});
  add_device("b", {3, 0});
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().devices().empty(); },
      sim::seconds(15)));
  simulator_.run_until(sim::seconds(30));
  const obs::Snapshot stats = a.daemon().stats();
  EXPECT_GE(stats.counter("inquiries_started"), 1u);
  EXPECT_GE(stats.counter("service_queries"), 1u);
  EXPECT_GE(stats.counter("service_replies"), 1u);
  EXPECT_EQ(stats.counter("neighbours_appeared"), 1u);
  EXPECT_GT(stats.counter("pings_sent"), 0u);
}

TEST_F(DaemonTest, EntryTtlEvictsSilentNeighbourWithCauseExpired) {
  // Missed-ping eviction is disabled (absurd max), so only the entry_ttl
  // safety net can drop the neighbour once it stops answering.
  StackConfig config;
  config.radios = {deterministic_bt()};
  config.device_name = "a";
  config.daemon.entry_ttl = sim::seconds(30);
  config.daemon.max_missed_pings = 1'000'000;
  stacks_.push_back(std::make_unique<Stack>(
      medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}), config));
  Stack& a = *stacks_.back();
  Stack& b = add_device("b", {3, 0});

  ASSERT_TRUE(run_until(
      simulator_, [&] { return a.daemon().device(b.id()).ok(); },
      sim::seconds(20)));
  std::vector<GoneCause> causes;
  a.daemon().monitor_device(b.id(), [&](const NeighbourEvent& event) {
    if (event.kind == NeighbourEvent::Kind::disappeared) {
      causes.push_back(event.cause);
    }
  });

  const sim::Time silent_at = simulator_.now();
  ASSERT_TRUE(b.set_radio_powered(net::Technology::bluetooth, false).ok());
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !causes.empty(); }, sim::minutes(2)));
  EXPECT_EQ(causes[0], GoneCause::expired);
  EXPECT_TRUE(a.daemon().devices().empty());
  // Evicted roughly one TTL after the last refresh — never sooner, and at
  // most one TTL plus a couple of sweep periods later.
  EXPECT_GE(simulator_.now() - silent_at, sim::seconds(25));
  EXPECT_LE(simulator_.now() - silent_at,
            config.daemon.entry_ttl + 3 * config.daemon.ping_interval);
}

TEST_F(DaemonTest, TriggerDiscoveryShortcutsTheTimer) {
  // With a very long inquiry interval, the second round would normally be
  // far away; trigger_discovery runs one immediately.
  StackConfig config;
  config.device_name = "a";
  config.radios = {deterministic_bt()};
  config.daemon.inquiry_interval = sim::minutes(60);
  stacks_.push_back(std::make_unique<Stack>(
      medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}), config));
  Stack& a = *stacks_.back();
  simulator_.run_until(sim::seconds(15));  // first scan done, nothing found
  EXPECT_TRUE(a.daemon().devices().empty());
  add_device("b", {3, 0});
  a.daemon().trigger_discovery();
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().devices().empty(); },
      sim::seconds(15)));
}

TEST_F(DaemonTest, MultiRadioDeviceDiscoveredOnBothTechnologies) {
  StackConfig config;
  config.device_name = "dual-a";
  config.radios = {deterministic_bt(), net::wlan_80211b()};
  stacks_.push_back(std::make_unique<Stack>(
      medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}), config));
  Stack& a = *stacks_.back();
  config.device_name = "dual-b";
  stacks_.push_back(std::make_unique<Stack>(
      medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{3, 0}), config));
  Stack& b = *stacks_.back();
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        auto device = a.daemon().device(b.id());
        return device.ok() && device->technologies.size() == 2;
      },
      sim::seconds(30)));
  auto device = a.daemon().device(b.id());
  EXPECT_TRUE(device->has_technology(net::Technology::bluetooth));
  EXPECT_TRUE(device->has_technology(net::Technology::wlan));
}

TEST_F(DaemonTest, WlanDiscoveryIsMuchFasterThanBluetooth) {
  StackConfig config;
  config.device_name = "wa";
  config.radios = {net::wlan_80211b()};
  stacks_.push_back(std::make_unique<Stack>(
      medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}), config));
  Stack& a = *stacks_.back();
  config.device_name = "wb";
  stacks_.push_back(std::make_unique<Stack>(
      medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{3, 0}), config));
  // WLAN broadcast discovery + service query completes in ~1 s, far below
  // the 10.24 s Bluetooth inquiry.
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !a.daemon().devices().empty(); },
      sim::seconds(3)));
}

}  // namespace
}  // namespace ph::peerhood
