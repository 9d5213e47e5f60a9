// Bus ride — the thesis' "mobile community" scenario (§5.1: "in mobile
// community like in bus or airplane while travelling") plus seamless
// connectivity (Table 3).
//
// A commuter bus drives along a road. Passengers on board form an
// "instantaneous social network": their devices stay in mutual Bluetooth
// range because they move together. A cyclist rides alongside for a while
// — she joins the groups while pacing the bus and drops out when it pulls
// away. Meanwhile two passengers run a large trusted file transfer that
// survives a mid-ride Bluetooth outage by failing over to WLAN.
#include <cstdio>
#include <memory>
#include <vector>

#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "community/app.hpp"
#include "util/check.hpp"

using namespace ph;

namespace {

struct Rider {
  std::string name;
  std::unique_ptr<peerhood::Stack> stack;
  std::unique_ptr<community::CommunityApp> app;
};

}  // namespace

int main() {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(404));

  std::vector<std::unique_ptr<Rider>> riders;
  auto board = [&](const std::string& name, std::vector<std::string> interests,
                   std::unique_ptr<sim::MobilityModel> mobility,
                   std::vector<net::TechProfile> radios) {
    auto rider = std::make_unique<Rider>();
    rider->name = name;
    peerhood::StackConfig config;
    config.device_name = name + "-ptd";
    config.radios = std::move(radios);
    rider->stack = std::make_unique<peerhood::Stack>(medium,
                                                     std::move(mobility),
                                                     config);
    rider->app = std::make_unique<community::CommunityApp>(*rider->stack);
    PH_CHECK(rider->app->create_account(name, "pw").ok());
    PH_CHECK(rider->app->login(name, "pw").ok());
    for (const auto& interest : interests) {
      PH_CHECK(rider->app->add_interest(interest).ok());
    }
    riders.push_back(std::move(rider));
    return riders.back().get();
  };

  // The bus drives east at 10 m/s; passengers share its motion with small
  // seat offsets.
  const sim::Vec2 bus_velocity{10.0, 0.0};
  auto seat = [&](double dx, double dy) {
    return std::make_unique<sim::LinearMobility>(sim::Vec2{dx, dy}, bus_velocity);
  };
  Rider* anna = board("anna", {"podcasts", "hiking"}, seat(0, 0),
                      {net::bluetooth_2_0(), net::wlan_80211b()});
  Rider* ben = board("ben", {"podcasts", "football"}, seat(2, 1),
                     {net::bluetooth_2_0(), net::wlan_80211b()});
  board("carla", {"hiking", "knitting"}, seat(4, 0), {net::bluetooth_2_0()});

  // A cyclist pacing the bus at the same speed for the first 60 s, then
  // falling behind (8 m/s).
  board("dara", {"podcasts", "cycling"},
        std::make_unique<sim::WaypointMobility>(
            std::vector<sim::WaypointMobility::Waypoint>{
                {sim::seconds(0), {-3, 2}},
                {sim::seconds(60), {-3 + 600, 2}},     // pacing: 10 m/s
                {sim::seconds(120), {-3 + 600 + 480, 2}}}),  // 8 m/s: drops back
        {net::bluetooth_2_0()});

  // Everyone discovers everyone (same reference frame => stable ranges).
  simulator.run_for(sim::seconds(20));
  std::printf("[t=%.0fs] anna's groups:", sim::to_seconds(simulator.now()));
  for (const auto& group : anna->app->groups().formed_groups()) {
    std::printf(" %s(%zu)", group.interest.c_str(), group.members.size());
  }
  std::printf("\n");
  PH_CHECK(anna->app->groups().group("podcasts")->members.contains("dara"));
  std::printf("         the cyclist dara is in the podcasts group while pacing the bus\n");

  // Anna shares a podcast episode with Ben (trusted-only file transfer).
  PH_CHECK(anna->app->add_trusted("ben").ok());
  Bytes episode(600'000);
  for (std::size_t i = 0; i < episode.size(); ++i) {
    episode[i] = static_cast<std::uint8_t>(i * 131);
  }
  PH_CHECK(anna->app->share_file("episode42.mp3", episode).ok());

  Bytes downloaded;
  bool transfer_done = false;
  ben->app->client().fetch_content("anna", "episode42.mp3",
                                   [&](Result<Bytes> content) {
                                     PH_CHECK(content.ok());
                                     downloaded = std::move(*content);
                                     transfer_done = true;
                                   });
  // Mid-transfer, anna's Bluetooth radio dies (battery saver kicks in).
  // The seamless session fails over to WLAN and the download completes.
  simulator.run_for(sim::seconds(2));
  std::printf("[t=%.0fs] anna's Bluetooth drops mid-transfer...\n",
              sim::to_seconds(simulator.now()));
  PH_CHECK_MSG(
      anna->stack->set_radio_powered(net::Technology::bluetooth, false).ok(),
      "anna's Bluetooth radio could not be switched off");
  while (!transfer_done) simulator.run_for(sim::milliseconds(200));
  PH_CHECK(downloaded == episode);
  std::printf("[t=%.0fs] ben received episode42.mp3 intact (%zu bytes) — "
              "session resumed over WLAN\n",
              sim::to_seconds(simulator.now()), downloaded.size());
  PH_CHECK_MSG(
      anna->stack->set_radio_powered(net::Technology::bluetooth, true).ok(),
      "anna's Bluetooth radio could not be switched back on");

  // Ride on: the cyclist falls behind and leaves the groups.
  while (anna->app->groups().group("podcasts")->members.contains("dara")) {
    simulator.run_for(sim::seconds(2));
  }
  std::printf("[t=%.0fs] dara fell behind the bus — podcasts group is now:",
              sim::to_seconds(simulator.now()));
  const auto podcasts = anna->app->groups().group("podcasts");
  for (const auto& member : podcasts->members) {
    std::printf(" %s", member.c_str());
  }
  std::printf("\n");

  // The on-board community remains intact despite all the road mobility.
  PH_CHECK(anna->app->groups().group("podcasts")->members.contains("ben"));
  PH_CHECK(anna->app->groups().group("hiking")->members.contains("carla"));
  std::printf("[t=%.0fs] on-board community intact: moving together keeps "
              "the instantaneous social network alive\n",
              sim::to_seconds(simulator.now()));
  return 0;
}
