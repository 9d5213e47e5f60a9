// Figures 2 & 5 — dynamic group formation latency vs neighbourhood size.
//
// From a cold start (all daemons power on at t=0), how long until the
// central user's interest group contains ALL matching neighbours? Sweeps
// the neighbourhood from 1 to 16 devices over Bluetooth and WLAN.
// Expected shape: Bluetooth sits on the 10.24 s inquiry plus a probe tail
// that grows mildly with neighbourhood size (fan-out probing is
// concurrent); WLAN is an order of magnitude faster.
//
// Set PH_METRICS_JSON=/path/out.json to dump the
// aggregated per-layer counters from every sweep point at exit.
#include <cstdio>

#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "bench/community_fixture.hpp"
#include "obs/export.hpp"

using namespace ph;

namespace {

double formation_seconds(const net::TechProfile& radio, int neighbours,
                         std::uint64_t seed, obs::Registry& metrics) {
  std::vector<std::string> names;
  for (int i = 0; i < neighbours; ++i) names.push_back("p" + std::to_string(i));

  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(seed));
  std::vector<std::unique_ptr<bench::CommunityWorld::Device>> devices;

  auto add = [&](const std::string& member, sim::Vec2 pos) {
    auto device = std::make_unique<bench::CommunityWorld::Device>();
    peerhood::StackConfig config;
    config.device_name = member + "-ptd";
    net::TechProfile p = radio;
    p.inquiry_detect_prob = 1.0;
    config.radios = {p};
    config.autostart = false;
    device->stack = std::make_unique<peerhood::Stack>(
        medium, std::make_unique<sim::StaticMobility>(pos), config);
    device->app = std::make_unique<community::CommunityApp>(*device->stack);
    auto account = device->app->create_account(member, "pw");
    PH_CHECK(account.ok());
    (*account)->add_interest("football");
    PH_CHECK(device->app->login(member, "pw").ok());
    devices.push_back(std::move(device));
  };

  add("centre", {0, 0});
  for (int i = 0; i < neighbours; ++i) {
    const double angle = 2.0 * 3.14159265 * i / neighbours;
    add(names[i], {4.0 * std::cos(angle), 4.0 * std::sin(angle)});
  }
  for (auto& device : devices) (void)device->stack->daemon().start();

  auto& centre = *devices.front();
  const sim::Time start = simulator.now();
  while (true) {
    auto group = centre.app->groups().group("football");
    if (group.ok() &&
        group->members.size() == static_cast<std::size_t>(neighbours) + 1) {
      break;
    }
    simulator.run_for(sim::milliseconds(50));
    PH_CHECK_MSG(simulator.now() < sim::minutes(10), "group never completed");
  }
  const double seconds = sim::to_seconds(simulator.now() - start);
  metrics.merge_from(medium.registry());
  return seconds;
}

}  // namespace

int main() {
  obs::Registry metrics;
  std::printf("Figures 2/5: time (s) from cold start until the central\n");
  std::printf("user's group contains every matching neighbour\n\n");
  std::printf("%-14s %14s %14s\n", "neighbours", "Bluetooth", "WLAN 802.11b");
  for (int n : {1, 2, 4, 8, 12, 16}) {
    const double bt = formation_seconds(net::bluetooth_2_0(), n, 40 + n, metrics);
    const double wlan =
        formation_seconds(net::wlan_80211b(), n, 40 + n, metrics);
    std::printf("%-14d %14.2f %14.2f\n", n, bt, wlan);
  }
  std::printf("\nExpected shape: Bluetooth ~12-17 s — the 10.24 s inquiry\n"
              "dominates, with mild growth from piconet link-capacity\n"
              "contention as the crowd densifies. WLAN is sub-second: push\n"
              "service announcements + fast broadcast discovery.\n");
  obs::dump_if_requested(metrics);
  return 0;
}
