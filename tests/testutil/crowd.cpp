#include "tests/testutil/crowd.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "community/app.hpp"
#include "net/medium.hpp"
#include "peerhood/stack.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"

namespace ph::testutil {

std::ostream& operator<<(std::ostream& out, const CrowdCounts& c) {
  return out << "{events=" << c.events << " datagrams_sent=" << c.datagrams_sent
             << " datagrams_lost=" << c.datagrams_lost
             << " signal_evals=" << c.signal_evals
             << " signal_cache_hits=" << c.signal_cache_hits
             << " comparisons=" << c.comparisons
             << " group_events=" << c.group_events << "}";
}

CrowdCounts run_crowd(int devices, sim::Duration duration, std::uint64_t seed,
                      CrowdQueueStorage* storage) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(seed));
  sim::Rng mobility(seed * 17 + 3);
  // Constant density: the 40-device baseline covers 60 x 60 m.
  const double field = 60.0 * std::sqrt(static_cast<double>(devices) / 40.0);
  const std::vector<std::string> topics = {"music", "sports", "films",
                                           "coffee", "code"};
  struct Device {
    std::unique_ptr<peerhood::Stack> stack;
    std::unique_ptr<community::CommunityApp> app;
  };
  std::vector<Device> crowd;
  crowd.reserve(static_cast<std::size_t>(devices));
  for (int i = 0; i < devices; ++i) {
    sim::RandomWaypoint::Config walk;
    walk.area_min = {0, 0};
    walk.area_max = {field, field};
    walk.speed_min_mps = 0.5;
    walk.speed_max_mps = 2.0;
    Device device;
    device.stack = std::make_unique<peerhood::Stack>(
        medium,
        peerhood::StackConfig{}
            .with_name("n" + std::to_string(i))
            .with_radios({net::bluetooth_2_0()}),
        std::make_unique<sim::RandomWaypoint>(walk, mobility.fork()));
    device.app = std::make_unique<community::CommunityApp>(*device.stack);
    const std::string member = "m" + std::to_string(i);
    auto account = device.app->create_account(member, "pw");
    if (account.ok()) {
      // Two topics per member, rotating, so pairs share interests
      // sometimes.
      (*account)->add_interest(topics[i % topics.size()]);
      (*account)->add_interest(topics[(i + 2) % topics.size()]);
      (void)device.app->login(member, "pw");
    }
    crowd.push_back(std::move(device));
  }

  for (sim::Duration t = 0; t < duration; t += sim::seconds(1)) {
    simulator.run_for(sim::seconds(1));
  }

  if (storage != nullptr) {
    storage->peak_stored = simulator.queue().peak_stored();
    storage->block_key_capacity = simulator.queue().block_key_capacity();
  }
  CrowdCounts counts;
  counts.events = simulator.events_executed();
  const obs::Snapshot net = medium.stats();
  counts.datagrams_sent = net.counter("datagrams_sent");
  counts.datagrams_lost = net.counter("datagrams_lost");
  counts.signal_evals = net.counter("signal_evals");
  counts.signal_cache_hits = net.counter("signal_cache.hits");
  for (Device& device : crowd) {
    if (!device.app->logged_in()) continue;
    const obs::Snapshot groups = device.app->groups().stats();
    counts.comparisons += groups.counter("comparisons");
    counts.group_events +=
        groups.counter("groups_formed") + groups.counter("groups_dissolved");
  }
  return counts;
}

}  // namespace ph::testutil
