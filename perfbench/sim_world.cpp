#include "sim_world.hpp"

#include "community/app.hpp"
#include "net/medium.hpp"
#include "peerhood/stack.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

Steps run_steps(ph::sim::Simulator& simulator, int seconds, Tracer& tracer,
                std::uint64_t rep, Clock::time_point deadline) {
  Steps out;
  out.us.reserve(static_cast<std::size_t>(seconds));
  const std::uint64_t allocs_before = allocations();
  const auto start = Clock::now();
  for (int step = 0; step < seconds; ++step) {
    const auto t0 = Clock::now();
    {
      const Tracer::Scope span(tracer, "sim.run_for", rep);
      simulator.run_for(ph::sim::seconds(1));
    }
    const auto t1 = Clock::now();
    out.us.push_back(seconds_between(t0, t1) * 1e6);
    if (t1 > deadline) {
      out.finished = false;
      break;
    }
  }
  out.wall_s = seconds_between(start, Clock::now());
  out.allocs = allocations() - allocs_before;
  return out;
}

WorldCounts::WorldCounts(const ph::sim::Simulator& simulator,
                         const ph::net::Medium& medium)
    : events(simulator.events_executed()),
      cancelled_pending(simulator.cancelled_pending()),
      medium(medium.stats()) {}

void WorldCounts::add_device(ph::peerhood::Stack& stack,
                             ph::community::CommunityApp& app) {
  const ph::obs::Snapshot groups = app.groups().stats();
  group_events +=
      groups.counter("groups_formed") + groups.counter("groups_dissolved");
  comparisons += groups.counter("comparisons");
  const ph::obs::Snapshot daemon = stack.daemon().stats();
  pings += daemon.counter("pings_sent");
  service_queries += daemon.counter("service_queries");
  inquiries += daemon.counter("inquiries_started");
}

void report_world(Result& result, const WorldCounts& world, int devices,
                  double virtual_s, std::uint64_t events, double busy_s) {
  const auto count = [&](const char* name, double value) {
    result.layer(name, value, "count");
  };
  const auto medium = [&](const char* name) {
    return static_cast<double>(world.medium.counter(name));
  };
  count("sim.events", static_cast<double>(world.events));
  result.layer("sim.events_per_s", ratio(static_cast<double>(events), busy_s),
               "1/s");
  count("sim.cancelled_pending", static_cast<double>(world.cancelled_pending));
  count("net.signal_evals", medium("signal_evals"));
  count("net.spatial.pairs_pruned", medium("spatial.pairs_pruned"));
  const double hits = medium("position_cache.hits");
  result.layer("net.position_cache.hit_ratio",
               ratio(hits, hits + medium("position_cache.misses")), "ratio");
  count("net.signal_cache.hits", medium("signal_cache.hits"));
  count("net.datagrams_sent", medium("datagrams_sent"));
  count("net.datagrams_lost", medium("datagrams_lost"));
  const double device_min = devices * virtual_s / 60.0;
  result.layer("peerhood.pings_per_device_min",
               static_cast<double>(world.pings) / device_min, "1/min");
  result.layer("peerhood.service_queries_per_device_min",
               static_cast<double>(world.service_queries) / device_min,
               "1/min");
  result.layer("peerhood.inquiries_per_device_min",
               static_cast<double>(world.inquiries) / device_min, "1/min");
  count("community.comparisons", static_cast<double>(world.comparisons));
  count("community.group_events", static_cast<double>(world.group_events));
}

}  // namespace perfbench
