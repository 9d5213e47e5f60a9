// crowd — a random-waypoint crowd running the full stack: 256
// Stack + CommunityApp devices, each logged in with two interests, at the
// constant density of `bench_overlay_scale --field=auto` (the 40-device
// baseline on 60 x 60 m), with telemetry sampling off. The sim kernel, the
// medium (spatial grid, signal memo), PeerHood discovery and pings and
// community matching do the work; obs does almost none, which makes this
// the control for soak. Repetitions as in sim_world.hpp.
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "community/app.hpp"
#include "harness.hpp"
#include "net/medium.hpp"
#include "peerhood/stack.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"
#include "sim_world.hpp"

namespace perfbench {
namespace {

constexpr int kDevices = 256;
constexpr int kWindowMinutes = 15;
constexpr int kVirtualSeconds = kWindowMinutes * 60;

double field_m() {
  return 60.0 * std::sqrt(static_cast<double>(kDevices) / 40.0);
}

struct CrowdRun {
  double setup_s = 0.0;
  double stack_build_us = 0.0;
  int logins_failed = 0;
  Steps steps;
  WorldCounts world;
};

CrowdRun crowd_once(std::uint64_t seed, std::uint64_t rep, Tracer& tracer,
                    Clock::time_point deadline) {
  CrowdRun out;
  const auto setup_start = Clock::now();
  std::optional<Tracer::Scope> setup_span;
  setup_span.emplace(tracer, "crowd.setup", rep);

  ph::sim::Simulator simulator;
  ph::net::Medium medium(simulator, ph::sim::Rng(seed));
  ph::sim::Rng mobility(seed * 17 + 3);
  const double field = field_m();
  const std::vector<std::string> topics = {"music", "sports", "films",
                                           "coffee", "code"};
  struct Device {
    std::unique_ptr<ph::peerhood::Stack> stack;
    std::unique_ptr<ph::community::CommunityApp> app;
  };
  std::vector<Device> crowd;
  crowd.reserve(kDevices);
  double build_s = 0.0;
  for (int i = 0; i < kDevices; ++i) {
    const Tracer::Scope span(tracer, "peerhood.stack_build", rep);
    const auto t0 = Clock::now();
    ph::peerhood::StackConfig config;
    config.device_name = "n" + std::to_string(i);
    config.radios = {ph::net::bluetooth_2_0()};
    ph::sim::RandomWaypoint::Config walk;
    walk.area_min = {0, 0};
    walk.area_max = {field, field};
    walk.speed_min_mps = 0.5;
    walk.speed_max_mps = 2.0;
    Device device;
    device.stack = std::make_unique<ph::peerhood::Stack>(
        medium, std::make_unique<ph::sim::RandomWaypoint>(walk, mobility.fork()),
        config);
    device.app = std::make_unique<ph::community::CommunityApp>(*device.stack);
    const std::string member = "m" + std::to_string(i);
    auto account = device.app->create_account(member, "pw");
    if (account.ok()) {
      // Two topics per member, rotating, so pairs share interests
      // sometimes.
      (*account)->add_interest(topics[i % topics.size()]);
      (*account)->add_interest(topics[(i + 2) % topics.size()]);
    }
    if (!account.ok() || !device.app->login(member, "pw").ok()) {
      ++out.logins_failed;
    }
    crowd.push_back(std::move(device));
    build_s += seconds_between(t0, Clock::now());
  }
  out.stack_build_us = build_s * 1e6 / kDevices;
  setup_span.reset();
  out.setup_s = seconds_between(setup_start, Clock::now());

  out.steps = run_steps(simulator, kVirtualSeconds, tracer, rep, deadline);
  out.world = WorldCounts(simulator, medium);
  for (const Device& device : crowd) {
    out.world.add_device(*device.stack, *device.app);
  }
  return out;
}

}  // namespace

void run_crowd(const Options& options, Tracer& tracer, Result& result) {
  const auto deadline = options.deadline(Clock::now());
  result.params = {{"devices", std::to_string(kDevices)},
                   {"field_m", std::to_string(field_m())},
                   {"window_min", std::to_string(kWindowMinutes)},
                   {"mobility", "random_waypoint 0.5-2.0 m/s"},
                   {"sampling", "off"}};
  const std::vector<CrowdRun> runs =
      repeat<CrowdRun>(options, [&](std::uint64_t rep) {
        return crowd_once(options.seed, rep, tracer, deadline);
      });

  const CrowdRun& first = runs.front();
  std::vector<double> setups, builds;
  std::vector<std::vector<double>> steps;
  std::uint64_t events = 0, run_allocs = 0;
  for (const CrowdRun& run : runs) {
    result.check(run.steps.finished, "crowd: wall-clock deadline exceeded");
    if (!run.steps.finished) continue;
    result.attempted += kDevices;
    for (int i = 0; i < run.logins_failed; ++i) {
      result.fail("crowd: account creation or login failed");
    }
    result.check(run.world.group_events > 0 && run.world.comparisons > 0,
                 "crowd: no group events or interest comparisons");
    if (&run != &first) {
      result.check(run.world == first.world,
                   "crowd: same seed gave different counts across "
                   "repetitions");
    }
    setups.push_back(run.setup_s);
    builds.push_back(run.stack_build_us);
    steps.push_back(run.steps.us);
    events += run.world.events;
    run_allocs += run.steps.allocs;
  }
  report_repeated(result, steps, setups);

  if (!tracer.enabled()) return;
  // Sampling is off, so the obs metrics read 0 here by construction.
  const Tracer::Totals& run_for = tracer.totals("sim.run_for");
  report_world(result, first.world, kDevices, kVirtualSeconds, events,
               run_for.wall_s);
  result.layer("peerhood.stack_build_us", median(builds), "us", builds.size());
  result.layer("alloc.per_event",
               ratio(static_cast<double>(run_allocs),
                     static_cast<double>(events)),
               "count", events);
}

}  // namespace perfbench
