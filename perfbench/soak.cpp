// soak — the ComLab room-6604 testbed (3 devices) under a seeded fault
// schedule for several virtual hours, with the telemetry plane on: an
// obs::Sampler scrapes the world registry every 100 ms of virtual time and
// an obs::SloEngine evaluates four health rules after every scrape, in the
// shape of bench/chaos_soak.cpp. Here the obs layer does most of the work
// and the kernel and medium do little. Repetitions as in sim_world.hpp.
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "eval/scenarios.hpp"
#include "fault/plane.hpp"
#include "fault/schedule.hpp"
#include "harness.hpp"
#include "net/medium.hpp"
#include "obs/clock.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "peerhood/stack.hpp"
#include "sim/simulator.hpp"
#include "sim_world.hpp"

namespace perfbench {
namespace {

constexpr int kSoakMinutes = 120;
constexpr int kQuietTailMinutes = 2;
constexpr int kVirtualSeconds = (kSoakMinutes + kQuietTailMinutes) * 60;
constexpr std::uint64_t kSampleIntervalUs = 100'000;

/// What one repetition produced. Everything but the timings is
/// deterministic per seed.
struct SoakRun {
  double setup_s = 0.0;
  double stack_build_us = 0.0;
  Steps steps;
  WorldCounts world;
  std::uint64_t losses = 0;
  std::uint64_t unrecovered = 0;
  bool group_formed = false;
  std::uint64_t samples = 0;
  std::uint64_t breaches = 0;
  std::uint64_t windows_scheduled = 0;
  std::uint64_t windows_delivered = 0;

  /// The counts a same-seed repetition must reproduce exactly.
  auto counts() const {
    return std::tie(world, losses, unrecovered, group_formed, samples,
                    breaches, windows_scheduled, windows_delivered);
  }
};

SoakRun soak_once(std::uint64_t seed, std::uint64_t rep, Tracer& tracer,
                  Clock::time_point deadline) {
  SoakRun out;
  const ph::sim::Duration horizon = ph::sim::minutes(kSoakMinutes);
  const auto setup_start = Clock::now();
  std::optional<Tracer::Scope> setup_span;
  setup_span.emplace(tracer, "soak.setup", rep);

  ph::sim::Simulator simulator;
  ph::net::Medium medium(simulator, ph::sim::Rng(seed));
  // Flight-recorder mode, as in the chaos soak: tracing on, bounded ring.
  medium.trace().set_enabled(true);
  medium.trace().set_ring_capacity(1 << 16);
  std::vector<ph::eval::ScenarioDevice> devices;
  {
    const Tracer::Scope span(tracer, "peerhood.stack_build", rep);
    const auto t0 = Clock::now();
    devices = ph::eval::comlab_room(medium, /*autostart=*/true);
    out.stack_build_us = seconds_between(t0, Clock::now()) * 1e6 /
                         static_cast<double>(devices.size());
  }
  ph::obs::Registry& metrics = medium.registry();

  // Telemetry: scrape every 100 ms of virtual time and evaluate the SLO
  // rules after each scrape. The rings hold a few windows, not the soak.
  ph::obs::SamplerConfig sampler_config;
  sampler_config.interval_us = kSampleIntervalUs;
  sampler_config.capacity = 1024;
  ph::obs::FnClock sim_clock([&] { return simulator.now(); });
  ph::obs::Sampler sampler(metrics, sim_clock, sampler_config);
  ph::obs::SloEngine slo(sampler, metrics, &medium.trace());
  const std::string d = "d" + std::to_string(devices.front().stack->id());
  const auto points_in = [](ph::sim::Duration window) {
    return static_cast<std::size_t>(window / kSampleIntervalUs);
  };
  slo.add_rule({.name = "football_unformed",
                .series = "community.groups." + d + ".formed_groups",
                .aggregate = ph::obs::SloAggregate::max,
                .comparison = ph::obs::SloComparison::below,
                .threshold = 1.0,
                .window_us = ph::sim::seconds(30),
                .min_points = points_in(ph::sim::seconds(30))});
  slo.add_rule({.name = "neighbour_table_stale",
                .series = "peerhood.daemon." + d + ".table_staleness_us",
                .aggregate = ph::obs::SloAggregate::last,
                .comparison = ph::obs::SloComparison::above,
                .threshold = 5e6});
  slo.add_rule({.name = "loss_rate",
                .series = "net.medium.datagrams_lost.rate",
                .aggregate = ph::obs::SloAggregate::mean,
                .comparison = ph::obs::SloComparison::above,
                .threshold = 2.0,
                .window_us = ph::sim::seconds(10),
                .min_points = points_in(ph::sim::seconds(10))});
  slo.add_rule({.name = "group_reform_slow",
                .series = "fault.recovery.group_reform_us.p95",
                .aggregate = ph::obs::SloAggregate::last,
                .comparison = ph::obs::SloComparison::above,
                .threshold = 90e6});
  ph::obs::Histogram& group_reform =
      metrics.histogram("fault.recovery.group_reform_us");
  simulator.schedule_periodic(kSampleIntervalUs, [&] {
    metrics.gauge("sim.queue.cancelled_live")
        .set(static_cast<double>(simulator.cancelled_pending()));
    {
      const Tracer::Scope span(tracer, "obs.sample", rep);
      sampler.sample();
    }
    const Tracer::Scope span(tracer, "obs.slo.evaluate", rep);
    slo.evaluate();
  });

  // Every neighbour loss must be matched by a reappearance of the same
  // device at the same observer.
  std::map<std::pair<ph::net::NodeId, ph::net::NodeId>, ph::sim::Time> gone;
  for (ph::eval::ScenarioDevice& device : devices) {
    const ph::net::NodeId observer = device.stack->id();
    device.stack->daemon().monitor_all(
        [&, observer](const ph::peerhood::NeighbourEvent& event) {
          const auto key = std::make_pair(observer, event.device.id);
          if (event.kind == ph::peerhood::NeighbourEvent::Kind::disappeared) {
            ++out.losses;
            gone.emplace(key, simulator.now());
          } else {
            gone.erase(key);
          }
        });
  }

  // The tester's view of the Football group, polled once a second; every
  // unformed window is timed into the histogram one SLO rule watches.
  ph::community::CommunityApp& tester = *devices.front().app;
  bool was_formed = false;
  ph::sim::Time unformed_since = 0;
  simulator.schedule_periodic(ph::sim::seconds(1), [&] {
    auto group = tester.groups().group("football");
    const bool formed = group.ok() && group->formed();
    if (was_formed && !formed) {
      unformed_since = simulator.now();
    } else if (!was_formed && formed && unformed_since != 0) {
      group_reform.observe(
          static_cast<double>(simulator.now() - unformed_since));
      unformed_since = 0;
    }
    was_formed = formed;
  });

  // The adversary: hooks on every device so blackouts cold-restart the
  // daemons, and a schedule drawn from the seed.
  ph::fault::FaultPlane plane(medium, ph::sim::Rng(seed + 1));
  ph::fault::RandomScheduleParams params;
  params.horizon = horizon;
  for (ph::eval::ScenarioDevice& device : devices) {
    ph::peerhood::Stack* stack = device.stack.get();
    plane.set_device_hooks(stack->id(),
                           {.shutdown = [stack] { stack->blackout(); },
                            .restart = [stack] { stack->restart(); }});
    params.nodes.push_back(stack->id());
  }
  params.bursts = kSoakMinutes;
  params.outages = kSoakMinutes;
  params.latency_spikes = kSoakMinutes / 2 + 1;
  params.signal_ramps = kSoakMinutes / 2 + 1;
  params.blackouts = kSoakMinutes / 4 + 1;
  ph::sim::Rng schedule_rng(seed + 2);
  const ph::fault::Schedule schedule =
      ph::fault::random_schedule(schedule_rng, params);
  plane.load(schedule);
  setup_span.reset();
  out.setup_s = seconds_between(setup_start, Clock::now());

  // Soak, then a quiet tail so the last windows' recoveries complete.
  out.steps = run_steps(simulator, kVirtualSeconds, tracer, rep, deadline);

  out.world = WorldCounts(simulator, medium);
  for (ph::eval::ScenarioDevice& device : devices) {
    out.world.add_device(*device.stack, *device.app);
  }
  out.unrecovered = gone.size();
  auto group = tester.groups().group("football");
  out.group_formed = group.ok() && group->formed();
  out.samples = sampler.samples_taken();
  out.breaches = slo.total_breaches();
  out.windows_scheduled = schedule.size();
  const ph::obs::Snapshot faults = plane.stats();
  out.windows_delivered =
      faults.counter("bursts_started") + faults.counter("outages_started") +
      faults.counter("latency_spikes") + faults.counter("signal_ramps") +
      faults.counter("blackouts_started");
  return out;
}

}  // namespace

void run_soak(const Options& options, Tracer& tracer, Result& result) {
  const auto deadline = options.deadline(Clock::now());
  result.params = {{"devices", "3"},
                   {"horizon_min", std::to_string(kSoakMinutes)},
                   {"quiet_tail_min", std::to_string(kQuietTailMinutes)},
                   {"sample_interval_ms",
                    std::to_string(kSampleIntervalUs / 1000)},
                   {"slo_rules", "4"}};
  const std::vector<SoakRun> runs =
      repeat<SoakRun>(options, [&](std::uint64_t rep) {
        return soak_once(options.seed, rep, tracer, deadline);
      });

  const SoakRun& first = runs.front();
  std::vector<double> setups, builds;
  std::vector<std::vector<double>> steps;
  std::uint64_t events = 0, run_allocs = 0;
  for (const SoakRun& run : runs) {
    result.check(run.steps.finished, "soak: wall-clock deadline exceeded");
    if (!run.steps.finished) continue;
    result.check(run.group_formed,
                 "soak: Football group not formed after the quiet tail");
    result.attempted += run.losses;
    for (std::uint64_t i = 0; i < run.unrecovered; ++i) {
      result.fail("soak: neighbour loss without a reappearance");
    }
    if (&run != &first) {
      result.check(run.counts() == first.counts(),
                   "soak: same seed gave different counts across repetitions");
    }
    setups.push_back(run.setup_s);
    builds.push_back(run.stack_build_us);
    steps.push_back(run.steps.us);
    events += run.world.events;
    run_allocs += run.steps.allocs;
  }
  report_repeated(result, steps, setups);

  if (!tracer.enabled()) return;
  // Counts are those of one repetition (identical across repetitions);
  // wall shares and rates are over all of them.
  const Tracer::Totals& sample = tracer.totals("obs.sample");
  const Tracer::Totals& slo = tracer.totals("obs.slo.evaluate");
  const Tracer::Totals& run_for = tracer.totals("sim.run_for");
  result.layer("obs.sample.busy_share", ratio(sample.wall_s, run_for.wall_s),
               "ratio", sample.calls);
  result.layer("obs.sample.calls", static_cast<double>(first.samples),
               "count");
  result.layer("obs.sample.call_us_p50", median(sample.call_us), "us",
               sample.calls);
  result.layer("obs.sample.allocs_per_call",
               ratio(static_cast<double>(sample.allocs),
                     static_cast<double>(sample.calls)),
               "count", sample.calls);
  result.layer("obs.slo.busy_share", ratio(slo.wall_s, run_for.wall_s),
               "ratio", slo.calls);
  report_world(result, first.world, 3, kVirtualSeconds, events,
               run_for.wall_s - sample.wall_s - slo.wall_s);
  result.layer("fault.windows_scheduled",
               static_cast<double>(first.windows_scheduled), "count");
  result.layer("fault.windows_delivered",
               static_cast<double>(first.windows_delivered), "count");
  result.layer("fault.unrecovered", static_cast<double>(first.unrecovered),
               "count");
  result.layer("peerhood.stack_build_us", median(builds), "us", builds.size());
  // Allocations inside the simulation steps, less those of the timed
  // telemetry calls, per executed event.
  result.layer("alloc.per_event",
               ratio(static_cast<double>(run_allocs - sample.allocs -
                                         slo.allocs),
                     static_cast<double>(events)),
               "count", events);
}

}  // namespace perfbench
