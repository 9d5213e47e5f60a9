// Chaos soak — the Table-8 ComLab scenario under a seeded fault schedule.
//
// Replays a fault::random_schedule (burst loss, radio outages, latency
// spikes, signal ramps, whole-device blackouts) over the thesis' room-6604
// testbed while the three PeerHood Community devices keep discovering each
// other and re-forming the Football interest group. Every recovery is
// timed on the virtual clock:
//
//   fault.recovery.rediscovery_us   disappear -> reappear, per observer pair
//   fault.recovery.group_reform_us  Football group unformed -> formed again
//
// and the p50/p95/p99 of both histograms are printed next to the fault.*
// window counters. All randomness derives from one seed (PH_CHAOS_SEED,
// default 42), so two runs with the same seed produce byte-identical
// metrics dumps — set PH_METRICS_JSON=/path/out.json
// and diff. PH_CHAOS_MINUTES overrides the soak horizon (default 10).
//
// Telemetry: an obs::Sampler scrapes the world registry every
// PH_SAMPLE_MS virtual milliseconds (default 100; 0 disables sampling and
// the SLO engine entirely), and an obs::SloEngine watches the sampled
// series for health violations — the Football group staying unformed, the
// tester's neighbour table going stale, loss/retransmission rate spikes,
// slow group re-forms. Every breach arms the flight recorder (the trace
// ring is dumped to $PH_FLIGHT_JSON with reason "slo:<rule>") and the
// breach windows are printed so they can be eyeballed against the fault
// schedule. PH_SERIES_JSON dumps the raw series; PH_BENCH_JSON emits the
// BENCH report the ph_bench_regression gate diffs against its baseline.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "eval/scenarios.hpp"
#include "fault/plane.hpp"
#include "fault/schedule.hpp"
#include "obs/bench_report.hpp"
#include "obs/clock.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "peerhood/stack.hpp"

namespace {

void print_histogram(const char* label, const ph::obs::Histogram* h) {
  if (h == nullptr || h->count() == 0) {
    std::printf("  %-28s (no samples)\n", label);
    return;
  }
  std::printf("  %-28s n=%-4llu p50=%7.2fs  p95=%7.2fs  p99=%7.2fs\n", label,
              static_cast<unsigned long long>(h->count()), h->p50() / 1e6,
              h->p95() / 1e6, h->p99() / 1e6);
}

}  // namespace

int main() {
  std::uint64_t seed = 42;
  if (const char* env = std::getenv("PH_CHAOS_SEED"); env != nullptr) {
    if (const long long v = std::atoll(env); v > 0) {
      seed = static_cast<std::uint64_t>(v);
    }
  }
  int soak_minutes = 10;
  if (const char* env = std::getenv("PH_CHAOS_MINUTES"); env != nullptr) {
    if (const int v = std::atoi(env); v > 0) soak_minutes = v;
  }
  const ph::sim::Duration horizon = ph::sim::minutes(soak_minutes);
  int sample_ms = 100;
  if (const char* env = std::getenv("PH_SAMPLE_MS"); env != nullptr) {
    sample_ms = std::atoi(env);  // 0 (or negative) disables sampling
  }
  // PH_PROF: 0 = profiling off, 1 (default) = Mode 1 deterministic event
  // attribution (prof.<center>.events counters — inside the byte-identity
  // gate), 2 = Mode 1 + wall-cost histograms + slow-event watchdog +
  // Mode 2 sampling profiler. PH_PROF_BUDGET_US tunes the watchdog
  // (default 50 ms).
  int prof_mode = 1;
  if (const char* env = std::getenv("PH_PROF"); env != nullptr) {
    prof_mode = std::atoi(env);
  }

  ph::sim::Simulator simulator;
  ph::net::Medium medium(simulator, ph::sim::Rng(seed));
  // Flight-recorder mode: tracing stays on for the whole soak, bounded to
  // the last ~64k spans. The fault plane snapshots the ring to
  // $PH_FLIGHT_JSON the moment a blackout/outage fires, and the reform
  // attribution below reads the same journal.
  medium.trace().set_enabled(true);
  medium.trace().set_ring_capacity(1 << 16);
  std::vector<ph::eval::ScenarioDevice> devices =
      ph::eval::comlab_room(medium, /*autostart=*/true);

  ph::obs::Registry& metrics = medium.registry();

  // Mode 1 cost attribution: every dispatched event bumps its cost
  // center's counter. Deterministic, so it rides inside the byte-compared
  // dump (ph_chaos_determinism requires counter:prof.).
  ph::obs::prof::EventProfiler prof;
  ph::obs::prof::WallProfiler wall_sampler;
  if (prof_mode > 0) {
    simulator.set_profiler(&prof);
    if (prof_mode >= 2) {
      prof.enable_wall();
      if (const char* env = std::getenv("PH_PROF_BUDGET_US");
          env != nullptr && std::atoll(env) > 0) {
        prof.set_slow_budget_us(static_cast<std::uint64_t>(std::atoll(env)));
      }
      // The watchdog runs inline on the (single) dispatching thread:
      // journal the straggler and arm the flight recorder so the spans
      // around it survive to $PH_FLIGHT_JSON.
      prof.set_on_slow([&](ph::obs::prof::Center c, std::uint64_t us) {
        medium.trace().add_event(std::string("prof.slow_event.") +
                                     ph::obs::prof::center_name(c),
                                 simulator.now());
        std::printf("  slow event: %s took %.1f ms (budget %.1f ms)\n",
                    ph::obs::prof::center_name(c),
                    static_cast<double>(us) / 1e3,
                    static_cast<double>(prof.slow_budget_us()) / 1e3);
        ph::obs::dump_flight_recording(
            medium.trace(),
            std::string("prof.slow:") + ph::obs::prof::center_name(c));
      });
    }
  }
  if (prof_mode >= 2) {
    // Mode 2: sample the main thread's span stack (the kernel pushes one
    // frame per dispatched event tag) into a folded profile.
    wall_sampler.register_thread("main");
    wall_sampler.start();
  }

  ph::obs::Histogram& rediscovery =
      metrics.histogram("fault.recovery.rediscovery_us");
  ph::obs::Histogram& group_reform =
      metrics.histogram("fault.recovery.group_reform_us");

  // Virtual-time telemetry: scrape the registry into time series at a fixed
  // interval on the simulator's own event queue, evaluate the SLO rules
  // after every scrape, and arm the flight recorder on each breach. With
  // PH_SAMPLE_MS=0 neither the sampler nor the engine schedules anything —
  // the soak runs exactly as before (the disabled path must cost nothing).
  const bool sampling = sample_ms > 0;
  ph::obs::SamplerConfig sampler_config;
  if (sampling) {
    sampler_config.interval_us = ph::sim::milliseconds(sample_ms);
  }
  // Ring sized for the whole soak plus the quiet tail: no eviction, so the
  // dumped series cover every interval and the Chrome counter tracks replay
  // the full run.
  sampler_config.capacity = static_cast<std::size_t>(
      (horizon + ph::sim::minutes(2)) / sampler_config.interval_us + 8);
  // Route through the clockful path (FnClock over simulator.now()) so the
  // same code the wall-clock transport runs is exercised under the
  // byte-identical determinism gate. The clock only reads the simulator —
  // sampling stays a pure function of the seed.
  ph::obs::FnClock sim_clock([&] { return simulator.now(); });
  ph::obs::Sampler sampler(metrics, sim_clock, sampler_config);
  sampler.set_enabled(sampling);
  ph::obs::SloEngine slo(sampler, metrics, &medium.trace());
  if (sampling) {
    const std::string d =
        "d" + std::to_string(devices.front().stack->id());
    const auto points_in = [&](ph::sim::Duration window) {
      return static_cast<std::size_t>(window / sampler_config.interval_us);
    };
    // The tester's Football group has been unformed for a full 30 s window
    // (a healthy formation after boot takes one inquiry round, ~11 s, so
    // this only fires on real outages).
    slo.add_rule({.name = "football_unformed",
                  .series = "community.groups." + d + ".formed_groups",
                  .aggregate = ph::obs::SloAggregate::max,
                  .comparison = ph::obs::SloComparison::below,
                  .threshold = 1.0,
                  .window_us = ph::sim::seconds(30),
                  .min_points = points_in(ph::sim::seconds(30))});
    // An announced neighbour has not been heard from for > 5 s — pings run
    // every 2 s, so this means two consecutive rounds went unanswered
    // (radio outage / blackout), well before eviction clears the entry.
    slo.add_rule({.name = "neighbour_table_stale",
                  .series = "peerhood.daemon." + d + ".table_staleness_us",
                  .aggregate = ph::obs::SloAggregate::last,
                  .comparison = ph::obs::SloComparison::above,
                  .threshold = 5e6});
    // Sustained loss: the mean lost-datagram rate over 10 s exceeds 2/s
    // (burst-loss windows; background loss is well under this).
    slo.add_rule({.name = "loss_rate",
                  .series = "net.medium.datagrams_lost.rate",
                  .aggregate = ph::obs::SloAggregate::mean,
                  .comparison = ph::obs::SloComparison::above,
                  .threshold = 2.0,
                  .window_us = ph::sim::seconds(10),
                  .min_points = points_in(ph::sim::seconds(10))});
    // Group re-forms are taking > 90 s at the p95 — the user-visible SLO.
    slo.add_rule({.name = "group_reform_slow",
                  .series = "fault.recovery.group_reform_us.p95",
                  .aggregate = ph::obs::SloAggregate::last,
                  .comparison = ph::obs::SloComparison::above,
                  .threshold = 90e6});
    slo.set_on_breach([&](const ph::obs::SloRule& rule, ph::obs::TimePoint at,
                          double value) {
      std::printf("  SLO breach t=%7.1fs  %-22s value=%.4g\n", at / 1e6,
                  rule.name.c_str(), value);
      // Dapper-style: snapshot the trace ring around the moment health was
      // lost (no-op unless $PH_FLIGHT_JSON is set).
      ph::obs::dump_flight_recording(medium.trace(), "slo:" + rule.name);
    });
    // The scrape cadence dominates event counts on short soaks — attribute
    // it (and its self-rescheduling chain) to obs.sample, not unattributed.
    const ph::obs::prof::TagScope sample_tag(ph::obs::prof::Center::obs_sample);
    simulator.schedule_periodic(sampler_config.interval_us, [&] {
      // Cancelled-but-stored queue entries: the gauge the event kernel's
      // lazy-cancellation compaction keeps bounded (dead >= 32 && 2*dead
      // >= stored triggers a sweep, mirroring the medium's link policy).
      metrics.gauge("sim.queue.cancelled_live")
          .set(static_cast<double>(simulator.cancelled_pending()));
      sampler.sample();
      slo.evaluate();
    });
  }

  // Time every neighbour loss to the matching reappearance, per observer
  // pair — this is the metric the retry/backoff hardening moves.
  std::map<std::pair<ph::net::NodeId, ph::net::NodeId>, ph::sim::Time>
      gone_since;
  for (ph::eval::ScenarioDevice& device : devices) {
    const ph::net::NodeId observer = device.stack->id();
    device.stack->daemon().monitor_all(
        [&, observer](const ph::peerhood::NeighbourEvent& event) {
          const auto key = std::make_pair(observer, event.device.id);
          if (event.kind == ph::peerhood::NeighbourEvent::Kind::disappeared) {
            gone_since.emplace(key, simulator.now());
          } else if (auto it = gone_since.find(key); it != gone_since.end()) {
            rediscovery.observe(
                static_cast<double>(simulator.now() - it->second));
            gone_since.erase(it);
          }
        });
  }

  // Poll the tester's view of the Football group once a second and time
  // every unformed window — the user-visible face of a fault.
  ph::community::CommunityApp& tester = *devices.front().app;
  bool was_formed = false;
  ph::sim::Time unformed_since = 0;
  // Each unformed window is also attributed over the trace: which phases
  // (inquiry, handshake, backoff idle, …) the recovery time went to,
  // summed across windows and published as per-phase histograms so the
  // same-seed determinism check covers the analyzer too.
  ph::obs::Attribution reform_attribution;
  std::function<void()> poll_group = [&] {
    auto group = tester.groups().group("football");
    const bool formed = group.ok() && group->formed();
    if (was_formed && !formed) {
      unformed_since = simulator.now();
    } else if (!was_formed && formed && unformed_since != 0) {
      group_reform.observe(
          static_cast<double>(simulator.now() - unformed_since));
      const ph::obs::Attribution window = ph::obs::attribute_window(
          medium.trace(), unformed_since, simulator.now());
      reform_attribution.add(window);
      for (std::size_t i = 0; i < ph::obs::kPhaseCount; ++i) {
        const auto phase = static_cast<ph::obs::Phase>(i);
        metrics
            .histogram(std::string("fault.recovery.reform.") +
                       ph::obs::to_string(phase) + "_us")
            .observe(static_cast<double>(window.phase_us[i]));
      }
      unformed_since = 0;
    }
    was_formed = formed;
    simulator.schedule(ph::sim::seconds(1), poll_group);
  };
  {
    // Bench housekeeping, not protocol work.
    const ph::obs::prof::TagScope poll_tag(
        ph::obs::prof::Center::sim_kernel);
    poll_group();
  }

  // The adversary: one plane, hooks on every device so blackouts really
  // cold-restart the daemons, and a schedule drawn from the same seed.
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
  params.bursts = soak_minutes;
  params.outages = soak_minutes;
  params.latency_spikes = soak_minutes / 2 + 1;
  params.signal_ramps = soak_minutes / 2 + 1;
  params.blackouts = soak_minutes / 4 + 1;
  ph::sim::Rng schedule_rng(seed + 2);
  const ph::fault::Schedule schedule =
      ph::fault::random_schedule(schedule_rng, params);
  plane.load(schedule);

  std::printf("chaos soak: seed=%llu horizon=%dmin faults=%zu "
              "(bursts=%zu outages=%zu spikes=%zu ramps=%zu blackouts=%zu)\n",
              static_cast<unsigned long long>(seed), soak_minutes,
              schedule.size(), schedule.bursts.size(), schedule.outages.size(),
              schedule.latency_spikes.size(), schedule.signal_ramps.size(),
              schedule.blackouts.size());
  // Print the injected windows so SLO breach windows (below) can be read
  // against what caused them.
  std::printf("injected fault windows (virtual time):\n");
  for (const auto& f : schedule.bursts) {
    std::printf("  burst_loss             [%8.1fs, %8.1fs]\n", f.start / 1e6,
                (f.start + f.duration) / 1e6);
  }
  for (const auto& f : schedule.outages) {
    std::printf("  radio_outage     n%-3llu [%8.1fs, %8.1fs]\n",
                static_cast<unsigned long long>(f.node), f.start / 1e6,
                (f.start + f.duration) / 1e6);
  }
  for (const auto& f : schedule.latency_spikes) {
    std::printf("  latency_spike          [%8.1fs, %8.1fs]\n", f.start / 1e6,
                (f.start + f.duration) / 1e6);
  }
  for (const auto& f : schedule.signal_ramps) {
    std::printf("  signal_ramp      n%-3llu [%8.1fs, %8.1fs]\n",
                static_cast<unsigned long long>(f.node), f.start / 1e6,
                (f.start + f.ramp + f.hold + f.recover) / 1e6);
  }
  for (const auto& f : schedule.blackouts) {
    std::printf("  blackout         n%-3llu [%8.1fs, %8.1fs]\n",
                static_cast<unsigned long long>(f.node), f.start / 1e6,
                (f.start + f.duration) / 1e6);
  }

  // Soak, then a quiet tail so the last windows' recoveries complete.
  simulator.run_for(horizon + ph::sim::minutes(2));

  if (prof_mode >= 2) {
    wall_sampler.stop();
    wall_sampler.unregister_thread();
    ph::obs::prof::dump_folded_if_requested(wall_sampler);
  }
  if (prof_mode > 0) {
    std::printf("\nper-event cost attribution (prof.<center>.events):\n");
    for (std::size_t i = 0; i < ph::obs::prof::kCenterCount; ++i) {
      const auto center = static_cast<ph::obs::prof::Center>(i);
      const auto& cost = prof.cost(center);
      if (cost.events == 0) continue;
      if (cost.wall_count > 0) {
        std::printf("  %-22s %9llu events  wall mean=%7.1fus total=%8.1fms\n",
                    ph::obs::prof::center_name(center),
                    static_cast<unsigned long long>(cost.events),
                    static_cast<double>(cost.wall_us) /
                        static_cast<double>(cost.wall_count),
                    static_cast<double>(cost.wall_us) / 1e3);
      } else {
        std::printf("  %-22s %9llu events\n",
                    ph::obs::prof::center_name(center),
                    static_cast<unsigned long long>(cost.events));
      }
    }
    if (prof_mode >= 2) {
      std::printf("  slow events over %.1f ms budget: %llu\n",
                  static_cast<double>(prof.slow_budget_us()) / 1e3,
                  static_cast<unsigned long long>(prof.slow_events()));
    }
  }

  const ph::obs::Snapshot faults = plane.stats();
  std::printf("\nfault windows delivered:\n");
  for (const auto& [name, value] : faults.counters()) {
    std::printf("  fault.%-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\nrecovery times (virtual):\n");
  print_histogram("neighbour rediscovery", &rediscovery);
  print_histogram("Football group re-form", &group_reform);

  std::printf("\ncritical-path attribution of the re-form windows "
              "(summed, seconds):\n%s",
              ph::obs::format_attribution_table(
                  {{"group re-form (all windows)", reform_attribution}})
                  .c_str());

  if (sampling) {
    std::printf("\nSLO breach windows (virtual time, %llu breach%s over "
                "%zu series, %llu samples):\n",
                static_cast<unsigned long long>(slo.total_breaches()),
                slo.total_breaches() == 1 ? "" : "es", sampler.series().size(),
                static_cast<unsigned long long>(sampler.samples_taken()));
    for (const ph::obs::BreachWindow& window : slo.windows()) {
      std::printf("  %-22s [%8.1fs, %8.1fs]%s\n", window.rule.c_str(),
                  window.start / 1e6, window.end / 1e6,
                  window.open ? "  (still open)" : "");
    }
    if (slo.windows().empty()) std::printf("  (none)\n");
  }

  // The perf-trajectory record: every headline number below is virtual-time
  // deterministic, so the regression gate can hold them to tight tolerances.
  ph::obs::BenchReport report;
  report.bench = "chaos_soak";
  report.env = {{"seed", std::to_string(seed)},
                {"minutes", std::to_string(soak_minutes)},
                {"sample_ms", std::to_string(sample_ms)}};
  report.headline = {
      {"rediscovery_count", static_cast<double>(rediscovery.count())},
      {"rediscovery_p50_s", rediscovery.p50() / 1e6},
      {"rediscovery_p95_s", rediscovery.p95() / 1e6},
      {"group_reform_count", static_cast<double>(group_reform.count())},
      {"group_reform_p50_s", group_reform.p50() / 1e6},
      {"group_reform_p95_s", group_reform.p95() / 1e6},
      {"slo_breaches", static_cast<double>(slo.total_breaches())},
      {"datagrams_sent",
       static_cast<double>(metrics.counter("net.medium.datagrams_sent").value())},
      {"datagrams_lost",
       static_cast<double>(metrics.counter("net.medium.datagrams_lost").value())},
      {"events_executed", static_cast<double>(simulator.events_executed())},
  };
  report.info = {
      {"samples_taken", static_cast<double>(sampler.samples_taken())},
      {"series", static_cast<double>(sampler.series().size())},
  };
  // The sampler is deliberately NOT embedded: the report is the compact
  // trajectory record the regression gate commits as a baseline; the full
  // time-series dump goes to PH_SERIES_JSON / PH_METRICS_JSON instead.
  ph::obs::dump_bench_report_if_requested(report, &metrics);

  // The acceptance check: same seed => byte-identical dump (the trace
  // ring rides along in the JSON's spans/events sections, the sampled
  // series and SLO windows in their own sections). The deterministic
  // prof.<center>.events counters publish INTO the compared dump; wall
  // histograms only when PH_PROF=2 armed the wall plane.
  if (prof_mode > 0) {
    prof.publish_events(metrics);
    if (prof_mode >= 2) prof.publish_wall(metrics);
  }
  ph::obs::dump_if_requested(metrics, &medium.trace(),
                             medium.trace_device_names(),
                             sampling ? &sampler : nullptr,
                             sampling ? &slo : nullptr);
  return 0;
}
