// Infrastructure microbenchmarks (google-benchmark, wall-clock): the
// simulation kernel's event throughput and the wire codecs. Not tied to a
// thesis artifact — these document the harness' own capacity, i.e. how
// large an overlay simulation the repository can drive.
//
// Set PH_METRICS_JSON=/path/out.json to also dump a
// `sim.kernel.*` snapshot — one deterministic run of the schedule/run and
// cancel workloads with their event counts — at exit.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <random>

#include "net/medium.hpp"
#include "obs/bench_report.hpp"
#include "obs/export.hpp"
#include "proto/daemon.hpp"
#include "proto/messages.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"

using namespace ph;

namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < events; ++i) {
      simulator.schedule(sim::milliseconds(i % 1000), [] {});
    }
    simulator.run_all();
    benchmark::DoNotOptimize(simulator.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_SimulatorCascade(benchmark::State& state) {
  // Each event schedules the next — the latency-chain pattern every
  // network round trip uses.
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    int remaining = depth;
    std::function<void()> step = [&] {
      if (--remaining > 0) simulator.schedule(sim::microseconds(10), step);
    };
    simulator.schedule(0, step);
    simulator.run_all();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_SimulatorCascade)->Arg(1'000)->Arg(10'000);

// --- event queue: timer wheel ------------------------------------------------
// Steady-state schedule/fire churn on the raw queue at a fixed pending-set
// size: pop the earliest event, schedule a replacement. This isolates the
// queue data structure from the rest of the kernel: O(1) bucket filing
// plus amortized slot drains per op.

void BM_EventQueue(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  sim::TimerWheelQueue queue;
  std::mt19937_64 rng(12345);
  const sim::Duration horizon = 10'000'000;  // 10 s spread
  sim::Time now = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    queue.push(now + rng() % horizon, sim::EventFn([] {}));
  }
  sim::QueueEntry out;
  for (auto _ : state) {
    queue.pop_next(~sim::Time{0}, out);
    now = out.when;
    queue.push(now + rng() % horizon, sim::EventFn([] {}));
    benchmark::DoNotOptimize(out.seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue)->Arg(1'000)->Arg(100'000)->Arg(1'000'000);

// Steady-state cancel churn: schedule far-future events and cancel them,
// the monitoring-timeout pattern (arm a watchdog, cancel it when the reply
// arrives). Exercises the cell-stamp cancel and lazy compaction.
void BM_EventQueueCancel(benchmark::State& state) {
  sim::TimerWheelQueue queue;
  sim::Time when = 1'000'001;
  for (auto _ : state) {
    const sim::EventId id = queue.push(++when, sim::EventFn([] {}));
    queue.cancel(id);
    benchmark::DoNotOptimize(queue.stored());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancel);

// Burst churn, the crowd's shape (256 devices finishing an inquiry round
// in the same millisecond): each iteration is one simulated 1.024 ms
// tick that pushes 800 keys into the tick's level-0 slot and drains them,
// so successive bursts rotate through every slot of the wheel.
void BM_EventQueueBurst(benchmark::State& state) {
  constexpr int kBurst = 800;
  constexpr sim::Duration kTick = 1'024;  // one level-0 slot
  sim::TimerWheelQueue queue;
  std::mt19937_64 rng(4242);
  sim::Time tick_start = 0;
  sim::QueueEntry out;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      queue.push(tick_start + rng() % kTick, sim::EventFn([] {}));
    }
    while (queue.pop_next(tick_start + kTick - 1, out)) {
      benchmark::DoNotOptimize(out.seq);
    }
    tick_start += kTick;
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_EventQueueBurst);

// End-to-end dispatch through the Simulator: a thousand self-rescheduling
// chains (the periodic-work shape chaos_soak runs at scale), measured as
// executed events per wall second.

void arm_bench_chain(sim::Simulator& simulator, sim::Duration period) {
  simulator.schedule(period, [&simulator, period] {
    arm_bench_chain(simulator, period);
  });
}

void BM_Dispatch(benchmark::State& state) {
  sim::Simulator simulator;
  std::mt19937_64 rng(777);
  for (int i = 0; i < 1'000; ++i) {
    arm_bench_chain(simulator, 500 + rng() % 50'000);
  }
  simulator.run_for(sim::seconds(1.0));  // warm the slot block pool
  std::uint64_t executed = simulator.events_executed();
  for (auto _ : state) {
    simulator.run_for(sim::milliseconds(100));
    benchmark::DoNotOptimize(simulator.now());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(simulator.events_executed() - executed));
}
BENCHMARK(BM_Dispatch);

void BM_SimulatorCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::vector<sim::EventId> ids;
    ids.reserve(10'000);
    for (int i = 0; i < 10'000; ++i) {
      ids.push_back(simulator.schedule(sim::seconds(1), [] {}));
    }
    for (sim::EventId id : ids) simulator.cancel(id);
    benchmark::DoNotOptimize(simulator.queue_size());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorCancel);

// --- radio-world proximity queries -----------------------------------------
// A random-waypoint crowd at constant density (the overlay-scale regime):
// arg 0 = N devices, arg 1 = 1 for the spatial-index path, 0 for the
// brute-force reference. Every iteration advances virtual time so the
// position cache and grid are invalidated and rebuilt exactly as they are
// in a live discovery round — this measures the steady-state query cost,
// not a warm-cache fiction.

struct RadioWorld {
  sim::Simulator simulator;
  std::unique_ptr<net::Medium> medium;
  net::TechProfile bt = net::bluetooth_2_0();
  int devices = 0;

  RadioWorld(int n, bool fast_path) : devices(n) {
    net::MediumConfig config;
    config.use_spatial_index = fast_path;
    config.use_position_cache = fast_path;
    config.use_signal_cache = fast_path;
    medium = std::make_unique<net::Medium>(simulator, sim::Rng(99), config);
    sim::Rng walkers(7);
    // Field area ∝ N: the 40-devices-on-60×60-m crowd density.
    const double field = 60.0 * std::sqrt(static_cast<double>(n) / 40.0);
    for (int i = 0; i < n; ++i) {
      sim::RandomWaypoint::Config walk;
      walk.area_min = {0, 0};
      walk.area_max = {field, field};
      const net::NodeId id = medium->add_node(
          "n" + std::to_string(i),
          std::make_unique<sim::RandomWaypoint>(walk, walkers.fork()));
      medium->add_adapter(id, bt);
    }
  }
};

void BM_NodesInRange(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RadioWorld world(n, state.range(1) != 0);
  net::NodeId probe = 1;
  for (auto _ : state) {
    world.simulator.run_for(sim::milliseconds(100));  // new timestamp
    auto peers = world.medium->nodes_in_range(probe, world.bt);
    benchmark::DoNotOptimize(peers);
    probe = probe % static_cast<net::NodeId>(n) + 1;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(1) != 0 ? "grid" : "brute");
}
BENCHMARK(BM_NodesInRange)->ArgsProduct({{32, 256, 1024}, {0, 1}});

void BM_Signal(benchmark::State& state) {
  // 32 distinct pair samples per timestamp — the shape of a monitoring
  // round (ping sweep), where the position cache collapses repeated
  // mobility sampling (the per-pair signal memo cannot help: every pair
  // is fresh, so this measures the memoization layer's overhead too).
  const int n = static_cast<int>(state.range(0));
  RadioWorld world(n, state.range(1) != 0);
  net::NodeId a = 1;
  for (auto _ : state) {
    world.simulator.run_for(sim::milliseconds(100));
    double sum = 0.0;
    for (int i = 0; i < 32; ++i) {
      const net::NodeId b =
          static_cast<net::NodeId>((a + i) % static_cast<net::NodeId>(n)) + 1;
      sum += world.medium->signal(a, b, world.bt);
    }
    benchmark::DoNotOptimize(sum);
    a = a % static_cast<net::NodeId>(n) + 1;
  }
  state.SetItemsProcessed(state.iterations() * 32);
  state.SetLabel(state.range(1) != 0 ? "cached" : "uncached");
}
BENCHMARK(BM_Signal)->ArgsProduct({{32, 256, 1024}, {0, 1}});

proto::Response heavy_response() {
  proto::Response response;
  response.op = proto::Opcode::ps_get_profile;
  response.profile.member_id = "member";
  response.profile.display_name = "A Display Name";
  response.profile.about = "about text of realistic length for a profile";
  for (int i = 0; i < 10; ++i) {
    response.profile.interests.push_back("interest" + std::to_string(i));
    response.profile.trusted_friends.push_back("friend" + std::to_string(i));
    response.profile.comments.push_back(
        {"author" + std::to_string(i), "a comment of plausible length", 123});
    response.profile.visitors.push_back("visitor" + std::to_string(i));
  }
  return response;
}

void BM_EncodeResponse(benchmark::State& state) {
  const proto::Response response = heavy_response();
  std::size_t bytes = 0;
  for (auto _ : state) {
    Bytes encoded = proto::encode(response);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_EncodeResponse);

void BM_DecodeResponse(benchmark::State& state) {
  const Bytes encoded = proto::encode(heavy_response());
  for (auto _ : state) {
    auto decoded = proto::decode_response(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encoded.size()));
}
BENCHMARK(BM_DecodeResponse);

void BM_DecodeDaemonMessage(benchmark::State& state) {
  proto::DaemonMessage message;
  message.op = proto::DaemonOp::service_reply;
  message.device_name = "device";
  message.services = {{"PeerHoodCommunity", 1000,
                       {{"member", "alice"},
                        {"interests", "a;b;c;d"},
                        {"type", "social"}}}};
  const Bytes encoded = proto::encode(message);
  for (auto _ : state) {
    auto decoded = proto::decode_daemon_message(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encoded.size()));
}
BENCHMARK(BM_DecodeDaemonMessage);

// Records one deterministic pass of the kernel workloads into `metrics`.
// The schedule/run workload's event count is the headline; its wall-clock
// throughput is the google-benchmark cases' job above. The cancel workload
// documents lazy cancellation: O(1) erase, stale entries compacted away
// once they dominate.
void record_kernel_metrics(obs::Registry& metrics) {
  {
    constexpr int kEvents = 100'000;
    sim::Simulator simulator;
    for (int i = 0; i < kEvents; ++i) {
      simulator.schedule(sim::milliseconds(i % 1000), [] {});
    }
    simulator.run_all();
    metrics.counter("sim.kernel.schedule_run_events")
        .inc(simulator.events_executed());
  }
  {
    constexpr int kEvents = 10'000;
    sim::Simulator simulator;
    std::vector<sim::EventId> ids;
    ids.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(simulator.schedule(sim::seconds(1), [] {}));
    }
    std::uint64_t cancelled = 0;
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      if (simulator.cancel(ids[i])) ++cancelled;
    }
    metrics.counter("sim.kernel.cancelled_events").inc(cancelled);
    metrics.gauge("sim.kernel.live_after_cancel")
        .set(static_cast<double>(simulator.queue_size()));
    simulator.run_all();
    metrics.counter("sim.kernel.cancel_run_events")
        .inc(simulator.events_executed());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obs::Registry metrics;
  record_kernel_metrics(metrics);

  // Kernel-workload report: event counts are exact (headline).
  obs::BenchReport report;
  report.bench = "microbench";
  report.headline["schedule_run_events"] = static_cast<double>(
      metrics.counter("sim.kernel.schedule_run_events").value());
  report.headline["cancelled_events"] = static_cast<double>(
      metrics.counter("sim.kernel.cancelled_events").value());
  report.headline["live_after_cancel"] =
      metrics.gauge("sim.kernel.live_after_cancel").value();
  report.headline["cancel_run_events"] = static_cast<double>(
      metrics.counter("sim.kernel.cancel_run_events").value());
  obs::dump_bench_report_if_requested(report, &metrics);

  obs::dump_if_requested(metrics);
  return 0;
}
