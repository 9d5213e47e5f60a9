// Future work #2 (thesis conclusion) — "performance testing during the
// dynamic group discovery in the social network on mobile environment can
// be done in order to analyze the efficiency of such dynamic group
// discovery in any overlay networks."
//
// A crowd of N devices random-waypoints across a field several radio
// ranges wide, every device logged in and running dynamic group discovery.
// Over the window the bench measures, as a function of N:
//   * group events per device-minute (formations + dissolutions = churn
//     the middleware absorbed)
//   * mean interest-match comparisons per device (Figure 6 work)
//   * control traffic per device-minute (inquiries, service queries, pings)
//   * total radio bytes per device-minute
//   * simulator cost: pair signal() evaluations, spatial-index pruning,
//     position-cache hit rate, and wall-clock throughput (sim-seconds per
//     wall-second, events per second)
//
// CLI (all optional):
//   --devices=5,10,20,40   crowd sizes to sweep; `none` skips the classic
//                          full-stack sweep entirely (parallel-only runs)
//   --seed=1000            base seed (per run: seed + N)
//   --window-min=10        simulated minutes per run
//   --field=60 | --field=auto
//                          field edge in metres; `auto` scales the area to
//                          hold the 40-device baseline density (crowd
//                          scaling at constant density)
//   --brute                brute-force reference path (spatial index and
//                          position cache off) for A/B comparisons
//   --cell=M               spatial grid cell edge override in metres
//
// Parallel sharded-medium sweep (ParallelWorld on the ShardedKernel —
// city-scale crowds, constant density, medium hot path only):
//   --parallel-devices=64  crowd sizes for the sharded sweep; `none` skips
//   --threads=1,2          worker-thread counts to sweep per crowd size;
//                          results are asserted byte-identical across them
//   --shards=8             shard count (the determinism domain)
//   --ops=PATH             serve the live ops plane on a UNIX socket at
//                          PATH during the sharded runs (ph_ops_dump reads
//                          shard balance: sim.shard.<i>.events and the
//                          sim.shard.lookahead_stalls_us gauges)
//
// Set PH_METRICS_JSON=/path/out.json to dump, at exit, the aggregated
// world registries plus per-N scaling metrics under `bench.overlay.n<N>.*`
// — the scaling trajectory the BENCH_*.json series tracks. With
// `--devices=none` the dump is the last sharded world's registry instead
// (plus PH_SERIES_JSON / PH_TRACE_JSON when a sampler / trace is active),
// which is what ph_chaos_determinism byte-compares across --threads.
// PH_SAMPLE_MS sets the sharded worlds' series scrape interval.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/medium.hpp"
#include "net/parallel_world.hpp"
#include "sim/simulator.hpp"
#include "community/app.hpp"
#include "obs/bench_report.hpp"
#include "obs/export.hpp"
#include "obs/ops_server.hpp"
#include "obs/prof.hpp"
#include "util/check.hpp"

using namespace ph;

namespace {

struct Options {
  std::vector<int> devices = {5, 10, 20, 40};
  std::uint64_t seed = 1000;
  double window_min = 10.0;
  double field_m = 60.0;  // 6 Bluetooth ranges across
  bool auto_field = false;
  bool brute = false;
  double cell_m = 0.0;
  std::vector<int> parallel_devices = {64};
  std::vector<unsigned> threads = {1, 2};
  unsigned shards = 8;
  std::string ops_socket;
};

struct Metrics {
  double group_events_per_device_min = 0;
  double comparisons_per_device = 0;
  double control_msgs_per_device_min = 0;
  double bytes_per_device_min = 0;
  std::uint64_t signal_evals = 0;
  std::uint64_t pairs_pruned = 0;
  double cache_hit_rate = 0;
  double wall_s = 0;
  double sim_s_per_wall_s = 0;
  double events_per_sec = 0;
};

double field_for(const Options& options, int devices) {
  if (!options.auto_field) return options.field_m;
  // Constant density: the 40-device baseline on 60×60 m, area ∝ N.
  return 60.0 * std::sqrt(static_cast<double>(devices) / 40.0);
}

Metrics run_crowd(const Options& options, int devices, obs::Registry& dump) {
  sim::Simulator simulator;
  net::MediumConfig config;
  config.use_spatial_index = !options.brute;
  config.use_position_cache = !options.brute;
  config.use_signal_cache = !options.brute;
  config.spatial_cell_m = options.cell_m;
  const std::uint64_t seed = options.seed + static_cast<std::uint64_t>(devices);
  net::Medium medium(simulator, sim::Rng(seed), config);
  sim::Rng mobility(seed * 17 + 3);
  const double field = field_for(options, devices);
  const sim::Duration window = sim::minutes(options.window_min);

  struct Device {
    std::unique_ptr<peerhood::Stack> stack;
    std::unique_ptr<community::CommunityApp> app;
  };
  std::vector<std::unique_ptr<Device>> crowd;
  const std::vector<std::string> topics = {"music", "sports", "films",
                                           "coffee", "code"};
  for (int i = 0; i < devices; ++i) {
    auto device = std::make_unique<Device>();
    peerhood::StackConfig config_stack;
    config_stack.device_name = "n" + std::to_string(i);
    net::TechProfile bt = net::bluetooth_2_0();
    config_stack.radios = {bt};
    sim::RandomWaypoint::Config walk;
    walk.area_min = {0, 0};
    walk.area_max = {field, field};
    walk.speed_min_mps = 0.5;
    walk.speed_max_mps = 2.0;
    device->stack = std::make_unique<peerhood::Stack>(
        medium, std::make_unique<sim::RandomWaypoint>(walk, mobility.fork()),
        config_stack);
    device->app = std::make_unique<community::CommunityApp>(*device->stack);
    auto account = device->app->create_account("m" + std::to_string(i), "pw");
    PH_CHECK(account.ok());
    // Two topics per member, rotating so every pair shares something
    // sometimes.
    (*account)->add_interest(topics[i % topics.size()]);
    (*account)->add_interest(topics[(i + 2) % topics.size()]);
    PH_CHECK(device->app->login("m" + std::to_string(i), "pw").ok());
    crowd.push_back(std::move(device));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  simulator.run_until(window);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  Metrics metrics;
  std::uint64_t group_events = 0, comparisons = 0, control_msgs = 0;
  for (const auto& device : crowd) {
    const obs::Snapshot group_stats = device->app->groups().stats();
    group_events += group_stats.counter("groups_formed") +
                    group_stats.counter("groups_dissolved");
    comparisons += group_stats.counter("comparisons");
    const obs::Snapshot daemon_stats = device->stack->daemon().stats();
    control_msgs += daemon_stats.counter("pings_sent") +
                    daemon_stats.counter("service_queries") +
                    daemon_stats.counter("inquiries_started");
  }
  const double device_minutes = devices * sim::to_seconds(window) / 60.0;
  metrics.group_events_per_device_min =
      static_cast<double>(group_events) / device_minutes;
  metrics.comparisons_per_device =
      static_cast<double>(comparisons) / devices;
  metrics.control_msgs_per_device_min =
      static_cast<double>(control_msgs) / device_minutes;
  metrics.bytes_per_device_min =
      static_cast<double>(
          medium.traffic(net::Technology::bluetooth).total_bytes()) /
      device_minutes;

  const obs::Snapshot world = medium.stats();
  metrics.signal_evals = world.counter("signal_evals");
  metrics.pairs_pruned = world.counter("spatial.pairs_pruned");
  const std::uint64_t hits = world.counter("position_cache.hits");
  const std::uint64_t misses = world.counter("position_cache.misses");
  metrics.cache_hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  metrics.wall_s = wall_s;
  metrics.sim_s_per_wall_s =
      wall_s > 0 ? sim::to_seconds(window) / wall_s : 0.0;
  metrics.events_per_sec =
      wall_s > 0 ? static_cast<double>(simulator.events_executed()) / wall_s
                 : 0.0;

  // Aggregate world counters across runs, plus one per-N scaling record —
  // the shape the BENCH_*.json trajectory and ph_overlay_scale_smoke read.
  dump.merge_from(medium.registry());
  const std::string prefix = "bench.overlay.n" + std::to_string(devices) + ".";
  dump.gauge(prefix + "group_events_per_device_min")
      .set(metrics.group_events_per_device_min);
  dump.gauge(prefix + "comparisons_per_device")
      .set(metrics.comparisons_per_device);
  dump.gauge(prefix + "control_msgs_per_device_min")
      .set(metrics.control_msgs_per_device_min);
  dump.gauge(prefix + "bytes_per_device_min").set(metrics.bytes_per_device_min);
  dump.counter(prefix + "signal_evals").inc(metrics.signal_evals);
  dump.counter(prefix + "spatial_pairs_pruned").inc(metrics.pairs_pruned);
  dump.counter(prefix + "signal_cache_hits")
      .inc(world.counter("signal_cache.hits"));
  dump.gauge(prefix + "position_cache_hit_rate").set(metrics.cache_hit_rate);
  dump.gauge(prefix + "field_m").set(field);
  dump.gauge(prefix + "wall_s").set(metrics.wall_s);
  dump.gauge(prefix + "sim_seconds_per_wall_second")
      .set(metrics.sim_s_per_wall_s);
  dump.gauge(prefix + "events_per_sec").set(metrics.events_per_sec);
  return metrics;
}

bool parse_int_list(const char* v, const char* flag, std::vector<int>& out) {
  out.clear();
  if (std::string(v) == "none") return true;
  std::string list = v;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string token =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const int n = std::atoi(token.c_str());
    if (n <= 0) {
      std::fprintf(stderr, "bad %s entry '%s'\n", flag, token.c_str());
      return false;
    }
    out.push_back(n);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      const std::size_t len = std::strlen(name);
      if (arg.compare(0, len, name) == 0 && arg.size() > len &&
          arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value_of("--devices")) {
      if (!parse_int_list(v, "--devices", options.devices) &&
          std::string(v) != "none") {
        return false;
      }
    } else if (const char* vp = value_of("--parallel-devices")) {
      if (!parse_int_list(vp, "--parallel-devices",
                          options.parallel_devices) &&
          std::string(vp) != "none") {
        return false;
      }
    } else if (const char* vt = value_of("--threads")) {
      std::vector<int> list;
      if (!parse_int_list(vt, "--threads", list)) return false;
      options.threads.clear();
      for (int t : list) options.threads.push_back(static_cast<unsigned>(t));
    } else if (const char* vs = value_of("--shards")) {
      const int s = std::atoi(vs);
      if (s <= 0) return false;
      options.shards = static_cast<unsigned>(s);
    } else if (const char* vo = value_of("--ops")) {
      options.ops_socket = vo;
    } else if (const char* v2 = value_of("--seed")) {
      options.seed = std::strtoull(v2, nullptr, 10);
    } else if (const char* v3 = value_of("--window-min")) {
      options.window_min = std::atof(v3);
      if (options.window_min <= 0) return false;
    } else if (const char* v4 = value_of("--field")) {
      if (std::string(v4) == "auto") {
        options.auto_field = true;
      } else {
        options.field_m = std::atof(v4);
        if (options.field_m <= 0) return false;
      }
    } else if (const char* v5 = value_of("--cell")) {
      options.cell_m = std::atof(v5);
    } else if (arg == "--brute") {
      options.brute = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_overlay_scale [--devices=5,10,20,40|none] [--seed=N]\n"
          "       [--window-min=M] [--field=60|auto] [--brute] [--cell=M]\n"
          "       [--parallel-devices=64|none] [--threads=1,2] [--shards=8]\n"
          "       [--ops=SOCKET_PATH]\n");
      return false;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// One sharded-kernel crowd at a given thread count. Returns the registry
// JSON (byte-compared across thread counts by the caller), its wall time
// for the stdout table and its deterministic totals.
struct ParallelRun {
  double wall_s = 0;
  double events_per_sec = 0;
  std::string metrics_json;
  net::ParallelWorld::Totals totals;
};

ParallelRun run_parallel_crowd(const Options& options, int devices,
                               unsigned threads, sim::Duration window,
                               int prof_mode,
                               obs::prof::WallProfiler* wall_sampler,
                               std::unique_ptr<net::ParallelWorld>& keep) {
  net::ParallelWorldConfig config;
  config.devices = static_cast<std::uint32_t>(devices);
  config.shards = options.shards;
  config.threads = threads;
  config.seed = options.seed + static_cast<std::uint64_t>(devices);
  // Wall-clock stall gauges are wanted live on the ops plane but would
  // poison the byte-compared dumps; only publish them when serving ops.
  config.publish_wall_stats = !options.ops_socket.empty();
  // Mode 1 attribution is deterministic and stays on by default
  // (PH_PROF=0 turns it off); the wall plane and Mode 2 sampler are
  // wall-clock and ride outside the byte-compared path.
  config.profile = prof_mode > 0;
  config.profile_wall = prof_mode >= 2;
  config.wall_sampler = wall_sampler;
  if (const char* sample_ms = std::getenv("PH_SAMPLE_MS")) {
    const long ms = std::atol(sample_ms);
    if (ms > 0) config.sample_interval_us = static_cast<std::uint64_t>(ms) * 1000;
  }
  auto world = std::make_unique<net::ParallelWorld>(config);
  if (std::getenv("PH_TRACE_JSON") != nullptr) {
    world->trace().set_enabled(true);
  }

  std::unique_ptr<obs::OpsServer> ops;
  if (!options.ops_socket.empty()) {
    obs::OpsSources sources;
    sources.registry = &world->registry();
    sources.trace = &world->trace();
    sources.sampler = world->sampler();
    sources.profiler = wall_sampler;
    ops = std::make_unique<obs::OpsServer>(
        obs::OpsServerConfig{options.ops_socket, 1.0}, sources);
    PH_CHECK_MSG(ops->start().ok(), "ops server failed to bind");
    obs::OpsServer* server = ops.get();
    world->set_barrier_poll([server] { server->handle_readable(); });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  world->run_for(window);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  ParallelRun run;
  run.wall_s = wall_s;
  run.totals = world->totals();
  run.events_per_sec =
      wall_s > 0 ? static_cast<double>(run.totals.events) / wall_s : 0.0;
  run.metrics_json = obs::to_json(world->registry());
  keep = std::move(world);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return 1;
  if (options.threads.empty()) options.threads = {1};

  std::printf("Overlay-scale dynamic group discovery (future work #2):\n");
  std::printf(
      "random-waypoint crowd, %s field, %.0f simulated minutes, %s path\n\n",
      options.auto_field ? "constant-density (auto)"
                         : (std::to_string(static_cast<int>(options.field_m)) +
                            "x" + std::to_string(static_cast<int>(options.field_m)) +
                            " m")
                               .c_str(),
      options.window_min,
      options.brute ? "brute-force" : "spatial-index");
  std::printf("%8s %20s %16s %20s %14s %14s %10s %9s\n", "devices",
              "group events/dev/min", "comparisons/dev", "control msgs/dev/min",
              "bytes/dev/min", "signal evals", "cache hit", "sim/wall");
  obs::Registry dump;
  // Trajectory report: the per-N virtual-time metrics are seed-deterministic
  // (headline, gated). Wall-clock throughput is printed, not reported.
  obs::BenchReport report;
  report.bench = "overlay_scale";
  report.env["seed"] = std::to_string(options.seed);
  report.env["window_min"] = std::to_string(options.window_min);
  report.env["field"] = options.auto_field
                            ? std::string("auto")
                            : std::to_string(options.field_m);
  report.env["path"] = options.brute ? "brute" : "indexed";
  report.env["shards"] = std::to_string(options.shards);
  for (int n : options.devices) {
    const Metrics m = run_crowd(options, n, dump);
    std::printf("%8d %20.2f %16.0f %20.1f %14.0f %14llu %9.0f%% %8.1fx\n", n,
                m.group_events_per_device_min, m.comparisons_per_device,
                m.control_msgs_per_device_min, m.bytes_per_device_min,
                static_cast<unsigned long long>(m.signal_evals),
                m.cache_hit_rate * 100.0, m.sim_s_per_wall_s);
    const std::string key = "n" + std::to_string(n) + ".";
    report.headline[key + "group_events_per_device_min"] =
        m.group_events_per_device_min;
    report.headline[key + "comparisons_per_device"] = m.comparisons_per_device;
    report.headline[key + "control_msgs_per_device_min"] =
        m.control_msgs_per_device_min;
    report.headline[key + "bytes_per_device_min"] = m.bytes_per_device_min;
    report.headline[key + "signal_evals"] =
        static_cast<double>(m.signal_evals);
    report.headline[key + "spatial_pairs_pruned"] =
        static_cast<double>(m.pairs_pruned);
    report.headline[key + "position_cache_hit_rate"] = m.cache_hit_rate;
  }

  // Sharded-medium sweep: the kernel-parallel hot path at city scale.
  // Every (N, threads) run must be byte-identical to the same N at
  // --threads=1 — checked right here, every run, not just in ctest.
  // PH_PROF: 0 = off, 1 (default) = deterministic Mode 1 attribution,
  // 2 = Mode 1 + wall histograms + Mode 2 sampling profiler (workers
  // register their span stacks; folded output via PH_PROF_FOLDED).
  int prof_mode = 1;
  if (const char* env = std::getenv("PH_PROF"); env != nullptr) {
    prof_mode = std::atoi(env);
  }
  // Declared before last_world: the kept world's kernel workers unregister
  // from the sampler at teardown, so the sampler must be destroyed last.
  obs::prof::WallProfiler wall_sampler;
  if (prof_mode >= 2) {
    wall_sampler.register_thread("main");
    wall_sampler.start();
  }
  std::unique_ptr<net::ParallelWorld> last_world;
  if (!options.parallel_devices.empty()) {
    const sim::Duration window = sim::minutes(options.window_min);
    std::printf(
        "\nParallel sharded medium (shards=%u, constant density, %.0f min):\n",
        options.shards, options.window_min);
    std::printf("%8s %8s %12s %12s %9s %9s %9s\n", "devices", "threads",
                "events", "events/s", "wall_s", "speedup", "forwards");
    for (int n : options.parallel_devices) {
      double base_wall = 0.0;
      std::string reference_json;
      for (unsigned threads : options.threads) {
        const ParallelRun run = run_parallel_crowd(
            options, n, threads, window, prof_mode,
            prof_mode >= 2 ? &wall_sampler : nullptr, last_world);
        if (reference_json.empty()) {
          reference_json = run.metrics_json;
          base_wall = run.wall_s;
        } else if (options.ops_socket.empty() && prof_mode < 2 &&
                   run.metrics_json != reference_json) {
          // (wall histograms are machine noise — the byte check only runs
          // with the wall plane off, like the ops/stall gauges above)
          std::fprintf(stderr,
                       "parallel determinism violation: n=%d threads=%u "
                       "diverged from threads=%u\n",
                       n, threads, options.threads.front());
          return 1;
        }
        const double speedup =
            run.wall_s > 0 && base_wall > 0 ? base_wall / run.wall_s : 0.0;
        std::printf("%8d %8u %12llu %12.0f %9.2f %8.2fx %9llu\n", n, threads,
                    static_cast<unsigned long long>(run.totals.events),
                    run.events_per_sec, run.wall_s, speedup,
                    static_cast<unsigned long long>(run.totals.forwards));
        if (threads == options.threads.front()) {
          // Deterministic per-N records (identical at every thread count,
          // so recorded once): totals and the per-shard event balance.
          const std::string np = "p" + std::to_string(n) + ".";
          report.info[np + "events"] =
              static_cast<double>(run.totals.events);
          report.info[np + "scans"] = static_cast<double>(run.totals.scans);
          report.info[np + "ops_completed"] =
              static_cast<double>(run.totals.ops_completed);
          report.info[np + "migrations"] =
              static_cast<double>(run.totals.migrations);
          report.info[np + "threads"] =
              static_cast<double>(options.threads.size());
          for (unsigned s = 0; s < options.shards; ++s) {
            report.info[np + "shard" + std::to_string(s) + ".events"] =
                static_cast<double>(
                    last_world->kernel().shard_stats(s).executed);
          }
        }
      }
    }
  }

  if (prof_mode >= 2) {
    wall_sampler.stop();
    wall_sampler.unregister_thread();
    obs::prof::dump_folded_if_requested(wall_sampler);
  }

  obs::dump_bench_report_if_requested(report, &dump);
  std::printf(
      "\nExpected shape: per-device costs grow roughly linearly with crowd\n"
      "density (pings and service queries are per-neighbour). With the\n"
      "spatial index the simulator's own cost per discovery round is O(k)\n"
      "in the neighbourhood size instead of O(N) over the whole crowd —\n"
      "compare a --brute run's `signal evals` column at equal N.\n");
  if (options.devices.empty() && last_world != nullptr) {
    // Parallel-only run: the dump of record is the sharded world itself —
    // the artifact ph_chaos_determinism byte-compares across --threads.
    if (!obs::dump_if_requested(last_world->registry(), &last_world->trace(),
                                {}, last_world->sampler())) {
      return 1;
    }
  } else if (!obs::dump_if_requested(dump)) {
    return 1;
  }
  return 0;
}
