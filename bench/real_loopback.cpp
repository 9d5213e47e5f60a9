// Real-socket loopback scenario (DESIGN.md "Transport abstraction").
//
// The Table-8-style operation set — search for a service, join (open a
// session), list members, fetch a profile — executed by real PeerHood
// daemon instances over SocketTransport: every frame crosses an actual
// UNIX-domain socket through the versioned proto::Frame envelope instead
// of the simulated medium. Defaults to 8 endpoints on one loopback
// rendezvous directory; the `ph_real_loopback_smoke` ctest runs exactly
// this binary.
//
//   bench_real_loopback [devices=8] [time_scale=200]
//
// time_scale compresses protocol cadences: virtual seconds per wall
// second, so discovery rounds designed for radio timescales finish in
// milliseconds of wall clock.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "peerhood/stack.hpp"
#include "transport/socket_transport.hpp"
#include "util/check.hpp"

using namespace ph;

namespace {

net::TechProfile quick_bt() {
  net::TechProfile p = net::bluetooth_2_0();
  p.inquiry_duration = sim::milliseconds(300);
  p.inquiry_detect_prob = 1.0;
  p.connect_latency = sim::milliseconds(30);
  p.base_latency = sim::milliseconds(5);
  return p;
}

net::TechProfile quick_wlan() {
  net::TechProfile p = net::wlan_80211b();
  p.inquiry_duration = sim::milliseconds(150);
  p.inquiry_detect_prob = 1.0;
  p.connect_latency = sim::milliseconds(15);
  p.base_latency = sim::milliseconds(2);
  return p;
}

struct OpTimer {
  transport::Scheduler& scheduler;
  sim::Time virtual_start;
  std::chrono::steady_clock::time_point wall_start;

  explicit OpTimer(transport::Scheduler& s)
      : scheduler(s),
        virtual_start(s.now()),
        wall_start(std::chrono::steady_clock::now()) {}

  void report(const char* op) const {
    const double virtual_s =
        sim::to_seconds(scheduler.now() - virtual_start);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    std::printf("%-22s %14.3f %14.1f\n", op, virtual_s, wall_ms);
  }
};

template <typename Pred>
bool pump_until(transport::Scheduler& scheduler, Pred pred,
                sim::Duration limit) {
  const sim::Time deadline = scheduler.now() + limit;
  while (scheduler.now() < deadline) {
    if (pred()) return true;
    scheduler.run_until(
        std::min(deadline, scheduler.now() + sim::milliseconds(100)));
  }
  return pred();
}

}  // namespace

int main(int argc, char** argv) {
  const int devices = argc > 1 ? std::atoi(argv[1]) : 8;
  const double time_scale = argc > 2 ? std::atof(argv[2]) : 200.0;
  PH_CHECK_MSG(devices >= 2, "need at least two devices");

  transport::SocketTransportConfig config;
  config.time_scale = time_scale;
  config.seed = 42;
  // Wall-clock telemetry every 50 ms: loop-lag / dispatch histograms,
  // queue-depth gauges and channel RTT probes accumulate while the
  // operations below run.
  config.sample_interval_us = 50'000;
  transport::SocketTransport transport(config);
  transport::Scheduler& scheduler = transport.scheduler();
  const auto bench_wall_start = std::chrono::steady_clock::now();

  std::printf("Real loopback: %d PeerHood daemons (transport \"%s\") in %s\n",
              devices, transport.name(), transport.socket_dir().c_str());
  std::printf("(time_scale %.0fx; every frame crosses a real UNIX-domain "
              "socket)\n\n", time_scale);

  peerhood::DaemonConfig daemon_config;
  daemon_config.inquiry_interval = sim::seconds(1);
  daemon_config.ping_interval = sim::milliseconds(500);
  daemon_config.reply_timeout = sim::milliseconds(250);

  std::vector<std::unique_ptr<peerhood::Stack>> stacks;
  for (int i = 0; i < devices; ++i) {
    stacks.push_back(std::make_unique<peerhood::Stack>(
        peerhood::StackConfig{}
            .with_name("dev" + std::to_string(i))
            .with_radios({quick_bt(), quick_wlan()})
            .with_daemon(daemon_config)
            .with_transport(transport)));
  }

  // Every device except the tester hosts the community "service": it
  // answers "members?" with its neighbour names and anything else with its
  // profile string. Accepted connections are kept alive in `hosted`.
  std::vector<peerhood::Connection> hosted;
  for (int i = 1; i < devices; ++i) {
    peerhood::Stack& stack = *stacks[i];
    const std::string profile = "profile of " + stack.name();
    PH_CHECK(bool(stack.library().register_service(
        "community", {{"user", stack.name()}},
        [&hosted, &stack, profile](peerhood::Connection connection) {
          hosted.push_back(connection);
          peerhood::Connection conn = connection;
          conn.on_message([&stack, conn, profile](BytesView request) mutable {
            if (to_text(request) == "members?") {
              std::string members;
              for (const auto& device : stack.daemon().devices()) {
                if (!members.empty()) members += ",";
                members += device.name;
              }
              conn.send(to_bytes(members));
            } else {
              conn.send(to_bytes(profile));
            }
          });
        })));
  }

  peerhood::Stack& tester = *stacks[0];
  std::printf("%-22s %14s %14s\n", "operation", "virtual (s)", "wall (ms)");

  // -- search: discovery populates the neighbour table ----------------------
  {
    OpTimer timer(scheduler);
    const bool found = pump_until(scheduler, [&] {
      return tester.library().find_service("community").size() ==
             static_cast<std::size_t>(devices - 1);
    }, sim::seconds(60));
    PH_CHECK_MSG(found, "search: not every host advertised in time");
    timer.report("search");
  }

  // -- join: one session per host, opened back to back ---------------------
  std::vector<peerhood::Connection> sessions;
  {
    OpTimer timer(scheduler);
    for (const auto& [device, service] :
         tester.library().find_service("community")) {
      peerhood::Connection conn;
      bool failed = false;
      tester.library().connect(device.id, "community", {},
                               [&](Result<peerhood::Connection> result) {
                                 if (result.ok()) {
                                   conn = *result;
                                 } else {
                                   failed = true;
                                 }
                               });
      PH_CHECK_MSG(pump_until(scheduler,
                              [&] { return conn.valid() || failed; },
                              sim::seconds(30)) && !failed,
                   "join: session open failed");
      sessions.push_back(conn);
    }
    timer.report("join");
  }
  PH_CHECK(sessions.size() == static_cast<std::size_t>(devices - 1));

  // -- member list: ask every host for its neighbour view -------------------
  {
    OpTimer timer(scheduler);
    int replies = 0;
    for (auto& session : sessions) {
      session.on_message([&replies](BytesView) { ++replies; });
      session.send(to_bytes("members?"));
    }
    PH_CHECK_MSG(pump_until(scheduler,
                            [&] { return replies == devices - 1; },
                            sim::seconds(30)),
                 "member list: missing replies");
    timer.report("member list");
  }

  // -- profile: fetch one profile string over an open session ---------------
  {
    OpTimer timer(scheduler);
    std::string profile;
    sessions[0].on_message(
        [&profile](BytesView reply) { profile = to_text(reply); });
    sessions[0].send(to_bytes("profile?"));
    PH_CHECK_MSG(pump_until(scheduler, [&] { return !profile.empty(); },
                            sim::seconds(30)),
                 "profile: no reply");
    PH_CHECK_MSG(profile.rfind("profile of ", 0) == 0,
                 "profile: unexpected payload");
    timer.report("profile");
  }

  // -- telemetry settle: keep the sessions open until the periodic scrape
  // has pinged them at least once, so the RTT histogram is never empty.
  obs::Registry& registry = transport.registry();
  const obs::Histogram& rtt = registry.histogram("transport.channel_rtt_us");
  const obs::Histogram& lag =
      registry.histogram("transport.socket.loop.lag_us");
  PH_CHECK_MSG(pump_until(scheduler, [&] { return rtt.count() > 0; },
                          sim::seconds(300)),
               "telemetry: no channel RTT samples arrived");

  for (auto& session : sessions) session.close();
  pump_until(scheduler, [] { return false; }, sim::milliseconds(500));

  PH_CHECK_MSG(lag.count() > 0, "telemetry: loop-lag histogram is empty");
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_wall_start)
          .count();

  std::printf("\ntelemetry (wall clock):\n");
  std::printf("  %-28s n=%-5llu p50=%8.1fus p95=%8.1fus p99=%8.1fus\n",
              "channel RTT", static_cast<unsigned long long>(rtt.count()),
              rtt.p50(), rtt.p95(), rtt.p99());
  std::printf("  %-28s n=%-5llu p50=%8.1fus p95=%8.1fus p99=%8.1fus\n",
              "event-loop lag", static_cast<unsigned long long>(lag.count()),
              lag.p50(), lag.p95(), lag.p99());

  std::printf("\nreal_loopback OK: devices=%d sessions=%zu "
              "channels_open=%zu wall=%.2fs\n",
              devices, sessions.size(), transport.open_channel_count(),
              wall_s);

  obs::BenchReport report;
  report.bench = "real_loopback";
  report.env["devices"] = std::to_string(devices);
  report.env["time_scale"] = std::to_string(static_cast<int>(time_scale));
  // Deterministic count only. The wall-clock RTT and loop-lag histograms
  // ride in the embedded metrics snapshot, outside the gate.
  report.headline["sessions"] = static_cast<double>(sessions.size());
  PH_CHECK(obs::dump_bench_report_if_requested(report, &registry,
                                               transport.sampler()));
  return 0;
}
