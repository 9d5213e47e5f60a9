// fleet — 8 real PeerHood daemons on SocketTransport over UNIX-domain
// sockets, at 20x time scale. After set-up (discovery plus opening one
// session from the tester to each of the 7 hosts), the tester keeps one
// profile request outstanding on every session: a closed loop with
// concurrency 7, every host answering "profile of dev<N>". The transport,
// proto framing and peerhood sessions do the work; the sim kernel, the
// medium and the virtual-time sampler do none.
//
// Why 20x: at 200x background daemon timers compete with the requests and
// throughput turns bimodal; at 1000x set-up fails.
//
// A run is several rounds, each building a fresh fleet in its own socket
// directory (removed on every exit path), so set-up time is a median.
// Every phase has a wall-clock deadline: a set-up or a request that
// overruns fails fast with a named error instead of hanging.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "peerhood/stack.hpp"
#include "transport/socket_transport.hpp"

namespace perfbench {
namespace {

constexpr int kDevices = 8;
constexpr double kTimeScale = 20.0;
constexpr int kRounds = 3;
constexpr double kSetupDeadlineS = 20.0;
constexpr double kReplyDeadlineS = 1.0;
constexpr double kBatchSeconds = 0.02;

/// Request latencies of one batch in log-linear buckets (64 per power of
/// two, so a quantile lies within 1.6% of the exact one). Fixed size:
/// recording a reply allocates nothing.
class LatencyHistogram {
 public:
  void add(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++total_;
  }
  std::uint64_t total() const noexcept { return total_; }
  void clear() {
    counts_.fill(0);
    total_ = 0;
  }
  double quantile_us(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) return midpoint_ns(i) / 1e3;
    }
    return midpoint_ns(counts_.size() - 1) / 1e3;
  }

 private:
  static constexpr std::uint64_t kSub = 64;
  static std::size_t index(std::uint64_t ns) {
    if (ns < kSub) return ns;
    const int e = std::bit_width(ns) - 1;  // >= 6
    return static_cast<std::size_t>(e - 5) * kSub + ((ns >> (e - 6)) - kSub);
  }
  static double midpoint_ns(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int e = static_cast<int>(i / kSub) + 5;
    const double mantissa = static_cast<double>(i % kSub + kSub) + 0.5;
    return std::ldexp(mantissa, e - 6);
  }
  std::array<std::uint64_t, 59 * kSub> counts_{};
  std::uint64_t total_ = 0;
};

ph::net::TechProfile quick_bt() {
  ph::net::TechProfile p = ph::net::bluetooth_2_0();
  p.inquiry_duration = ph::sim::milliseconds(300);
  p.inquiry_detect_prob = 1.0;
  p.connect_latency = ph::sim::milliseconds(30);
  p.base_latency = ph::sim::milliseconds(5);
  return p;
}

ph::net::TechProfile quick_wlan() {
  ph::net::TechProfile p = ph::net::wlan_80211b();
  p.inquiry_duration = ph::sim::milliseconds(150);
  p.inquiry_detect_prob = 1.0;
  p.connect_latency = ph::sim::milliseconds(15);
  p.base_latency = ph::sim::milliseconds(2);
  return p;
}

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Pumps the fleet's event loop until `done()` or the wall-clock `until`.
template <typename Pred>
bool pump_until(ph::transport::Scheduler& scheduler, Pred done,
                Clock::time_point until) {
  while (!done()) {
    if (Clock::now() >= until) return false;
    scheduler.run_until(scheduler.now() + ph::sim::milliseconds(50));
  }
  return true;
}

/// Removes the round's socket directory however the round ends.
struct SocketDir {
  std::string path;
  ~SocketDir() { ::rmdir(path.c_str()); }
};

struct FleetRound {
  std::string error;  // named failure; empty when the round ran
  double setup_s = 0.0;
  double phase_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t unanswered = 0;
  std::size_t sessions = 0;
  /// Per full batch of kBatchSeconds: requests per second and latency
  /// p50 / p99.
  std::vector<double> batch_rate, batch_p50_us, batch_p99_us;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;
};

FleetRound fleet_round(const Options& options, int round, double phase_s,
                       Tracer& tracer, ph::obs::Registry& aggregate,
                       Clock::time_point deadline) {
  FleetRound out;
  const SocketDir dir{options.out_dir + "/fleet-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(round)};
  const auto setup_start = Clock::now();
  const auto setup_deadline =
      std::min(deadline, after(kSetupDeadlineS));
  std::optional<Tracer::Scope> setup_span;
  setup_span.emplace(tracer, "fleet.setup", round);

  ph::transport::SocketTransportConfig config;
  config.socket_dir = dir.path;
  config.time_scale = kTimeScale;
  config.seed = options.seed;
  ph::transport::SocketTransport transport(config);
  ph::transport::Scheduler& scheduler = transport.scheduler();

  ph::peerhood::DaemonConfig daemon_config;
  daemon_config.inquiry_interval = ph::sim::seconds(1);
  daemon_config.ping_interval = ph::sim::milliseconds(500);
  daemon_config.reply_timeout = ph::sim::milliseconds(250);
  std::vector<std::unique_ptr<ph::peerhood::Stack>> stacks;
  for (int i = 0; i < kDevices; ++i) {
    const Tracer::Scope span(tracer, "peerhood.stack_build", round);
    stacks.push_back(std::make_unique<ph::peerhood::Stack>(
        ph::peerhood::StackConfig{}
            .with_name("dev" + std::to_string(i))
            .with_radios({quick_bt(), quick_wlan()})
            .with_daemon(daemon_config)
            .with_transport(transport)));
  }

  // Every host answers any request with its own profile string.
  std::vector<ph::peerhood::Connection> hosted;
  for (int i = 1; i < kDevices; ++i) {
    ph::peerhood::Stack& stack = *stacks[i];
    const ph::Bytes profile = ph::to_bytes("profile of " + stack.name());
    const bool registered = bool(stack.library().register_service(
        "community", {{"user", stack.name()}},
        [&hosted, profile](ph::peerhood::Connection connection) {
          hosted.push_back(connection);
          connection.on_message(
              [connection, profile](ph::BytesView) mutable {
                connection.send(profile);
              });
        }));
    if (!registered) {
      out.error = "fleet.setup: service registration failed";
      return out;
    }
  }

  // Set-up: discovery, then one session per host.
  ph::peerhood::Stack& tester = *stacks[0];
  if (!pump_until(scheduler,
                  [&] {
                    return tester.library().find_service("community").size() ==
                           kDevices - 1;
                  },
                  setup_deadline)) {
    out.error = "fleet.setup: discovery timed out";
    return out;
  }
  std::vector<ph::peerhood::Connection> sessions;
  std::vector<ph::Bytes> expected;
  for (const auto& [device, service] :
       tester.library().find_service("community")) {
    ph::peerhood::Connection connection;
    bool failed = false;
    tester.library().connect(
        device.id, "community", {},
        [&](ph::Result<ph::peerhood::Connection> result) {
          if (result.ok()) {
            connection = *result;
          } else {
            failed = true;
          }
        });
    if (!pump_until(scheduler, [&] { return connection.valid() || failed; },
                    setup_deadline) ||
        failed) {
      out.error = "fleet.setup: session open failed or timed out";
      return out;
    }
    sessions.push_back(connection);
    expected.push_back(ph::to_bytes("profile of " + device.name));
  }
  out.sessions = sessions.size();
  setup_span.reset();
  out.setup_s = seconds_between(setup_start, Clock::now());

  // Request phase: a closed loop, one request outstanding per session.
  // Latency runs from the call to Connection::send to the reply reaching
  // the handler below.
  const ph::Bytes request = ph::to_bytes("profile?");
  const std::size_t n = sessions.size();
  std::vector<Clock::time_point> sent_at(n);
  std::vector<bool> outstanding(n, false);
  std::vector<Tracer::Token> request_span(n);
  std::uint64_t next_request = 0;
  bool sending = true;
  LatencyHistogram batch;
  const auto send = [&](std::size_t i) {
    outstanding[i] = true;
    if (tracer.enabled()) {
      request_span[i] = tracer.open("fleet.request", next_request, 0);
      const Tracer::Token call = tracer.open(
          "peerhood.send", next_request, request_span[i].log_index);
      sent_at[i] = Clock::now();
      sessions[i].send(request);
      tracer.close(call);
    } else {
      sent_at[i] = Clock::now();
      sessions[i].send(request);
    }
    ++next_request;
  };
  for (std::size_t i = 0; i < n; ++i) {
    sessions[i].on_message([&, i](ph::BytesView reply) {
      const auto now = Clock::now();
      if (!outstanding[i]) return;  // answered after its deadline
      outstanding[i] = false;
      batch.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - sent_at[i])
              .count()));
      if (tracer.enabled()) tracer.close(request_span[i]);
      ++out.completed;
      if (!std::equal(reply.begin(), reply.end(), expected[i].begin(),
                      expected[i].end())) {
        ++out.wrong;
      }
      if (sending) send(i);
    });
  }

  const double cpu_start = cpu_seconds();
  const std::uint64_t allocs_start = allocations();
  const auto phase_start = Clock::now();
  const auto phase_end =
      std::min(deadline, phase_start +
                             std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(phase_s)));
  const auto overdue = [&] {
    const auto now = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (outstanding[i] && seconds_between(sent_at[i], now) > kReplyDeadlineS) {
        return true;
      }
    }
    return false;
  };
  {
    const Tracer::Scope span(tracer, "fleet.requests", round);
    for (std::size_t i = 0; i < n; ++i) send(i);
    auto batch_start = Clock::now();
    while (Clock::now() < phase_end) {
      scheduler.run_until(scheduler.now() + ph::sim::milliseconds(50));
      if (overdue()) {
        out.error = "fleet.request: reply deadline exceeded";
        break;
      }
      const auto now = Clock::now();
      const double batch_s = seconds_between(batch_start, now);
      if (batch_s >= kBatchSeconds) {
        out.batch_rate.push_back(static_cast<double>(batch.total()) / batch_s);
        out.batch_p50_us.push_back(batch.quantile_us(0.50));
        out.batch_p99_us.push_back(batch.quantile_us(0.99));
        batch.clear();
        batch_start = now;
      }
    }
    sending = false;
    // Drain: every request still in flight must be answered in time.
    pump_until(scheduler,
               [&] {
                 return std::none_of(outstanding.begin(), outstanding.end(),
                                     [](bool o) { return o; });
               },
               after(kReplyDeadlineS));
  }
  const auto phase_stop = Clock::now();
  out.phase_s = seconds_between(phase_start, phase_stop);
  out.cpu_s = cpu_seconds() - cpu_start;
  out.allocs = allocations() - allocs_start;
  out.unanswered = static_cast<std::uint64_t>(
      std::count(outstanding.begin(), outstanding.end(), true));

  for (ph::peerhood::Connection& session : sessions) session.close();
  scheduler.run_until(scheduler.now() + ph::sim::milliseconds(100));
  aggregate.merge_from(transport.registry());
  return out;
}

}  // namespace

void run_fleet(const Options& options, Tracer& tracer, Result& result) {
  const auto start = Clock::now();
  const auto deadline = options.deadline(start);
  result.params = {{"devices", std::to_string(kDevices)},
                   {"time_scale", "20"},
                   {"rounds", std::to_string(kRounds)},
                   {"concurrency", std::to_string(kDevices - 1)},
                   {"loop", "closed"},
                   {"reply_deadline_s", "1"}};

  ph::obs::Registry aggregate;
  std::vector<FleetRound> rounds;
  for (int round = 0; round < kRounds; ++round) {
    rounds.push_back(fleet_round(options, round, options.seconds / kRounds,
                                 tracer, aggregate, deadline));
  }

  std::vector<double> setups, rates, p50s, p99s;
  std::uint64_t completed = 0;
  double cpu_s = 0.0, phase_s = 0.0;
  std::uint64_t allocs = 0;
  for (const FleetRound& round : rounds) {
    if (!round.error.empty()) {
      // A set-up that fails counts as one failed operation; a request
      // phase that fails also fails its outstanding requests below.
      if (round.sessions == 0) {
        result.check(false, round.error);
        continue;
      }
      result.fail(round.error);
    }
    result.check(round.sessions == kDevices - 1,
                 "fleet.setup: not every host got a session");
    result.attempted += round.completed + round.unanswered;
    for (std::uint64_t i = 0; i < round.wrong; ++i) {
      result.fail("fleet.request: reply differs from the host's profile");
    }
    for (std::uint64_t i = 0; i < round.unanswered; ++i) {
      result.fail("fleet.request: unanswered at the end of the phase");
    }
    setups.push_back(round.setup_s);
    rates.insert(rates.end(), round.batch_rate.begin(), round.batch_rate.end());
    p50s.insert(p50s.end(), round.batch_p50_us.begin(),
                round.batch_p50_us.end());
    p99s.insert(p99s.end(), round.batch_p99_us.begin(),
                round.batch_p99_us.end());
    completed += round.completed;
    cpu_s += round.cpu_s;
    phase_s += round.phase_s;
    allocs += round.allocs;
  }
  // The requests are not repeatable units, so the run is cut into short
  // batches and the fastest tenth of them stands for the uncontended loop
  // (see fastest_per_unit for why).
  result.e2e("throughput", quantile(rates, 0.9), "1/s", rates.size());
  result.e2e("latency_p50_us", quantile(p50s, 0.1), "us", p50s.size());
  result.e2e("latency_p99_us", quantile(p99s, 0.1), "us", p99s.size());
  result.e2e("setup_s", median(setups), "s", setups.size());

  if (!tracer.enabled()) return;
  const auto hist = [&](const char* name) -> const ph::obs::Histogram* {
    return aggregate.find_histogram(name);
  };
  const auto count = [&](const char* name) {
    const ph::obs::Counter* c = aggregate.find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  if (const auto* lag = hist("transport.socket.loop.lag_us")) {
    result.layer("transport.loop.lag_us_p50", lag->p50(), "us", lag->count());
    result.layer("transport.loop.lag_us_p95", lag->p95(), "us", lag->count());
  }
  if (const auto* dispatch = hist("transport.socket.loop.dispatch_us")) {
    result.layer("transport.loop.dispatch_us_p50", dispatch->p50(), "us",
                 dispatch->count());
  }
  result.layer("transport.channel_messages",
               count("transport.channel_messages"), "count");
  result.layer("transport.channel_bytes", count("transport.channel_bytes"),
               "bytes");
  result.layer("transport.socket.partial_writes",
               count("transport.socket.partial_writes"), "count");
  result.layer("transport.socket.backpressure",
               count("transport.socket.backpressure"), "count");
  result.layer("transport.cpu_busy_ratio", ratio(cpu_s, phase_s), "ratio");
  const Tracer::Totals& sends = tracer.totals("peerhood.send");
  const Tracer::Totals& builds = tracer.totals("peerhood.stack_build");
  result.layer("peerhood.send_us_p50", median(sends.call_us), "us",
               sends.calls);
  result.layer("peerhood.stack_build_us", median(builds.call_us), "us",
               builds.calls);
  result.layer("alloc.per_request",
               ratio(static_cast<double>(allocs), static_cast<double>(completed)),
               "count", completed);
}

}  // namespace perfbench
