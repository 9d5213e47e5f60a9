// Transport conformance suite.
//
// Every behaviour the PeerHood middleware relies on is asserted here
// against BOTH backends — the simulated medium (net::Medium) and real
// UNIX-domain sockets (SocketTransport) — via one parameterized fixture.
// If a new backend appears, adding it to the instantiation list below is
// the whole certification step.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/medium.hpp"
#include "obs/metrics.hpp"
#include "peerhood/stack.hpp"
#include "proto/frame.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "tests/testutil/flight_guard.hpp"
#include "transport/socket_transport.hpp"
#include "util/check.hpp"

namespace ph::transport {
namespace {

// Latencies compressed so a full run (discovery + handshake + handover)
// stays well under a second of wall clock on both substrates.
net::TechProfile quick_bt() {
  net::TechProfile p = net::bluetooth_2_0();
  p.inquiry_duration = sim::milliseconds(200);
  p.inquiry_detect_prob = 1.0;
  p.connect_latency = sim::milliseconds(20);
  p.base_latency = sim::milliseconds(5);
  return p;
}

net::TechProfile quick_wlan() {
  net::TechProfile p = net::wlan_80211b();
  p.inquiry_duration = sim::milliseconds(100);
  p.inquiry_detect_prob = 1.0;
  p.connect_latency = sim::milliseconds(10);
  p.base_latency = sim::milliseconds(2);
  return p;
}

/// One world per test: a transport plus whatever substrate objects it
/// needs alive underneath.
struct World {
  virtual ~World() = default;
  virtual Transport& transport() = 0;
};

struct SimWorld final : World {
  sim::Simulator simulator;
  net::Medium medium{simulator, sim::Rng(7)};
  Transport& transport() override { return medium; }
};

struct SocketWorld final : World {
  SocketTransport socket_transport{[] {
    SocketTransportConfig config;
    // 1 virtual second per 2 wall milliseconds: the compressed protocol
    // cadences above run in tens of milliseconds of wall clock.
    config.time_scale = 500.0;
    config.seed = 7;
    return config;
  }()};
  Transport& transport() override { return socket_transport; }
};

class TransportConformance : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "sim") {
      world_ = std::make_unique<SimWorld>();
    } else {
      world_ = std::make_unique<SocketWorld>();
    }
    transport_ = &world_->transport();
    // Arm the flight recorder on the backend's own journal: a failing
    // socket-backend test dumps a Perfetto-loadable recording exactly
    // like the sim integration suites do.
    guard_ = std::make_unique<testutil::FlightGuard>(transport_->trace());
  }

  void TearDown() override { guard_.reset(); }

  /// Pumps the substrate in small virtual-time slices until `pred` holds
  /// or `limit` virtual time elapses.
  template <typename Pred>
  bool pump_until(Pred pred, sim::Duration limit,
                  sim::Duration step = sim::milliseconds(100)) {
    Scheduler& s = transport_->scheduler();
    const sim::Time deadline = s.now() + limit;
    while (s.now() < deadline) {
      if (pred()) return true;
      s.run_until(std::min(deadline, s.now() + step));
    }
    return pred();
  }

  std::unique_ptr<World> world_;
  Transport* transport_ = nullptr;
  // Declared after world_: the guard dumps from the transport's trace, so
  // it must be destroyed first.
  std::unique_ptr<testutil::FlightGuard> guard_;
};

TEST_P(TransportConformance, ReportsBackendIdentity) {
  const std::string name = transport_->name();
  EXPECT_TRUE(name == "sim" || name == "socket");
  EXPECT_EQ(name, GetParam());
}

TEST_P(TransportConformance, DatagramDelivery) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  std::vector<std::pair<DeviceId, std::string>> got;
  eb.bind(4000, [&](DeviceId src, BytesView payload) {
    got.emplace_back(src, to_text(payload));
  });
  ea.send_datagram(b, 4000, to_bytes("hello over any substrate"));
  ASSERT_TRUE(pump_until([&] { return !got.empty(); }, sim::seconds(5)));
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, a);
  EXPECT_EQ(got[0].second, "hello over any substrate");

  // Unbinding stops delivery.
  eb.unbind(4000);
  ea.send_datagram(b, 4000, to_bytes("into the void"));
  pump_until([] { return false; }, sim::seconds(1));
  EXPECT_EQ(got.size(), 1u);
}

TEST_P(TransportConformance, InquiryFindsPoweredPeers) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  const DeviceId c = transport_->add_device("c", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  transport_->add_endpoint(b, quick_bt());
  Endpoint& ec = transport_->add_endpoint(c, quick_bt());
  ec.set_powered(false);

  bool done = false;
  std::vector<DeviceId> found;
  ea.start_inquiry([&](std::vector<DeviceId> ids) {
    found = std::move(ids);
    done = true;
  });
  ASSERT_TRUE(pump_until([&] { return done; }, sim::seconds(5)));
  EXPECT_EQ(found, std::vector<DeviceId>{b});  // c is powered off, a is self
  EXPECT_GT(ea.signal_to(b), 0.0);
  EXPECT_FALSE(ec.powered());
}

TEST_P(TransportConformance, ChannelOpenExchangeClose) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  Channel server;
  std::vector<std::string> server_got;
  bool server_broke = false;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    server.on_receive([&](BytesView payload) {
      server_got.push_back(to_text(payload));
      server.send(to_bytes("ack:" + server_got.back()));
    });
    server.on_break([&] { server_broke = true; });
  });

  Channel client;
  std::vector<std::string> client_got;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.on_receive(
        [&](BytesView payload) { client_got.push_back(to_text(payload)); });
  });
  ASSERT_TRUE(pump_until([&] { return client.valid() && server.valid(); },
                         sim::seconds(5)));
  EXPECT_EQ(client.remote_node(), b);
  EXPECT_EQ(server.remote_node(), a);
  EXPECT_EQ(client.technology(), net::Technology::bluetooth);
  EXPECT_GT(client.signal(), 0.0);

  client.send(to_bytes("payload"));
  ASSERT_TRUE(pump_until([&] { return !client_got.empty(); }, sim::seconds(5)));
  EXPECT_EQ(server_got, std::vector<std::string>{"payload"});
  EXPECT_EQ(client_got, std::vector<std::string>{"ack:payload"});

  // Local close is silent locally, a break remotely.
  client.close();
  EXPECT_FALSE(client.open());
  ASSERT_TRUE(pump_until([&] { return server_broke; }, sim::seconds(5)));
}

TEST_P(TransportConformance, ChannelDeliversInOrderExactlyOnce) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  constexpr int kMessages = 64;
  std::vector<int> received;
  Channel server;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    server.on_receive([&](BytesView payload) {
      received.push_back(std::stoi(to_text(payload)));
    });
  });
  Channel client;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    for (int i = 0; i < kMessages; ++i) {
      client.send(to_bytes(std::to_string(i)));
    }
  });
  ASSERT_TRUE(pump_until(
      [&] { return received.size() == static_cast<std::size_t>(kMessages); },
      sim::seconds(10)));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(received[i], i);
}

// A peer that sends its last messages and closes in the same turn must not
// lose the tail: every frame written before the close is delivered, in
// order, before the receiver's break fires. (The socket backend once
// dropped frames drained in the same readiness event as the EOF.)
TEST_P(TransportConformance, CloseAfterSendDeliversTailBeforeBreak) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  std::vector<std::string> server_got;
  bool server_broke = false;
  bool broke_before_tail = false;
  Channel server;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    server.on_receive(
        [&](BytesView payload) { server_got.push_back(to_text(payload)); });
    server.on_break([&] {
      server_broke = true;
      broke_before_tail = server_got.size() < 3;
    });
  });
  Channel client;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.send(to_bytes("tail-1"));
    client.send(to_bytes("tail-2"));
    client.send(to_bytes("tail-3"));
    client.close();
  });
  ASSERT_TRUE(pump_until([&] { return server_broke; }, sim::seconds(10)));
  EXPECT_FALSE(broke_before_tail);
  EXPECT_EQ(server_got,
            (std::vector<std::string>{"tail-1", "tail-2", "tail-3"}));
}

// Data the peer sends immediately after the handshake may arrive coalesced
// with the handshake reply — before the caller has even seen the Channel.
// It must wait for the receive handler, not be consumed into the void.
// (The socket backend once parsed such leftover bytes inside accept/connect
// settlement, dropping them while on_receive was still unset.)
TEST_P(TransportConformance, DataBehindHandshakeWaitsForReceiveHandler) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  Channel server;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    // Fires before the client's connect callback can run: on the socket
    // backend these bytes ride right behind the channel_accept frame.
    server.send(to_bytes("greeting"));
  });
  Channel client;
  std::vector<std::string> client_got;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.on_receive(
        [&](BytesView payload) { client_got.push_back(to_text(payload)); });
  });
  ASSERT_TRUE(pump_until([&] { return !client_got.empty(); }, sim::seconds(5)));
  EXPECT_EQ(client_got, std::vector<std::string>{"greeting"});
}

TEST_P(TransportConformance, ConnectErrors) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  transport_->add_endpoint(b, quick_bt());

  // Nobody listening on the port: connect_failed.
  bool refused = false;
  ea.connect(b, 6000, [&](Result<Channel> result) {
    ASSERT_FALSE(bool(result));
    EXPECT_EQ(result.error().code, Errc::connect_failed);
    refused = true;
  });
  ASSERT_TRUE(pump_until([&] { return refused; }, sim::seconds(5)));

  // Device that has no endpoint at all: unreachable.
  bool unreachable = false;
  ea.connect(b + 100, 6000, [&](Result<Channel> result) {
    ASSERT_FALSE(bool(result));
    EXPECT_EQ(result.error().code, Errc::device_unreachable);
    unreachable = true;
  });
  ASSERT_TRUE(pump_until([&] { return unreachable; }, sim::seconds(5)));
}

TEST_P(TransportConformance, PowerOffBreaksChannels) {
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, quick_bt());
  Endpoint& eb = transport_->add_endpoint(b, quick_bt());

  Channel server;
  eb.listen(5000, [&](Channel channel) { server = channel; });
  Channel client;
  bool client_broke = false;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.on_break([&] { client_broke = true; });
  });
  ASSERT_TRUE(pump_until([&] { return client.valid() && server.valid(); },
                         sim::seconds(5)));

  eb.set_powered(false);
  ASSERT_TRUE(pump_until([&] { return client_broke; }, sim::seconds(5)));
  EXPECT_FALSE(client.open());
  EXPECT_EQ(ea.signal_to(b), 0.0);
}

// The whole middleware over both substrates: two devices discover each
// other, a session opens, the carrying radio dies on both sides, and the
// session resumes over the second radio without losing a message.
TEST_P(TransportConformance, SessionResumesAfterRadioDrop) {
  using peerhood::Connection;
  using peerhood::Stack;
  using peerhood::StackConfig;

  peerhood::DaemonConfig daemon_config;
  daemon_config.inquiry_interval = sim::seconds(1);
  daemon_config.ping_interval = sim::milliseconds(500);
  daemon_config.reply_timeout = sim::milliseconds(200);

  Stack alpha(StackConfig{}
                  .with_name("alpha")
                  .with_radios({quick_bt(), quick_wlan()})
                  .with_daemon(daemon_config)
                  .with_transport(*transport_));
  Stack beta(StackConfig{}
                 .with_name("beta")
                 .with_radios({quick_bt(), quick_wlan()})
                 .with_daemon(daemon_config)
                 .with_transport(*transport_));

  std::vector<std::string> beta_got;
  Connection beta_side;
  ASSERT_TRUE(bool(beta.library().register_service(
      "echo", {}, [&](Connection connection) {
        beta_side = connection;
        beta_side.on_message(
            [&](BytesView payload) { beta_got.push_back(to_text(payload)); });
      })));

  ASSERT_TRUE(pump_until(
      [&] { return !alpha.library().find_service("echo").empty(); },
      sim::seconds(30)));

  Connection conn;
  peerhood::ConnectOptions options;
  options.resume_retry_interval = sim::milliseconds(100);
  options.monitor_interval = sim::milliseconds(200);
  alpha.library().connect(beta.id(), "echo", options,
                          [&](Result<Connection> result) {
                            ASSERT_TRUE(bool(result))
                                << result.error().to_string();
                            conn = *result;
                          });
  ASSERT_TRUE(pump_until([&] { return conn.valid(); }, sim::seconds(10)));

  conn.send(to_bytes("before-drop"));
  ASSERT_TRUE(
      pump_until([&] { return beta_got.size() == 1; }, sim::seconds(10)));

  // Kill the radio carrying the session on BOTH devices; the session must
  // hop to the remaining technology and keep delivering.
  const net::Technology carrying = conn.current_technology();
  ASSERT_TRUE(bool(alpha.set_radio_powered(carrying, false)));
  ASSERT_TRUE(bool(beta.set_radio_powered(carrying, false)));
  conn.send(to_bytes("after-drop"));
  ASSERT_TRUE(
      pump_until([&] { return beta_got.size() == 2; }, sim::seconds(30)));
  EXPECT_GE(conn.handover_count(), 1);
  EXPECT_NE(conn.current_technology(), carrying);
  EXPECT_EQ(beta_got[0], "before-drop");
  EXPECT_EQ(beta_got[1], "after-drop");

  conn.close();
  pump_until([&] { return !beta_side.open(); }, sim::seconds(5));
}

// A delivered payload views the received frame. The contract: it stays
// valid for the whole handler call, even when the handler closes its own
// connection and sends the very bytes it was handed on another one.
TEST_P(TransportConformance, HandlerClosesItsConnectionAndSendsOnAnother) {
  using peerhood::Connection;
  using peerhood::Stack;
  using peerhood::StackConfig;

  peerhood::DaemonConfig daemon_config;
  daemon_config.inquiry_interval = sim::seconds(1);
  daemon_config.ping_interval = sim::milliseconds(500);
  daemon_config.reply_timeout = sim::milliseconds(200);
  Stack alpha(StackConfig{}
                  .with_name("alpha")
                  .with_radios({quick_bt()})
                  .with_daemon(daemon_config)
                  .with_transport(*transport_));
  Stack beta(StackConfig{}
                 .with_name("beta")
                 .with_radios({quick_bt()})
                 .with_daemon(daemon_config)
                 .with_transport(*transport_));

  // beta echoes every message back on the connection it came in on.
  std::vector<std::shared_ptr<Connection>> held;
  ASSERT_TRUE(bool(beta.library().register_service(
      "echo", {}, [&](Connection connection) {
        auto conn = std::make_shared<Connection>(connection);
        held.push_back(conn);
        conn->on_message([conn](BytesView payload) { conn->send(payload); });
      })));
  ASSERT_TRUE(pump_until(
      [&] { return !alpha.library().find_service("echo").empty(); },
      sim::seconds(30)));

  Connection first, second;
  const auto open = [&](Connection& into) {
    alpha.library().connect(beta.id(), "echo", {},
                            [&](Result<Connection> result) {
                              ASSERT_TRUE(bool(result))
                                  << result.error().to_string();
                              into = *result;
                            });
  };
  open(first);
  open(second);
  ASSERT_TRUE(pump_until([&] { return first.valid() && second.valid(); },
                         sim::seconds(10)));

  std::vector<std::string> on_first, on_second;
  first.on_message([&](BytesView payload) {
    first.close();  // releases this very handler
    on_first.push_back(to_text(payload));
    second.send(payload);  // the view must still hold the frame
    on_first.push_back(to_text(payload));
  });
  second.on_message(
      [&](BytesView payload) { on_second.push_back(to_text(payload)); });
  first.send(to_bytes("relay me"));
  ASSERT_TRUE(
      pump_until([&] { return !on_second.empty(); }, sim::seconds(10)));
  EXPECT_EQ(on_first,
            (std::vector<std::string>{"relay me", "relay me"}));
  EXPECT_EQ(on_second, std::vector<std::string>{"relay me"});
  EXPECT_FALSE(first.open());
  EXPECT_TRUE(second.open());

  second.close();
  pump_until([&] { return held.size() == 2 && !held[1]->open(); },
             sim::seconds(5));
  for (auto& conn : held) conn->close();  // break the echo handlers' cycles
}

// The common `transport.*` counters mean the same thing on every backend:
// one scripted exchange moves them by the same amounts on both. Datagrams
// count once per receiver when sent and once per arrival (bound port or
// not); channel messages count when sent on an open channel, channel bytes
// when sent and when delivered; a break counts on each side that observes
// it, so a local close counts once, at the peer.
TEST_P(TransportConformance, CountsTheSameExchangeTheSame) {
  net::TechProfile wlan = quick_wlan();
  wlan.frame_loss = 0.0;  // every datagram arrives on both substrates
  const DeviceId a = transport_->add_device("a", nullptr);
  const DeviceId b = transport_->add_device("b", nullptr);
  const DeviceId c = transport_->add_device("c", nullptr);
  Endpoint& ea = transport_->add_endpoint(a, wlan);
  Endpoint& eb = transport_->add_endpoint(b, wlan);
  Endpoint& ec = transport_->add_endpoint(c, wlan);

  const auto counters = [&] {
    std::map<std::string, std::uint64_t> values;
    for (const auto& [name, counter] : transport_->registry().counters()) {
      if (name.starts_with("transport.") &&
          !name.starts_with("transport.socket.")) {
        values[name] = counter->value();
      }
    }
    return values;
  };
  const auto before = counters();

  int b_got = 0, c_got = 0;
  eb.bind(4000, [&](DeviceId, BytesView) { ++b_got; });
  ec.bind(4000, [&](DeviceId, BytesView) { ++c_got; });
  ea.send_datagram(b, 4000, to_bytes("bound"));      // 5 bytes
  ea.send_datagram(b, 4001, to_bytes("unbound"));    // 7 bytes, no handler
  ea.broadcast_datagram(4000, to_bytes("everyone"));  // 8 bytes, to b and c
  ASSERT_TRUE(
      pump_until([&] { return b_got == 2 && c_got == 1; }, sim::seconds(5)));

  Channel server;
  int server_got = 0;
  bool server_broke = false;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    server.on_receive([&](BytesView) {
      ++server_got;
      server.send(to_bytes("pong"));  // 4 bytes each
    });
    server.on_break([&] { server_broke = true; });
  });
  Channel client;
  int client_got = 0;
  ea.connect(b, 5000, [&](Result<Channel> result) {
    ASSERT_TRUE(bool(result)) << result.error().to_string();
    client = *result;
    client.on_receive([&](BytesView) { ++client_got; });
    for (int i = 0; i < 3; ++i) client.send(to_bytes("ping!"));  // 5 bytes
  });
  ASSERT_TRUE(pump_until([&] { return server_got == 3 && client_got == 3; },
                         sim::seconds(5)));
  client.close();
  ASSERT_TRUE(pump_until([&] { return server_broke; }, sim::seconds(5)));

  auto delta = counters();
  for (auto& [name, value] : delta) value -= before.at(name);
  const std::map<std::string, std::uint64_t> expected = {
      {"transport.bad_frames", 0},
      {"transport.channel_bytes", 2 * (3 * 5 + 3 * 4)},
      {"transport.channel_messages", 6},
      {"transport.channels_accepted", 1},
      {"transport.channels_broken", 1},
      {"transport.channels_opened", 1},
      {"transport.datagram_bytes", 5 + 7 + 2 * 8},
      {"transport.datagrams_received", 4},
      {"transport.datagrams_sent", 4},
  };
  EXPECT_EQ(delta, expected);
}

// Both schedulers keep their timers in a sim::TimerWheelQueue and answer
// pending/cancel from its cell stamps. A handle is pending until its
// event fires or is cancelled; cancelling twice, or cancelling the
// never-armed EventId{}, is false; and the handle of a fired event cannot
// reach the later event that took over its queue cell.
TEST_P(TransportConformance, SchedulerCancelsAndReportsPending) {
  Scheduler& s = transport_->scheduler();
  EXPECT_FALSE(s.cancel(sim::EventId{}));
  EXPECT_FALSE(s.pending(sim::EventId{}));

  int kept = 0;
  int dropped = 0;
  int later_runs = 0;
  sim::EventId later{};
  const sim::EventId keep = s.schedule(sim::milliseconds(10), [&] {
    ++kept;
    // The queue frees a timer's cell before running it and hands out
    // cells last-freed first, so this timer takes over `keep`'s cell.
    later = s.schedule(sim::milliseconds(10), [&] { ++later_runs; });
  });
  const sim::EventId drop =
      s.schedule(sim::milliseconds(10), [&] { ++dropped; });
  ASSERT_NE(keep, sim::EventId{});
  ASSERT_NE(keep, drop);
  EXPECT_TRUE(s.pending(keep));
  EXPECT_TRUE(s.pending(drop));
  EXPECT_TRUE(s.cancel(drop));
  EXPECT_FALSE(s.pending(drop));
  EXPECT_FALSE(s.cancel(drop));
  EXPECT_TRUE(s.pending(keep));

  ASSERT_TRUE(pump_until([&] { return kept > 0; }, sim::seconds(5),
                         sim::milliseconds(5)));
  EXPECT_FALSE(s.pending(keep));
  ASSERT_NE(later, sim::EventId{});
  constexpr sim::EventId kCellMask =
      (sim::EventId{1} << sim::TimerWheelQueue::kCellBits) - 1;
  EXPECT_EQ(later & kCellMask, keep & kCellMask)
      << "the later timer did not reuse the fired one's cell";
  EXPECT_NE(later, keep);
  EXPECT_FALSE(s.cancel(keep)) << "a fired handle reached a later timer";
  EXPECT_TRUE(s.pending(later));

  ASSERT_TRUE(pump_until([&] { return later_runs > 0; }, sim::seconds(5),
                         sim::milliseconds(5)));
  s.run_for(sim::milliseconds(50));
  EXPECT_EQ(kept, 1);
  EXPECT_EQ(later_runs, 1);
  EXPECT_EQ(dropped, 0);
  EXPECT_FALSE(s.pending(later));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance, ::testing::Values("sim", "socket"),
    [](const auto& info) { return std::string(info.param); });

// Both backends must register the same substrate-independent `transport.*`
// metric schema — same names, same instrument kinds — so dashboards and
// the ops plane read identically whichever substrate runs underneath.
// Socket-only internals live under `transport.socket.*` and are excluded.
TEST(TransportMetricParity, BackendsRegisterSameTransportFamilies) {
  struct Schema {
    std::vector<std::string> counters;
    std::vector<std::string> gauges;
    std::vector<std::string> histograms;
  };
  const auto common_schema = [](obs::Registry& registry) {
    Schema schema;
    const auto is_common = [](const std::string& name) {
      return name.starts_with("transport.") &&
             !name.starts_with("transport.socket.");
    };
    for (const auto& [name, counter] : registry.counters()) {
      if (is_common(name)) schema.counters.push_back(name);
    }
    for (const auto& [name, gauge] : registry.gauges()) {
      if (is_common(name)) schema.gauges.push_back(name);
    }
    for (const auto& [name, histogram] : registry.histograms()) {
      if (is_common(name)) schema.histograms.push_back(name);
    }
    return schema;
  };

  SimWorld sim_world;
  SocketWorld socket_world;
  const Schema sim_schema = common_schema(sim_world.transport().registry());
  const Schema socket_schema =
      common_schema(socket_world.transport().registry());

  EXPECT_FALSE(sim_schema.counters.empty());
  EXPECT_FALSE(sim_schema.histograms.empty());
  EXPECT_EQ(sim_schema.counters, socket_schema.counters);
  EXPECT_EQ(sim_schema.gauges, socket_schema.gauges);
  EXPECT_EQ(sim_schema.histograms, socket_schema.histograms);
}

// Socket-only: a peer that writes a length prefix over kMaxStreamFrame.
// Every path that reads a stream — accept, connect and an established
// channel — must count it in transport.bad_frames and give the stream up.
class SocketStreamPrefix : public ::testing::Test {
 protected:
  // u32 little-endian kMaxStreamFrame + 1, as a hostile peer would send it.
  static constexpr std::uint8_t kOversizePrefix[] = {0x01, 0x00, 0x00, 0x01};

  /// Owns one raw AF_UNIX stream fd.
  struct RawFd {
    int fd = -1;
    explicit RawFd(int f) : fd(f) {}
    RawFd(const RawFd&) = delete;
    RawFd& operator=(const RawFd&) = delete;
    ~RawFd() {
      if (fd >= 0) ::close(fd);
    }
  };

  // Real time: a handshake left pending past 10 s is dropped by timeout,
  // which must not be what these tests observe.
  SocketTransport transport_{[] {
    SocketTransportConfig config;
    config.seed = 7;
    return config;
  }()};

  sockaddr_un stream_addr(DeviceId device) const {
    const std::string path = transport_.socket_dir() + "/d" +
                             std::to_string(device) + ".t" +
                             std::to_string(static_cast<int>(
                                 net::Technology::bluetooth)) +
                             ".stream";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
  }

  /// A raw stream fd connected to `device`'s stream socket.
  int connect_raw(DeviceId device) const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const sockaddr_un addr = stream_addr(device);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  static void write_all(const RawFd& raw, BytesView bytes) {
    ASSERT_EQ(::send(raw.fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// True once the transport has closed its end of `raw`.
  static bool closed_by_peer(const RawFd& raw) {
    std::uint8_t byte = 0;
    return ::recv(raw.fd, &byte, 1, MSG_DONTWAIT) == 0;
  }

  std::uint64_t bad_frames() {
    return transport_.registry().counter("transport.bad_frames").value();
  }

  template <typename Pred>
  bool pump_until(Pred pred) {
    Scheduler& s = transport_.scheduler();
    const sim::Time deadline = s.now() + sim::seconds(5);
    while (!pred() && s.now() < deadline) {
      s.run_until(std::min(deadline, s.now() + sim::milliseconds(10)));
    }
    return pred();
  }
};

TEST_F(SocketStreamPrefix, OversizePrefixDropsTheAccept) {
  const DeviceId b = transport_.add_device("b", nullptr);
  Endpoint& eb = transport_.add_endpoint(b, quick_bt());
  bool accepted = false;
  eb.listen(5000, [&](Channel) { accepted = true; });

  const RawFd peer(connect_raw(b));
  write_all(peer, kOversizePrefix);
  ASSERT_TRUE(pump_until([&] { return bad_frames() == 1; }));
  EXPECT_TRUE(closed_by_peer(peer)) << "the accept was not dropped";
  EXPECT_FALSE(accepted);
}

TEST_F(SocketStreamPrefix, OversizeHandshakeReplyFailsTheConnect) {
  const DeviceId a = transport_.add_device("a", nullptr);
  Endpoint& ea = transport_.add_endpoint(a, quick_bt());
  // A fake device 99: a raw listener where its stream socket would be.
  const RawFd listener(::socket(AF_UNIX, SOCK_STREAM, 0));
  const sockaddr_un addr = stream_addr(99);
  ASSERT_EQ(::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener.fd, 1), 0);

  std::optional<Error> failed;
  ea.connect(99, 5000, [&](Result<Channel> result) {
    ASSERT_FALSE(bool(result));
    failed = result.error();
  });
  const RawFd peer(::accept(listener.fd, nullptr, nullptr));
  ::unlink(addr.sun_path);
  ASSERT_GE(peer.fd, 0);
  write_all(peer, kOversizePrefix);
  ASSERT_TRUE(pump_until([&] { return failed.has_value(); }));
  EXPECT_EQ(failed->code, Errc::protocol_error) << failed->to_string();
  EXPECT_EQ(bad_frames(), 1u);
}

TEST_F(SocketStreamPrefix, OversizePrefixBreaksAnEstablishedChannel) {
  const DeviceId b = transport_.add_device("b", nullptr);
  Endpoint& eb = transport_.add_endpoint(b, quick_bt());
  Channel server;
  bool broke = false;
  std::size_t received = 0;
  eb.listen(5000, [&](Channel channel) {
    server = channel;
    server.on_receive([&](BytesView) { ++received; });
    server.on_break([&] { broke = true; });
  });

  const RawFd peer(connect_raw(b));
  proto::Writer open;
  proto::begin_stream_frame(open, proto::FrameKind::channel_open, 6);
  open.u32(99);
  open.u16(5000);
  open.raw(kOversizePrefix);
  write_all(peer, open.data());
  ASSERT_TRUE(pump_until([&] { return broke; }));
  EXPECT_EQ(bad_frames(), 1u);
  EXPECT_EQ(received, 0u);
}

// A failing parameterized test keeps its flight recording: the suite and
// test names carry '/', and the dump file is still one file in TempDir().
TEST(FlightGuard, ParameterizedNamesMakeOneFileName) {
  const std::string name = testutil::flight_file_name(
      "Backends/TransportConformance", "PowerOffBreaksChannels/socket");
  EXPECT_EQ(name,
            "flight_Backends_TransportConformance.PowerOffBreaksChannels_"
            "socket.json");
  obs::Trace trace;
  trace.set_enabled(true);
  trace.end_span(trace.begin_span("test.span", 1, 1, "test"), 2);
  const std::string path = ::testing::TempDir() + name;
  EXPECT_TRUE(obs::dump_flight_recording(trace, "test_failure", path));
  EXPECT_EQ(::unlink(path.c_str()), 0);
}

// Socket-only: what one request/reply exchange costs the kernel. Frames a
// loop handler sends on a channel leave in one send(2) when it returns, so
// a session's reply rides with its ack, and the next request with the
// reply's ack; a read shorter than the buffer ends the recv loop. A send
// from outside the loop is written before it returns.
TEST(SocketSyscalls, RequestReplyCostsOneSendAndOneRecvPerSide) {
  using peerhood::Connection;
  using peerhood::Stack;
  using peerhood::StackConfig;

  // Its own transport at fleet's 20x, not SocketWorld's 500x: the 30 s
  // virtual budgets below are then 1.5 s of wall clock, not 60 ms, which
  // a sanitizer build's hundred round trips can outlast.
  SocketTransport transport{[] {
    SocketTransportConfig config;
    config.time_scale = 20.0;
    config.seed = 7;
    return config;
  }()};
  peerhood::DaemonConfig daemon_config;
  daemon_config.inquiry_interval = sim::seconds(1);
  daemon_config.ping_interval = sim::milliseconds(500);
  daemon_config.reply_timeout = sim::milliseconds(200);
  Stack alpha(StackConfig{}
                  .with_name("alpha")
                  .with_radios({quick_bt()})
                  .with_daemon(daemon_config)
                  .with_transport(transport));
  Stack beta(StackConfig{}
                 .with_name("beta")
                 .with_radios({quick_bt()})
                 .with_daemon(daemon_config)
                 .with_transport(transport));

  // beta answers every request with its profile, as a community host does.
  std::vector<std::shared_ptr<Connection>> held;
  ASSERT_TRUE(bool(beta.library().register_service(
      "profile", {}, [&](Connection connection) {
        auto conn = std::make_shared<Connection>(connection);
        held.push_back(conn);
        conn->on_message(
            [conn](BytesView) { conn->send(to_bytes("profile of beta")); });
      })));

  Scheduler& s = transport.scheduler();
  const auto pump_until = [&](auto pred) {
    const sim::Time deadline = s.now() + sim::seconds(30);
    while (!pred() && s.now() < deadline) {
      s.run_until(std::min(deadline, s.now() + sim::milliseconds(100)));
    }
    return pred();
  };
  ASSERT_TRUE(pump_until(
      [&] { return !alpha.library().find_service("profile").empty(); }));
  Connection conn;
  alpha.library().connect(beta.id(), "profile", {},
                          [&](Result<Connection> result) {
                            ASSERT_TRUE(bool(result))
                                << result.error().to_string();
                            conn = *result;
                          });
  ASSERT_TRUE(pump_until([&] { return conn.valid(); }));

  constexpr int kRoundTrips = 100;
  const Bytes request = to_bytes("profile?");
  int replies = 0;
  conn.on_message([&](BytesView reply) {
    EXPECT_EQ(to_text(reply), "profile of beta");
    if (++replies < kRoundTrips) conn.send(request);
  });
  obs::Counter& sends =
      transport.registry().counter("transport.socket.send_calls");
  obs::Counter& recvs =
      transport.registry().counter("transport.socket.recv_calls");
  const std::uint64_t sends_before = sends.value();
  const std::uint64_t recvs_before = recvs.value();

  conn.send(request);
  EXPECT_EQ(sends.value(), sends_before + 1)
      << "a send outside the loop must be written before it returns";
  ASSERT_TRUE(pump_until([&] { return replies == kRoundTrips; }));

  // Each exchange is one write and one read per side; the client's ack of
  // the last reply (and the server reading it) come on top. Writing every
  // frame at once and reading to EAGAIN took about twice the budget.
  constexpr std::uint64_t kAllowance = 8;
  EXPECT_LE(sends.value() - sends_before, 2u * kRoundTrips + kAllowance);
  EXPECT_LE(recvs.value() - recvs_before, 2u * kRoundTrips + kAllowance);

  conn.close();
  pump_until([&] { return held.size() == 1 && !held[0]->open(); });
  for (auto& c : held) c->close();  // break the reply handlers' cycles
}

// Socket-only: a timer that stays due cannot starve the loop. At 1000x one
// virtual millisecond is one wall microsecond, so a timer that re-arms
// every millisecond and works a few microseconds is due again before it
// returns. run_until must still return, and service the sockets meanwhile.
TEST(SocketLoop, RunUntilReturnsWhileATimerStaysDue) {
  SocketTransport transport{[] {
    SocketTransportConfig config;
    config.time_scale = 1000.0;
    config.seed = 7;
    return config;
  }()};
  const DeviceId a = transport.add_device("a", nullptr);
  const DeviceId b = transport.add_device("b", nullptr);
  Endpoint& ea = transport.add_endpoint(a, quick_wlan());
  Endpoint& eb = transport.add_endpoint(b, quick_wlan());
  int received = 0;
  eb.bind(4000, [&](DeviceId, BytesView) { ++received; });

  Scheduler& s = transport.scheduler();
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    s.schedule(sim::milliseconds(1), tick);
    // Work past the re-armed timer's due point: it is due on return.
    const auto busy_until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(5);
    while (std::chrono::steady_clock::now() < busy_until) {
    }
  };
  s.schedule(sim::milliseconds(1), tick);
  ea.send_datagram(b, 4000, to_bytes("hello"));

  s.run_until(s.now() + sim::milliseconds(100));
  EXPECT_GT(ticks, 0);
  EXPECT_EQ(received, 1) << "the sockets were starved";
}

// Socket-only: a run killed before its destructor (SIGKILL, a ctest
// timeout) cannot remove its rendezvous directory, so the next transport
// that makes one removes it: the dead run's directory records its pid.
TEST(SocketDebris, KilledRunsDirectoryIsRemovedByTheNextTransport) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // A two-stack world with both daemons bound and discovering, then a
    // death that runs no destructor.
    ::close(pipe_fds[0]);
    SocketTransport transport{[] {
      SocketTransportConfig config;
      config.time_scale = 500.0;
      config.seed = 7;
      return config;
    }()};
    peerhood::Stack alpha(peerhood::StackConfig{}
                              .with_name("alpha")
                              .with_radios({quick_bt()})
                              .with_transport(transport));
    peerhood::Stack beta(peerhood::StackConfig{}
                             .with_name("beta")
                             .with_radios({quick_bt()})
                             .with_transport(transport));
    Scheduler& s = transport.scheduler();
    s.run_until(s.now() + sim::seconds(1));
    const std::string& dir = transport.socket_dir();
    if (::write(pipe_fds[1], dir.data(), dir.size()) !=
        static_cast<ssize_t>(dir.size())) {
      ::_exit(1);
    }
    ::close(pipe_fds[1]);
    ::kill(::getpid(), SIGKILL);
    ::_exit(1);
  }
  ::close(pipe_fds[1]);
  std::string dir;
  char buf[256];
  for (ssize_t n; (n = ::read(pipe_fds[0], buf, sizeof(buf))) > 0;) {
    dir.append(buf, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "the child did not die by SIGKILL (status " << status << ")";
  ASSERT_FALSE(dir.empty());
  struct stat st {};
  ASSERT_EQ(::stat(dir.c_str(), &st), 0)
      << dir << ": the killed run should have left its directory behind";
  ASSERT_EQ(::stat((dir + "/pid").c_str(), &st), 0) << "no pid file in " << dir;

  SocketTransport next{SocketTransportConfig{}};
  EXPECT_NE(next.socket_dir(), dir);
  EXPECT_NE(::stat(dir.c_str(), &st), 0)
      << dir << " survived the next transport's construction";
  EXPECT_EQ(::stat(next.socket_dir().c_str(), &st), 0);
}

/// A pid-less rendezvous directory as builds before pid files left it:
/// /tmp/ph_socket_* holding `dead_sockets` socket files whose sockets were
/// bound and closed again, plus one still listening when `live_listener`.
struct PidlessDir {
  std::string path;
  std::vector<std::string> files;
  std::vector<int> live_fds;

  explicit PidlessDir(int dead_sockets, bool live_listener = false) {
    std::string tmpl = "/tmp/ph_socket_XXXXXX";
    PH_CHECK(::mkdtemp(tmpl.data()) != nullptr);
    path = tmpl;
    for (int i = 0; i < dead_sockets + (live_listener ? 1 : 0); ++i) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      PH_CHECK(fd >= 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      const std::string file =
          path + "/d" + std::to_string(i + 1) + ".t0.stream";
      std::memcpy(addr.sun_path, file.c_str(), file.size() + 1);
      PH_CHECK(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0);
      PH_CHECK(::listen(fd, 4) == 0);
      files.push_back(file);
      if (i < dead_sockets) {
        ::close(fd);  // the file stays, nothing is bound to it
      } else {
        live_fds.push_back(fd);
      }
    }
  }
  ~PidlessDir() {
    // Whatever the sweep under test kept.
    for (int fd : live_fds) ::close(fd);
    for (const std::string& file : files) ::unlink(file.c_str());
    ::rmdir(path.c_str());
  }
  /// Moves the directory's mtime an hour into the past.
  void backdate() const {
    timespec times[2];
    times[0].tv_sec = times[1].tv_sec = ::time(nullptr) - 3600;
    times[0].tv_nsec = times[1].tv_nsec = 0;
    PH_CHECK(::utimensat(AT_FDCWD, path.c_str(), times, 0) == 0);
  }
  bool exists() const {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0;
  }
};

TEST(SocketDebris, PidlessDirectoryWithDeadSocketsIsRemoved) {
  const PidlessDir debris(2);
  debris.backdate();
  ASSERT_TRUE(debris.exists());
  SocketTransport next{SocketTransportConfig{}};
  EXPECT_FALSE(debris.exists())
      << debris.path << " survived the next transport's construction";
}

TEST(SocketDebris, PidlessDirectoryWithALiveListenerIsKept) {
  const PidlessDir in_use(1, /*live_listener=*/true);
  in_use.backdate();
  SocketTransport next{SocketTransportConfig{}};
  EXPECT_TRUE(in_use.exists())
      << in_use.path << " holds a live listener but was removed";
}

TEST(SocketDebris, FreshPidlessDirectoryIsKept) {
  const PidlessDir fresh(2);
  SocketTransport next{SocketTransportConfig{}};
  EXPECT_TRUE(fresh.exists())
      << fresh.path << " is younger than the grace period but was removed";
}

}  // namespace
}  // namespace ph::transport
