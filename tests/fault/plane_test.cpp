// FaultPlane integration: every fault type actually bites the stack it
// targets, and the whole plane is deterministic — same seed, same faults,
// same metrics.
#include "net/medium.hpp"
#include "fault/plane.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "peerhood/stack.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace ph::fault {
namespace {

using testutil::run_until;

net::TechProfile clean_bt() {
  net::TechProfile p = net::bluetooth_2_0();
  p.frame_loss = 0.0;
  p.inquiry_detect_prob = 1.0;
  return p;
}

class PlaneTest : public ::testing::Test {
 protected:
  PlaneTest() : medium_(simulator_, sim::Rng(11)), plane_(medium_, sim::Rng(12)) {}

  net::NodeId add_node(const std::string& name, sim::Vec2 at,
                       net::TechProfile profile) {
    const net::NodeId id =
        medium_.add_node(name, std::make_unique<sim::StaticMobility>(at));
    medium_.add_adapter(id, profile);
    return id;
  }

  sim::Simulator simulator_;
  net::Medium medium_;
  FaultPlane plane_;
};

TEST_F(PlaneTest, InstallsAndUninstallsItself) {
  EXPECT_EQ(medium_.fault_injector(), &plane_);
  {
    // A nested plane takes over, then hands back on destruction... no —
    // destruction clears only if it is still the installed injector.
    FaultPlane other(medium_, sim::Rng(13));
    EXPECT_EQ(medium_.fault_injector(), &other);
  }
  EXPECT_EQ(medium_.fault_injector(), nullptr);
}

TEST_F(PlaneTest, BurstWindowRaisesRetransmissionsThenEnds) {
  net::TechProfile bt = clean_bt();  // zero steady-state loss
  const net::NodeId a = add_node("a", {0, 0}, bt);
  const net::NodeId b = add_node("b", {2, 0}, bt);
  transport::Channel client, server;
  medium_.adapter(b, net::Technology::bluetooth)
      ->listen(5, [&](transport::Channel link) { server = link; });
  medium_.adapter(a, net::Technology::bluetooth)
      ->connect(b, 5, [&](Result<transport::Channel> link) {
        ASSERT_TRUE(link.ok());
        client = *link;
      });
  simulator_.run_until(sim::seconds(2));
  ASSERT_TRUE(client.valid());

  int received = 0;
  server.on_receive([&](BytesView) { ++received; });
  for (int i = 0; i < 50; ++i) client.send(to_bytes("x"));
  simulator_.run_until(sim::seconds(10));
  EXPECT_EQ(received, 50);
  const std::uint64_t clean_retx = medium_.stats().counter("retransmissions");
  EXPECT_EQ(clean_retx, 0u);  // lossless profile, no injector activity

  GilbertElliottParams model;
  model.p_enter_bad = 1.0;  // burst from the first frame
  model.p_exit_bad = 0.0;
  model.loss_bad = 0.5;
  plane_.begin_burst(net::Technology::bluetooth, model, sim::seconds(30));
  EXPECT_TRUE(plane_.burst_active(net::Technology::bluetooth));
  for (int i = 0; i < 50; ++i) client.send(to_bytes("y"));
  simulator_.run_until(sim::seconds(25));
  EXPECT_EQ(received, 100);  // link ARQ still delivers everything
  EXPECT_GT(medium_.stats().counter("retransmissions"), clean_retx);

  simulator_.run_until(sim::seconds(45));  // window over
  EXPECT_FALSE(plane_.burst_active(net::Technology::bluetooth));
  const obs::Snapshot stats = plane_.stats();
  EXPECT_EQ(stats.counter("bursts_started"), 1u);
  EXPECT_EQ(stats.counter("bursts_ended"), 1u);
  EXPECT_GE(stats.counter("burst_transitions_to_bad"), 1u);
}

TEST_F(PlaneTest, LatencySpikeDelaysDelivery) {
  const net::NodeId a = add_node("a", {0, 0}, clean_bt());
  const net::NodeId b = add_node("b", {2, 0}, clean_bt());
  transport::Channel client, server;
  medium_.adapter(b, net::Technology::bluetooth)
      ->listen(5, [&](transport::Channel link) { server = link; });
  medium_.adapter(a, net::Technology::bluetooth)
      ->connect(b, 5, [&](Result<transport::Channel> link) { client = *link; });
  simulator_.run_until(sim::seconds(2));
  ASSERT_TRUE(client.valid());

  sim::Time received_at = 0;
  server.on_receive([&](BytesView) { received_at = simulator_.now(); });

  sim::Time sent_at = simulator_.now();
  client.send(to_bytes("ping"));
  simulator_.run_until(simulator_.now() + sim::seconds(5));
  ASSERT_GT(received_at, sim::Time{0});
  const sim::Duration baseline = received_at - sent_at;

  plane_.begin_latency_spike(net::Technology::bluetooth,
                             sim::milliseconds(300), sim::seconds(20));
  received_at = 0;
  sent_at = simulator_.now();
  client.send(to_bytes("ping"));
  simulator_.run_until(simulator_.now() + sim::seconds(5));
  ASSERT_GT(received_at, sim::Time{0});
  EXPECT_GE(received_at - sent_at, baseline + sim::milliseconds(300));
  EXPECT_EQ(plane_.stats().counter("latency_spikes"), 1u);
}

TEST_F(PlaneTest, SignalRampFadesHoldsAndRecovers) {
  const net::NodeId a = add_node("a", {0, 0}, clean_bt());
  const net::NodeId b = add_node("b", {2, 0}, clean_bt());
  const net::TechProfile bt = clean_bt();
  const double healthy = medium_.signal(a, b, bt);
  ASSERT_GT(healthy, 0.9);  // 2 m apart, 10 m range

  SignalRamp ramp;
  ramp.node = b;
  ramp.start = sim::seconds(10);
  ramp.ramp = sim::seconds(4);
  ramp.hold = sim::seconds(10);
  ramp.recover = sim::seconds(4);
  ramp.floor = 0.0;
  plane_.begin_signal_ramp(ramp);

  simulator_.run_until(sim::seconds(12));  // halfway down the fade
  const double fading = medium_.signal(a, b, bt);
  EXPECT_LT(fading, healthy);
  EXPECT_GT(fading, 0.0);
  simulator_.run_until(sim::seconds(18));  // mid-hold
  EXPECT_DOUBLE_EQ(medium_.signal(a, b, bt), 0.0);
  simulator_.run_until(sim::seconds(40));  // fully recovered
  EXPECT_DOUBLE_EQ(medium_.signal(a, b, bt), healthy);
  EXPECT_EQ(plane_.stats().counter("signal_ramps"), 1u);
}

// The acceptance scenario: radios flap one at a time under a scheduled
// fault plan while a seamless session streams — the session hands over to
// the surviving radio and the receiver sees every message exactly once.
TEST(PlaneSessionTest, FlapDuringTransferHandsOverWithoutLoss) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(21));
  FaultPlane plane(medium, sim::Rng(22));

  net::TechProfile bt = clean_bt();
  net::TechProfile wlan = net::wlan_80211b();
  wlan.frame_loss = 0.0;

  peerhood::StackConfig config;
  config.radios = {bt, wlan};
  config.device_name = "a";
  peerhood::Stack a(medium,
                    std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
                    config);
  config.device_name = "b";
  peerhood::Stack b(medium,
                    std::make_unique<sim::StaticMobility>(sim::Vec2{3, 0}),
                    config);

  std::vector<int> received;
  std::shared_ptr<peerhood::Connection> server;
  ASSERT_TRUE(b.library()
                  .register_service("Sink", {},
                                    [&](peerhood::Connection connection) {
                                      server =
                                          std::make_shared<peerhood::Connection>(
                                              std::move(connection));
                                      server->on_message([&](BytesView data) {
                                        received.push_back(
                                            std::stoi(to_text(data)));
                                      });
                                    })
                  .ok());
  ASSERT_TRUE(run_until(
      simulator,
      [&] {
        auto device = a.daemon().device(b.id());
        return device.ok() && device->find_service("Sink") != nullptr;
      },
      sim::minutes(1)));

  peerhood::ConnectOptions options;
  options.resume_deadline = sim::seconds(30);
  peerhood::Connection client;
  a.library().connect(b.id(), "Sink", options,
                      [&](Result<peerhood::Connection> result) {
                        ASSERT_TRUE(result.ok());
                        client = *result;
                      });
  ASSERT_TRUE(
      run_until(simulator, [&] { return client.valid(); }, sim::seconds(10)));

  constexpr int kMessages = 30;
  int sent = 0;
  const sim::Time stream_start = simulator.now();
  std::function<void()> pump = [&] {
    if (sent >= kMessages || !client.open()) return;
    client.send(to_bytes(std::to_string(sent++)));
    simulator.schedule(sim::seconds(1), pump);
  };
  pump();

  // Alternate outages on b's two radios, one at a time — whichever link
  // the session lives on goes down at some point, so it must hand over.
  Schedule schedule;
  const sim::Time base = simulator.now();
  for (int i = 0; i < 4; ++i) {
    RadioOutage outage;
    outage.node = b.id();
    outage.tech = (i % 2 == 0) ? net::Technology::bluetooth
                               : net::Technology::wlan;
    outage.start = base + sim::seconds(4) + sim::seconds(6) * i;
    outage.duration = sim::seconds(4);
    schedule.outages.push_back(outage);
  }
  plane.load(schedule);

  simulator.run_until(stream_start + sim::minutes(2));

  EXPECT_TRUE(client.open());
  EXPECT_GE(client.handover_count(), 1);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  for (std::size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], static_cast<int>(i)) << "loss or duplication";
  }
  const obs::Snapshot stats = plane.stats();
  EXPECT_EQ(stats.counter("outages_started"), 4u);
  EXPECT_EQ(stats.counter("outages_ended"), 4u);
}

// A fading radio triggers a proactive handover before the link dies: the
// session notices the weak signal and moves to the healthier radio.
TEST(PlaneSessionTest, SignalRampDrivesProactiveHandover) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(31));
  FaultPlane plane(medium, sim::Rng(32));

  net::TechProfile bt = clean_bt();
  net::TechProfile wlan = net::wlan_80211b();
  wlan.frame_loss = 0.0;

  // Start with WLAN off so the session is pinned to the (soon weak)
  // Bluetooth link; 9 m is near BT's 10 m edge, so signal is already low.
  peerhood::StackConfig config;
  config.radios = {bt, wlan};
  config.device_name = "a";
  peerhood::Stack a(medium,
                    std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
                    config);
  config.device_name = "b";
  peerhood::Stack b(medium,
                    std::make_unique<sim::StaticMobility>(sim::Vec2{9, 0}),
                    config);
  (void)a.set_radio_powered(net::Technology::wlan, false);
  (void)b.set_radio_powered(net::Technology::wlan, false);

  std::shared_ptr<peerhood::Connection> server;
  ASSERT_TRUE(b.library()
                  .register_service("Sink", {},
                                    [&](peerhood::Connection connection) {
                                      server =
                                          std::make_shared<peerhood::Connection>(
                                              std::move(connection));
                                    })
                  .ok());
  ASSERT_TRUE(run_until(
      simulator,
      [&] {
        auto device = a.daemon().device(b.id());
        return device.ok() && device->find_service("Sink") != nullptr;
      },
      sim::minutes(1)));

  peerhood::Connection client;
  a.library().connect(b.id(), "Sink", {},
                      [&](Result<peerhood::Connection> result) {
                        ASSERT_TRUE(result.ok());
                        client = *result;
                      });
  ASSERT_TRUE(
      run_until(simulator, [&] { return client.valid(); }, sim::seconds(10)));
  ASSERT_EQ(client.handover_count(), 0);

  // Both WLAN radios come back; then b starts fading. The per-node factor
  // hits every technology, but BT at 9/10 m has so little margin that it
  // drops below the weak-signal threshold while WLAN stays clearly better.
  (void)a.set_radio_powered(net::Technology::wlan, true);
  (void)b.set_radio_powered(net::Technology::wlan, true);
  SignalRamp ramp;
  ramp.node = b.id();
  ramp.start = simulator.now() + sim::seconds(2);
  ramp.ramp = sim::seconds(5);
  ramp.hold = sim::seconds(20);
  ramp.recover = sim::seconds(5);
  ramp.floor = 0.5;
  plane.begin_signal_ramp(ramp);

  ASSERT_TRUE(run_until(
      simulator, [&] { return client.handover_count() >= 1; },
      sim::minutes(1)));
  EXPECT_TRUE(client.open());
}

// Blackout: the daemon cold-restarts, its neighbour table dies with it
// (disappear events carry GoneCause::blackout), and re-discovery rebuilds
// the neighbourhood afterwards.
TEST(PlaneSessionTest, BlackoutRestartsDaemonAndRebuildsNeighbourhood) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(41));
  FaultPlane plane(medium, sim::Rng(42));

  peerhood::StackConfig config;
  config.radios = {clean_bt()};
  config.device_name = "a";
  peerhood::Stack a(medium,
                    std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
                    config);
  config.device_name = "b";
  peerhood::Stack b(medium,
                    std::make_unique<sim::StaticMobility>(sim::Vec2{3, 0}),
                    config);
  plane.set_device_hooks(b.id(), {.shutdown = [&] { b.blackout(); },
                                  .restart = [&] { b.restart(); }});

  ASSERT_TRUE(run_until(
      simulator,
      [&] {
        return a.daemon().device(b.id()).ok() &&
               b.daemon().device(a.id()).ok();
      },
      sim::minutes(1)));

  // b's own view: the blackout wipes its table with cause=blackout.
  std::vector<peerhood::GoneCause> b_causes;
  b.daemon().monitor_all([&](const peerhood::NeighbourEvent& event) {
    if (event.kind == peerhood::NeighbourEvent::Kind::disappeared) {
      b_causes.push_back(event.cause);
    }
  });
  // a's view: b goes silent and is evicted by missed pings.
  bool a_lost_b = false;
  a.daemon().monitor_all([&](const peerhood::NeighbourEvent& event) {
    if (event.kind == peerhood::NeighbourEvent::Kind::disappeared &&
        event.device.id == b.id()) {
      a_lost_b = true;
    }
  });

  plane.begin_blackout(b.id(), sim::seconds(30));
  EXPECT_FALSE(b.daemon().running());
  ASSERT_TRUE(run_until(simulator, [&] { return a_lost_b; }, sim::minutes(1)));

  // The wipe notification fires at cold boot — a dead daemon cannot speak.
  ASSERT_TRUE(run_until(
      simulator, [&] { return !b_causes.empty(); }, sim::minutes(1)));
  ASSERT_EQ(b_causes.size(), 1u);
  EXPECT_EQ(b_causes[0], peerhood::GoneCause::blackout);

  // After the restart both sides re-discover each other from scratch.
  ASSERT_TRUE(run_until(
      simulator,
      [&] {
        return b.daemon().running() && a.daemon().device(b.id()).ok() &&
               b.daemon().device(a.id()).ok();
      },
      sim::minutes(3)));
  const obs::Snapshot stats = plane.stats();
  EXPECT_EQ(stats.counter("blackouts_started"), 1u);
  EXPECT_EQ(stats.counter("blackouts_ended"), 1u);
}

// The determinism guarantee behind bench/chaos_soak: identical seeds and
// schedule yield identical fault.* and peerhood.* metric snapshots.
TEST(PlaneDeterminismTest, SameSeedSameMetrics) {
  struct RunResult {
    obs::Snapshot fault;
    obs::Snapshot peerhood;
  };
  const auto run_world = [](std::uint64_t seed) -> RunResult {
    sim::Simulator simulator;
    net::Medium medium(simulator, sim::Rng(seed));
    FaultPlane plane(medium, sim::Rng(seed ^ 0xFA17));

    net::TechProfile bt = net::bluetooth_2_0();
    bt.inquiry_detect_prob = 1.0;
    peerhood::StackConfig config;
    config.radios = {bt, net::wlan_80211b()};
    std::vector<std::unique_ptr<peerhood::Stack>> stacks;
    std::vector<net::NodeId> nodes;
    for (int i = 0; i < 3; ++i) {
      config.device_name = "dev" + std::to_string(i);
      stacks.push_back(std::make_unique<peerhood::Stack>(
          medium,
          std::make_unique<sim::StaticMobility>(
              sim::Vec2{static_cast<double>(2 * i), 0}),
          config));
      nodes.push_back(stacks.back()->id());
    }
    for (auto& stack : stacks) {
      peerhood::Stack* s = stack.get();
      plane.set_device_hooks(s->id(), {.shutdown = [s] { s->blackout(); },
                                       .restart = [s] { s->restart(); }});
    }

    RandomScheduleParams params;
    params.horizon = sim::minutes(4);
    params.nodes = nodes;
    params.technologies = {net::Technology::bluetooth, net::Technology::wlan};
    sim::Rng schedule_rng(seed + 1);
    plane.load(random_schedule(schedule_rng, params));

    simulator.run_until(sim::minutes(4));
    return {medium.registry().snapshot("fault."),
            medium.registry().snapshot("peerhood.")};
  };

  const RunResult first = run_world(77);
  const RunResult second = run_world(77);
  EXPECT_EQ(first.fault, second.fault);
  EXPECT_EQ(first.peerhood, second.peerhood);
  // Sanity: the schedule actually did something in both runs.
  EXPECT_FALSE(first.fault.empty());
  EXPECT_GT(first.peerhood.counter("daemon.d1.inquiries_started"), 0u);

  const RunResult other = run_world(78);
  EXPECT_NE(first.fault, other.fault);  // different seed, different story
}

}  // namespace
}  // namespace ph::fault
