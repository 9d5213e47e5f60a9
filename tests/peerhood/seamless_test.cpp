// Seamless connectivity (thesis Table 3): technology failover and proactive
// handover on weakening links.
#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"
#include "peerhood/stack.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace ph::peerhood {
namespace {

using testutil::run_until;

net::TechProfile deterministic_bt() {
  net::TechProfile p = net::bluetooth_2_0();
  p.frame_loss = 0.0;
  p.inquiry_detect_prob = 1.0;
  return p;
}

net::TechProfile deterministic_wlan() {
  net::TechProfile p = net::wlan_80211b();
  p.frame_loss = 0.0;
  return p;
}

class SeamlessTest : public ::testing::Test {
 protected:
  SeamlessTest() : medium_(simulator_, sim::Rng(8)) {}

  void make_dual_radio_pair(sim::Vec2 pos_b) {
    StackConfig config;
    config.radios = {deterministic_bt(), deterministic_wlan()};
    config.device_name = "a";
    a_ = std::make_unique<Stack>(
        medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
        config);
    config.device_name = "b";
    b_ = std::make_unique<Stack>(
        medium_, std::make_unique<sim::StaticMobility>(pos_b), config);
    ASSERT_TRUE(b_->library()
                    .register_service(
                        "Sink", {},
                        [this](Connection connection) {
                          server_ = std::make_shared<Connection>(
                              std::move(connection));
                          server_->on_message([this](BytesView data) {
                            received_.push_back(to_text(data));
                          });
                        })
                    .ok());
    ASSERT_TRUE(run_until(
        simulator_,
        [&] {
          auto device = a_->daemon().device(b_->id());
          return device.ok() && device->technologies.size() == 2;
        },
        sim::seconds(30)));
  }

  Connection connect(ConnectOptions options) {
    Connection client;
    a_->library().connect(b_->id(), "Sink", options,
                          [&](Result<Connection> connection) {
                            EXPECT_TRUE(connection.ok());
                            if (connection) client = *connection;
                          });
    EXPECT_TRUE(run_until(
        simulator_, [&] { return client.valid(); }, sim::seconds(5)));
    return client;
  }

  sim::Simulator simulator_;
  net::Medium medium_;
  std::unique_ptr<Stack> a_, b_;
  std::shared_ptr<Connection> server_;
  std::vector<std::string> received_;
};

TEST_F(SeamlessTest, FailsOverToSecondRadioWhenFirstDies) {
  make_dual_radio_pair({3, 0});
  Connection client = connect({});
  // Both in range: the library picks WLAN (stronger signal at 3 m of a
  // 100 m radio). Kill it mid-session.
  ASSERT_EQ(client.current_technology(), net::Technology::wlan);
  client.send(to_bytes("before"));
  ASSERT_TRUE(run_until(
      simulator_, [&] { return received_.size() == 1; }, sim::seconds(5)));

  ASSERT_TRUE(a_->set_radio_powered(net::Technology::wlan, false).ok());
  client.send(to_bytes("after"));
  ASSERT_TRUE(run_until(
      simulator_, [&] { return received_.size() == 2; }, sim::seconds(20)));
  EXPECT_EQ(received_, (std::vector<std::string>{"before", "after"}));
  EXPECT_EQ(client.current_technology(), net::Technology::bluetooth);
  EXPECT_GE(client.handover_count(), 1);
  EXPECT_TRUE(client.open());
}

TEST_F(SeamlessTest, InFlightDataRetransmittedAcrossHandover) {
  make_dual_radio_pair({3, 0});
  Connection client = connect({});
  // Queue a burst, then kill the carrying radio before most of it drains.
  for (int i = 0; i < 20; ++i) client.send(to_bytes("m" + std::to_string(i)));
  ASSERT_TRUE(a_->set_radio_powered(net::Technology::wlan, false).ok());
  ASSERT_TRUE(run_until(
      simulator_, [&] { return received_.size() == 20; }, sim::seconds(30)));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(received_[i], "m" + std::to_string(i));
  }
}

TEST_F(SeamlessTest, ServerToClientDirectionAlsoSurvives) {
  make_dual_radio_pair({3, 0});
  Connection client = connect({});
  std::vector<std::string> at_client;
  client.on_message([&](BytesView data) { at_client.push_back(to_text(data)); });
  // Ensure the server session exists before talking back.
  client.send(to_bytes("wake"));
  ASSERT_TRUE(run_until(
      simulator_, [&] { return server_ != nullptr && !received_.empty(); },
      sim::seconds(5)));
  server_->send(to_bytes("s1"));
  ASSERT_TRUE(a_->set_radio_powered(net::Technology::wlan, false).ok());
  server_->send(to_bytes("s2"));
  ASSERT_TRUE(run_until(
      simulator_, [&] { return at_client.size() == 2; }, sim::seconds(30)));
  EXPECT_EQ(at_client, (std::vector<std::string>{"s1", "s2"}));
}

TEST_F(SeamlessTest, ProactiveHandoverOnWeakSignal) {
  // Start BT-only so the session rides Bluetooth, then enable WLAN and
  // weaken Bluetooth below the threshold: the monitor should move the
  // session before the link actually breaks.
  make_dual_radio_pair({3, 0});
  ASSERT_TRUE(a_->set_radio_powered(net::Technology::wlan, false).ok());
  ConnectOptions options;
  options.monitor_interval = sim::milliseconds(200);
  Connection client = connect(options);
  ASSERT_EQ(client.current_technology(), net::Technology::bluetooth);

  ASSERT_TRUE(a_->set_radio_powered(net::Technology::wlan, true).ok());
  // b moves to 9.7 m: BT signal ~0.06 (< 0.15 threshold), WLAN ~0.99.
  medium_.set_mobility(b_->id(),
                       std::make_unique<sim::StaticMobility>(sim::Vec2{9.7, 0}));
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        return client.current_technology() == net::Technology::wlan &&
               client.handover_count() >= 1;
      },
      sim::seconds(10)));
  EXPECT_TRUE(client.open());
  // And the session still carries data.
  client.send(to_bytes("post-handover"));
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !received_.empty(); }, sim::seconds(5)));
  EXPECT_EQ(received_.back(), "post-handover");
}

TEST_F(SeamlessTest, ForcedTechnologyNeverFailsOver) {
  make_dual_radio_pair({3, 0});
  ConnectOptions options;
  options.force_technology = net::Technology::bluetooth;
  options.resume_deadline = sim::seconds(3);
  Connection client = connect(options);
  ASSERT_EQ(client.current_technology(), net::Technology::bluetooth);
  bool closed = false;
  client.on_close([&](const Error&) { closed = true; });
  // Kill Bluetooth; WLAN is available but pinned sessions must not take it.
  ASSERT_TRUE(a_->set_radio_powered(net::Technology::bluetooth, false).ok());
  ASSERT_TRUE(run_until(simulator_, [&] { return closed; }, sim::seconds(10)));
  EXPECT_NE(client.current_technology(), net::Technology::wlan);
}

TEST_F(SeamlessTest, ResumeDeadlineFiresConnectionLostWhenNoRadioReturns) {
  make_dual_radio_pair({3, 0});
  ConnectOptions options;
  options.resume_deadline = sim::seconds(5);
  Connection client = connect(options);
  Error last_error;
  bool closed = false;
  client.on_close([&](const Error& error) {
    closed = true;
    last_error = error;
  });
  // Every radio on b dies and never comes back: the backed-off resume
  // sweeps all fail and the deadline must end the session.
  const sim::Time died_at = simulator_.now();
  ASSERT_TRUE(b_->set_radio_powered(net::Technology::bluetooth, false).ok());
  ASSERT_TRUE(b_->set_radio_powered(net::Technology::wlan, false).ok());
  ASSERT_TRUE(run_until(simulator_, [&] { return closed; }, sim::minutes(1)));
  EXPECT_EQ(last_error.code, Errc::connection_lost);
  EXPECT_GE(simulator_.now() - died_at, options.resume_deadline);
  // The deadline, not the retry cadence, bounds how long we linger.
  EXPECT_LE(simulator_.now() - died_at,
            options.resume_deadline + sim::seconds(1));
  EXPECT_FALSE(client.open());
}

TEST_F(SeamlessTest, HandoverPrefersStrongestSignal) {
  make_dual_radio_pair({8, 0});
  // At 8 m: BT signal 1-(0.8)^2 = 0.36, WLAN ~0.994 — initial pick is WLAN.
  Connection client = connect({});
  ASSERT_EQ(client.current_technology(), net::Technology::wlan);
  // Drop WLAN: the only candidate is BT, still in range at 8 m.
  ASSERT_TRUE(b_->set_radio_powered(net::Technology::wlan, false).ok());
  client.send(to_bytes("x"));
  ASSERT_TRUE(run_until(
      simulator_, [&] { return !received_.empty(); }, sim::seconds(20)));
  EXPECT_EQ(client.current_technology(), net::Technology::bluetooth);
}

TEST_F(SeamlessTest, WalkOutOfBluetoothIntoWlanOnlyRange) {
  // The thesis' marquee scenario: a file transfer keeps running as the
  // peer walks from Bluetooth range (10 m) out to 40 m, where only WLAN
  // (100 m) still reaches.
  make_dual_radio_pair({2, 0});
  // start on BT
  ASSERT_TRUE(a_->set_radio_powered(net::Technology::wlan, false).ok());
  ConnectOptions options;
  options.monitor_interval = sim::milliseconds(250);
  Connection client = connect(options);
  ASSERT_EQ(client.current_technology(), net::Technology::bluetooth);
  ASSERT_TRUE(a_->set_radio_powered(net::Technology::wlan, true).ok());

  // b walks away at 1.5 m/s.
  medium_.set_mobility(b_->id(), std::make_unique<sim::LinearMobility>(
                                     sim::Vec2{2, 0}, sim::Vec2{1.5, 0.0}));
  // Stream messages the whole way.
  int sent = 0;
  std::function<void()> pump = [&] {
    if (sent >= 30 || !client.open()) return;
    client.send(to_bytes("chunk" + std::to_string(sent++)));
    simulator_.schedule(sim::seconds(1), pump);
  };
  pump();
  ASSERT_TRUE(run_until(
      simulator_, [&] { return received_.size() == 30; }, sim::minutes(2)));
  for (int i = 0; i < 30; ++i) EXPECT_EQ(received_[i], "chunk" + std::to_string(i));
  EXPECT_EQ(client.current_technology(), net::Technology::wlan);
  EXPECT_TRUE(client.open());
}

}  // namespace
}  // namespace ph::peerhood
