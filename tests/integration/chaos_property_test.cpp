// Chaos properties: under randomized radio outages and frame loss, the
// session layer must never duplicate, reorder or corrupt messages — the
// receiver sees an exact in-order prefix (or all) of what was sent, and a
// surviving session always ends up delivering everything.
#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"
#include "peerhood/stack.hpp"
#include "tests/testutil/flight_guard.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace ph::peerhood {
namespace {

using testutil::run_until;

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosTest, ExactlyOnceInOrderUnderRadioFlaps) {
  const std::uint64_t seed = GetParam();
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(seed));
  testutil::FlightGuard flight(medium);  // dump the trace ring on failure
  sim::Rng chaos(seed ^ 0xC4405EED);

  net::TechProfile bt = net::bluetooth_2_0();
  bt.inquiry_detect_prob = 1.0;
  bt.frame_loss = 0.05;  // lossy world
  net::TechProfile wlan = net::wlan_80211b();
  wlan.frame_loss = 0.05;

  StackConfig config;
  config.radios = {bt, wlan};
  config.device_name = "a";
  Stack a(medium, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
          config);
  config.device_name = "b";
  Stack b(medium, std::make_unique<sim::StaticMobility>(sim::Vec2{3, 0}),
          config);

  std::vector<int> received;
  std::shared_ptr<Connection> server;
  ASSERT_TRUE(b.library()
                  .register_service("Chaos", {},
                                    [&](Connection connection) {
                                      // Resumed-as-new sessions reuse the
                                      // same sink.
                                      server = std::make_shared<Connection>(
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
        return device.ok() && device->find_service("Chaos") != nullptr;
      },
      sim::minutes(1)));

  ConnectOptions options;
  options.resume_deadline = sim::seconds(30);
  Connection client;
  a.library().connect(b.id(), "Chaos", options,
                      [&](Result<Connection> result) {
                        ASSERT_TRUE(result.ok());
                        client = *result;
                      });
  ASSERT_TRUE(run_until(simulator, [&] { return client.valid(); },
                        sim::seconds(10)));

  // Stream 60 messages over a minute while radios flap randomly. Radios
  // are never both down longer than the resume deadline.
  constexpr int kMessages = 60;
  int sent = 0;
  std::function<void()> pump_messages = [&] {
    if (sent >= kMessages || !client.open()) return;
    client.send(to_bytes(std::to_string(sent++)));
    simulator.schedule(sim::seconds(1), pump_messages);
  };
  pump_messages();

  std::function<void()> flap = [&] {
    if (simulator.now() > sim::minutes(1.2)) return;
    // Pick a radio on either side, toggle it off for 1-4 s.
    Stack& victim = chaos.chance(0.5) ? a : b;
    const net::Technology tech = chaos.chance(0.5) ? net::Technology::bluetooth
                                                   : net::Technology::wlan;
    ASSERT_TRUE(victim.set_radio_powered(tech, false).ok());
    const sim::Duration outage = sim::seconds(chaos.uniform(1.0, 4.0));
    simulator.schedule(outage, [&victim, tech] {
      ASSERT_TRUE(victim.set_radio_powered(tech, true).ok());
    });
    simulator.schedule(outage + sim::seconds(chaos.uniform(1.0, 3.0)), flap);
  };
  simulator.schedule(sim::seconds(3), flap);

  // Let everything play out (messages end ~60 s; give recovery time).
  simulator.run_until(sim::minutes(3));

  // Property 1: no duplicates, no reordering — received is exactly
  // 0,1,2,...,k for some k.
  for (std::size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], static_cast<int>(i))
        << "seed " << seed << ": reordered or duplicated delivery";
  }
  // Property 2: a session that survived delivered everything that was sent.
  if (client.open()) {
    EXPECT_EQ(received.size(), static_cast<std::size_t>(sent))
        << "seed " << seed << ": open session lost messages";
    EXPECT_EQ(sent, kMessages);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace ph::peerhood
