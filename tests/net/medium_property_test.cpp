// Property tests for the radio medium: FIFO link ordering under random
// message sizes, signal monotonicity, and traffic accounting.
#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace ph::net {
namespace {

class LinkFifoPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkFifoPropertyTest, RandomSizedMessagesStayOrdered) {
  // Bandwidth serialization must never let a small late message overtake a
  // large earlier one, regardless of sizes and retransmissions.
  const std::uint64_t seed = GetParam();
  sim::Simulator simulator;
  Medium medium(simulator, sim::Rng(seed));
  sim::Rng sizes(seed * 31 + 7);

  TechProfile bt = bluetooth_2_0();
  bt.frame_loss = 0.1;  // plenty of retransmission jitter
  NodeId a = medium.add_node(
      "a", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  NodeId b = medium.add_node(
      "b", std::make_unique<sim::StaticMobility>(sim::Vec2{2, 0}));
  Adapter& tx = medium.add_adapter(a, bt);
  Adapter& rx = medium.add_adapter(b, bt);

  std::vector<std::uint32_t> received;
  rx.listen(5, [&](transport::Channel link) {
    auto held = std::make_shared<transport::Channel>(link);
    held->on_receive([&received, held](BytesView data) {
      // First 4 bytes carry the sequence number.
      std::uint32_t seq = 0;
      for (int i = 0; i < 4; ++i) seq |= std::uint32_t(data[i]) << (8 * i);
      received.push_back(seq);
    });
  });
  transport::Channel sender;
  tx.connect(b, 5, [&](Result<transport::Channel> link) { sender = *link; });
  simulator.run_for(sim::seconds(2));
  ASSERT_TRUE(sender.valid());

  constexpr std::uint32_t kMessages = 100;
  for (std::uint32_t seq = 0; seq < kMessages; ++seq) {
    Bytes payload(4 + sizes.uniform_int(0, 20'000));
    for (int i = 0; i < 4; ++i) {
      payload[i] = static_cast<std::uint8_t>(seq >> (8 * i));
    }
    sender.send(payload);
  }
  simulator.run_for(sim::minutes(2));
  ASSERT_EQ(received.size(), kMessages) << "seed " << seed;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    ASSERT_EQ(received[i], i) << "seed " << seed << ": FIFO violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkFifoPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(SignalPropertyTest, MonotonicallyDecreasingWithDistance) {
  sim::Simulator simulator;
  Medium medium(simulator, sim::Rng(1));
  const TechProfile bt = bluetooth_2_0();
  NodeId a = medium.add_node(
      "a", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  NodeId b = medium.add_node(
      "b", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  medium.add_adapter(a, bt);
  medium.add_adapter(b, bt);
  double previous = 1.1;
  for (double x = 0.0; x <= 12.0; x += 0.25) {
    medium.set_mobility(b, std::make_unique<sim::StaticMobility>(sim::Vec2{x, 0}));
    const double signal = medium.signal(a, b, bt);
    EXPECT_LE(signal, previous) << "at distance " << x;
    EXPECT_GE(signal, 0.0);
    EXPECT_LE(signal, 1.0);
    previous = signal;
  }
  EXPECT_DOUBLE_EQ(previous, 0.0);  // beyond range
}

TEST(TrafficAccountingTest, PerTechnologyBytesAreSeparated) {
  sim::Simulator simulator;
  Medium medium(simulator, sim::Rng(2));
  TechProfile bt = bluetooth_2_0();
  bt.frame_loss = 0.0;
  TechProfile cellular = gprs();
  cellular.frame_loss = 0.0;
  NodeId a = medium.add_node(
      "a", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  NodeId b = medium.add_node(
      "b", std::make_unique<sim::StaticMobility>(sim::Vec2{2, 0}));
  Adapter& bt_a = medium.add_adapter(a, bt);
  medium.add_adapter(b, bt);
  Adapter& gprs_a = medium.add_adapter(a, cellular);
  Adapter& gprs_b = medium.add_adapter(b, cellular);
  gprs_b.bind(9, [](NodeId, BytesView) {});

  bt_a.send_datagram(b, 9, Bytes(100, 1));
  gprs_a.send_datagram(b, 9, Bytes(250, 1));
  gprs_a.send_datagram(b, 9, Bytes(250, 1));
  simulator.run_for(sim::seconds(5));

  EXPECT_EQ(medium.traffic(Technology::bluetooth).datagram_bytes, 100u);
  EXPECT_EQ(medium.traffic(Technology::gprs).datagram_bytes, 500u);
  EXPECT_EQ(medium.traffic(Technology::gprs).messages, 2u);
  EXPECT_EQ(medium.traffic(Technology::wlan).total_bytes(), 0u);
}

TEST(TrafficAccountingTest, LinkBytesCounted) {
  sim::Simulator simulator;
  Medium medium(simulator, sim::Rng(3));
  TechProfile bt = bluetooth_2_0();
  bt.frame_loss = 0.0;
  NodeId a = medium.add_node(
      "a", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  NodeId b = medium.add_node(
      "b", std::make_unique<sim::StaticMobility>(sim::Vec2{2, 0}));
  Adapter& tx = medium.add_adapter(a, bt);
  Adapter& rx = medium.add_adapter(b, bt);
  rx.listen(5, [](transport::Channel) {});
  transport::Channel sender;
  tx.connect(b, 5, [&](Result<transport::Channel> link) { sender = *link; });
  simulator.run_for(sim::seconds(2));
  sender.send(Bytes(12'345, 1));
  simulator.run_for(sim::seconds(2));
  EXPECT_EQ(medium.traffic(Technology::bluetooth).link_bytes, 12'345u);
}

}  // namespace
}  // namespace ph::net
