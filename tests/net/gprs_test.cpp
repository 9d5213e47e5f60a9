// GPRS-specific behaviour: operator-gateway routing and its latency.
#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"

namespace ph::net {
namespace {

TechProfile lossless_gprs() {
  TechProfile p = gprs();
  p.frame_loss = 0.0;
  return p;
}

class GprsTest : public ::testing::Test {
 protected:
  GprsTest() : medium_(simulator_, sim::Rng(70)) {
    a_ = medium_.add_node("a", std::make_unique<sim::StaticMobility>(
                                   sim::Vec2{0, 0}));
    b_ = medium_.add_node("b", std::make_unique<sim::StaticMobility>(
                                   sim::Vec2{50'000, 0}));  // 50 km away
    radio_a_ = &medium_.add_adapter(a_, lossless_gprs());
    radio_b_ = &medium_.add_adapter(b_, lossless_gprs());
  }

  sim::Simulator simulator_;
  Medium medium_;
  NodeId a_ = 0, b_ = 0;
  Adapter* radio_a_ = nullptr;
  Adapter* radio_b_ = nullptr;
};

TEST_F(GprsTest, DatagramCrossesAnyDistance) {
  bool received = false;
  radio_b_->bind(7, [&](NodeId, BytesView) { received = true; });
  radio_a_->send_datagram(b_, 7, to_bytes("hello over the cellular network"));
  simulator_.run_until(sim::seconds(5));
  EXPECT_TRUE(received);
}

TEST_F(GprsTest, DeliveryIncludesGatewayLatency) {
  // One-way datagram time = base latency + 2 gateway hops + serialization.
  const TechProfile p = lossless_gprs();
  sim::Time delivered_at = 0;
  radio_b_->bind(7, [&](NodeId, BytesView) { delivered_at = simulator_.now(); });
  const Bytes payload(100, 1);
  const sim::Time sent_at = simulator_.now();
  radio_a_->send_datagram(b_, 7, payload);
  simulator_.run_until(sim::seconds(5));
  ASSERT_GT(delivered_at, 0u);
  const sim::Duration expected = p.base_latency + 2 * p.gateway_latency +
                                 sim::seconds(100.0 * 8 / p.bandwidth_bps);
  EXPECT_EQ(delivered_at - sent_at, expected);
}

TEST_F(GprsTest, LinkRoundTripIsSlow) {
  // A small echo over GPRS costs > 1.6 s — the latency floor behind the
  // slow SNS baseline and the thesis' "GPRS is very expensive" remark.
  transport::Channel client;
  std::shared_ptr<transport::Channel> server;
  radio_b_->listen(5, [&](transport::Channel link) {
    server = std::make_shared<transport::Channel>(link);
    server->on_receive([&](BytesView data) { server->send(data); });
  });
  radio_a_->connect(b_, 5, [&](Result<transport::Channel> link) {
    ASSERT_TRUE(link.ok());
    client = *link;
  });
  simulator_.run_until(sim::seconds(3));
  ASSERT_TRUE(client.valid());
  sim::Time echoed_at = 0;
  client.on_receive([&](BytesView) { echoed_at = simulator_.now(); });
  const sim::Time sent_at = simulator_.now();
  client.send(to_bytes("ping"));
  simulator_.run_until(simulator_.now() + sim::seconds(10));
  ASSERT_GT(echoed_at, 0u);
  const double rtt = sim::to_seconds(echoed_at - sent_at);
  EXPECT_GT(rtt, 1.5);
  EXPECT_LT(rtt, 2.5);
}

TEST_F(GprsTest, PoweredOffGprsDeviceUnreachableDespiteGateway) {
  radio_b_->set_powered(false);
  EXPECT_FALSE(medium_.reachable(a_, b_, lossless_gprs()));
  bool connected_or_failed = false;
  bool ok = false;
  radio_a_->connect(b_, 5, [&](Result<transport::Channel> link) {
    connected_or_failed = true;
    ok = link.ok();
  });
  simulator_.run_until(sim::seconds(3));
  EXPECT_TRUE(connected_or_failed);
  EXPECT_FALSE(ok);
}

TEST_F(GprsTest, SignalIsBinaryViaGateway) {
  // Cellular coverage is modelled as ubiquitous: full signal while both
  // radios are powered, zero otherwise — no distance falloff.
  EXPECT_DOUBLE_EQ(medium_.signal(a_, b_, lossless_gprs()), 1.0);
  radio_b_->set_powered(false);
  EXPECT_DOUBLE_EQ(medium_.signal(a_, b_, lossless_gprs()), 0.0);
}

}  // namespace
}  // namespace ph::net
