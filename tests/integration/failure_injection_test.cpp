// Failure injection: lossy radios, mid-operation outages and hostile
// neighbour behaviour must degrade gracefully, never corrupt state.
#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"
#include "community/app.hpp"
#include "tests/testutil/flight_guard.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace ph::community {
namespace {

using testutil::run_until;

struct Device {
  std::unique_ptr<peerhood::Stack> stack;
  std::unique_ptr<CommunityApp> app;
};

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() : medium_(simulator_, sim::Rng(31)) {}

  Device& make_device(const std::string& member, sim::Vec2 pos,
                      std::vector<std::string> interests,
                      net::TechProfile radio) {
    auto device = std::make_unique<Device>();
    peerhood::StackConfig config;
    config.device_name = member + "-ptd";
    config.radios = {radio};
    device->stack = std::make_unique<peerhood::Stack>(
        medium_, std::make_unique<sim::StaticMobility>(pos), config);
    device->app = std::make_unique<CommunityApp>(*device->stack);
    Account* account = *device->app->create_account(member, "pw");
    for (const auto& interest : interests) account->add_interest(interest);
    EXPECT_TRUE(device->app->login(member, "pw").ok());
    devices_.push_back(std::move(device));
    return *devices_.back();
  }

  sim::Simulator simulator_;
  net::Medium medium_;
  testutil::FlightGuard flight_{medium_};  // dump the trace ring on failure
  std::vector<std::unique_ptr<Device>> devices_;
};

TEST_F(FailureInjectionTest, DiscoveryCompletesOnVeryLossyRadio) {
  // 20% frame loss: service queries time out and are retried by the
  // daemon; discovery must still converge.
  net::TechProfile lossy = net::bluetooth_2_0();
  lossy.frame_loss = 0.20;
  lossy.inquiry_detect_prob = 0.9;
  Device& alice = make_device("alice", {0, 0}, {"x"}, lossy);
  make_device("bob", {3, 0}, {"x"}, lossy);
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        auto group = alice.app->groups().group("x");
        return group.ok() && group->formed();
      },
      sim::minutes(3)));
}

TEST_F(FailureInjectionTest, MessagesSurviveLossyLinks) {
  net::TechProfile lossy = net::bluetooth_2_0();
  lossy.frame_loss = 0.15;
  lossy.inquiry_detect_prob = 1.0;
  Device& alice = make_device("alice", {0, 0}, {}, lossy);
  Device& bob = make_device("bob", {3, 0}, {}, lossy);
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        return !alice.stack->library().find_service(kServiceName).empty();
      },
      sim::minutes(1)));
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    bool done = false;
    alice.app->client().send_message("bob", "s" + std::to_string(i), "body",
                                     [&](Result<void> result) {
                                       if (result.ok()) ++delivered;
                                       done = true;
                                     });
    ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::minutes(1)));
  }
  // L2CAP-style retransmission makes the links reliable: every message
  // that got a session through lands exactly once.
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(bob.app->active()->inbox().size(), 10u);
}

TEST_F(FailureInjectionTest, RpcAgainstDeadPeerFailsCleanly) {
  net::TechProfile bt = net::bluetooth_2_0();
  bt.inquiry_detect_prob = 1.0;
  Device& alice = make_device("alice", {0, 0}, {}, bt);
  Device& bob = make_device("bob", {3, 0}, {}, bt);
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        return !alice.stack->library().find_service(kServiceName).empty();
      },
      sim::minutes(1)));
  ASSERT_TRUE(
      bob.stack->set_radio_powered(net::Technology::bluetooth, false).ok());
  Error error;
  bool done = false;
  alice.app->client().view_profile("bob", [&](Result<proto::ProfileData> r) {
    ASSERT_FALSE(r.ok());
    error = r.error();
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::minutes(1)));
  // The fan-out skipped the dead device, so the member simply wasn't found.
  EXPECT_EQ(error.code, Errc::no_such_member);
}

TEST_F(FailureInjectionTest, PeerDyingMidFanoutDoesNotHangTheOperation) {
  net::TechProfile bt = net::bluetooth_2_0();
  bt.inquiry_detect_prob = 1.0;
  Device& alice = make_device("alice", {0, 0}, {}, bt);
  Device& bob = make_device("bob", {3, 0}, {}, bt);
  Device& carol = make_device("carol", {0, 3}, {}, bt);
  (void)carol;
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        return alice.stack->library().find_service(kServiceName).size() == 2;
      },
      sim::minutes(1)));
  // Kill bob right as the fan-out starts: his RPC must fail (timeout or
  // connect failure) while carol's succeeds.
  std::vector<std::string> members;
  bool done = false;
  alice.app->client().get_online_members(
      [&](Result<std::vector<std::string>> result) {
        members = *result;
        done = true;
      });
  ASSERT_TRUE(
      bob.stack->set_radio_powered(net::Technology::bluetooth, false).ok());
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::minutes(1)));
  EXPECT_EQ(members, (std::vector<std::string>{"carol"}));
}

TEST_F(FailureInjectionTest, MalformedDatagramsAreIgnoredByDaemon) {
  net::TechProfile bt = net::bluetooth_2_0();
  bt.inquiry_detect_prob = 1.0;
  Device& alice = make_device("alice", {0, 0}, {}, bt);
  // A hostile node floods the daemon control port with garbage.
  net::NodeId attacker = medium_.add_node(
      "attacker", std::make_unique<sim::StaticMobility>(sim::Vec2{1, 1}));
  net::Adapter& radio = medium_.add_adapter(attacker, bt);
  for (int i = 0; i < 50; ++i) {
    radio.send_datagram(alice.stack->id(), net::kDaemonPort,
                        Bytes{0xde, 0xad, 0xbe, 0xef});
  }
  simulator_.run_until(sim::seconds(5));
  // The daemon survives and keeps functioning.
  EXPECT_TRUE(alice.stack->daemon().running());
  EXPECT_TRUE(alice.app->server().running());
}

TEST_F(FailureInjectionTest, MalformedSessionPayloadDropsOnlyThatRequest) {
  net::TechProfile bt = net::bluetooth_2_0();
  bt.inquiry_detect_prob = 1.0;
  bt.frame_loss = 0.0;
  Device& alice = make_device("alice", {0, 0}, {}, bt);
  Device& bob = make_device("bob", {3, 0}, {}, bt);
  (void)bob;
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        return !alice.stack->library().find_service(kServiceName).empty();
      },
      sim::minutes(1)));
  // Connect to bob's community server and send a garbage request through a
  // real session.
  peerhood::Connection connection;
  alice.stack->library().connect(
      bob.stack->id(), std::string(kServiceName), {},
      [&](Result<peerhood::Connection> result) {
        ASSERT_TRUE(result.ok());
        connection = *result;
      });
  ASSERT_TRUE(run_until(
      simulator_, [&] { return connection.valid(); }, sim::seconds(10)));
  connection.send(Bytes{0xff, 0xff, 0xff});
  simulator_.run_until(simulator_.now() + sim::seconds(2));
  EXPECT_EQ(bob.app->server().stats().counter("bad_requests"), 1u);
  // The same session still serves a valid request afterwards.
  proto::Request ok_request;
  ok_request.op = proto::Opcode::ps_get_online_member_list;
  ok_request.requester = "alice";
  bool answered = false;
  connection.on_message([&](BytesView data) {
    auto response = proto::decode_response(data);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->names, (std::vector<std::string>{"bob"}));
    answered = true;
  });
  connection.send(proto::encode(ok_request));
  ASSERT_TRUE(run_until(simulator_, [&] { return answered; }, sim::seconds(10)));
}

TEST_F(FailureInjectionTest, ChunkedTransferSurvivesMidTransferHandover) {
  // The point of chunked transfers: a handover retransmits at most one
  // chunk, and the download still arrives byte-exact.
  auto make_dual = [&](const std::string& member, sim::Vec2 pos) {
    auto device = std::make_unique<Device>();
    peerhood::StackConfig config;
    config.device_name = member + "-ptd";
    net::TechProfile bt = net::bluetooth_2_0();
    bt.inquiry_detect_prob = 1.0;
    bt.frame_loss = 0.0;
    net::TechProfile wlan = net::wlan_80211b();
    wlan.frame_loss = 0.0;
    config.radios = {bt, wlan};
    device->stack = std::make_unique<peerhood::Stack>(
        medium_, std::make_unique<sim::StaticMobility>(pos), config);
    device->app = std::make_unique<CommunityApp>(*device->stack);
    Account* account = *device->app->create_account(member, "pw");
    (void)account;
    EXPECT_TRUE(device->app->login(member, "pw").ok());
    devices_.push_back(std::move(device));
    return devices_.back().get();
  };
  Device* alice = make_dual("alice", {0, 0});
  Device* bob = make_dual("bob", {3, 0});
  alice->app->active()->add_trusted("bob");
  Bytes original(400'000);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i * 13);
  }
  alice->app->active()->share_file("movie.bin", original);
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        return !bob->stack->library().find_service(kServiceName).empty();
      },
      sim::minutes(1)));
  Bytes downloaded;
  bool done = false;
  bob->app->client().fetch_content_chunked(
      "alice", "movie.bin", 32'768, nullptr, [&](Result<Bytes> result) {
        ASSERT_TRUE(result.ok()) << result.error().to_string();
        downloaded = std::move(*result);
        done = true;
      });
  // Let a few chunks flow (WLAN moves 400 kB in ~0.4 s), then kill the
  // radio carrying the session mid-stream.
  simulator_.run_until(simulator_.now() + sim::milliseconds(150));
  EXPECT_FALSE(done);
  ASSERT_TRUE(
      alice->stack->set_radio_powered(net::Technology::wlan, false).ok());
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::minutes(3)));
  EXPECT_EQ(downloaded, original);
}

TEST_F(FailureInjectionTest, DaemonRecoversAfterOwnRadioBlip) {
  net::TechProfile bt = net::bluetooth_2_0();
  bt.inquiry_detect_prob = 1.0;
  Device& alice = make_device("alice", {0, 0}, {"x"}, bt);
  make_device("bob", {3, 0}, {"x"}, bt);
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        auto group = alice.app->groups().group("x");
        return group.ok() && group->formed();
      },
      sim::minutes(1)));
  // Alice's own radio goes down for 20 s.
  ASSERT_TRUE(
      alice.stack->set_radio_powered(net::Technology::bluetooth, false).ok());
  ASSERT_TRUE(run_until(
      simulator_,
      [&] { return !alice.app->groups().group("x")->formed(); },
      sim::minutes(1)));
  ASSERT_TRUE(
      alice.stack->set_radio_powered(net::Technology::bluetooth, true).ok());
  ASSERT_TRUE(run_until(
      simulator_,
      [&] {
        auto group = alice.app->groups().group("x");
        return group.ok() && group->formed();
      },
      sim::minutes(3)));
}

}  // namespace
}  // namespace ph::community
