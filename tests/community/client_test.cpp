// CommunityClient tests: the fan-out MSC operations (Figures 11-17) against
// real servers over the simulated Bluetooth neighbourhood.
#include "net/medium.hpp"
#include "community/client.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "community/server.hpp"
#include "peerhood/stack.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace ph::community {
namespace {

using testutil::run_until;

net::TechProfile deterministic_bt() {
  net::TechProfile p = net::bluetooth_2_0();
  p.frame_loss = 0.0;
  p.inquiry_detect_prob = 1.0;
  return p;
}

/// One remote device running a logged-in PeerHoodCommunity server.
struct Peer {
  std::unique_ptr<peerhood::Stack> stack;
  ProfileStore store;
  SemanticDictionary dictionary;
  std::unique_ptr<CommunityServer> server;

  Account& account() { return *store.active(); }
};

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : medium_(simulator_, sim::Rng(11)) {
    peerhood::StackConfig config;
    config.device_name = "self-device";
    config.radios = {deterministic_bt()};
    self_ = std::make_unique<peerhood::Stack>(
        medium_, std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
        config);
    client_ = std::make_unique<CommunityClient>(self_->library(), "me");
  }

  Peer& add_peer(const std::string& member, sim::Vec2 pos,
                 std::vector<std::string> interests) {
    auto peer = std::make_unique<Peer>();
    peerhood::StackConfig config;
    config.device_name = member + "-device";
    config.radios = {deterministic_bt()};
    peer->stack = std::make_unique<peerhood::Stack>(
        medium_, std::make_unique<sim::StaticMobility>(pos), config);
    Account* account = *peer->store.create_account(member, "pw");
    for (const auto& interest : interests) account->add_interest(interest);
    (void)peer->store.login(member, "pw");
    peer->server = std::make_unique<CommunityServer>(
        peer->stack->library(), peer->store, peer->dictionary);
    EXPECT_TRUE(peer->server->start().ok());
    peers_.push_back(std::move(peer));
    return *peers_.back();
  }

  /// Waits until the client's daemon knows every peer's community service.
  void await_neighbourhood() {
    ASSERT_TRUE(run_until(
        simulator_,
        [&] {
          return self_->library().find_service(kServiceName).size() ==
                 peers_.size();
        },
        sim::seconds(30)));
  }

  sim::Simulator simulator_;
  net::Medium medium_;
  std::unique_ptr<peerhood::Stack> self_;
  std::unique_ptr<CommunityClient> client_;
  std::vector<std::unique_ptr<Peer>> peers_;
};

TEST_F(ClientTest, GetOnlineMembersUnionsAllDevices) {
  add_peer("alice", {3, 0}, {});
  add_peer("bob", {0, 3}, {});
  await_neighbourhood();
  std::vector<std::string> members;
  bool done = false;
  client_->get_online_members([&](Result<std::vector<std::string>> result) {
    ASSERT_TRUE(result.ok());
    members = *result;
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(20)));
  EXPECT_EQ(members, (std::vector<std::string>{"alice", "bob"}));
}

TEST_F(ClientTest, GetInterestListDeduplicates) {
  // Figure 12: interests are stored "if it doesn't exist already".
  add_peer("alice", {3, 0}, {"football", "movies"});
  add_peer("bob", {0, 3}, {"football", "chess"});
  await_neighbourhood();
  std::vector<std::string> interests;
  bool done = false;
  client_->get_interest_list([&](Result<std::vector<std::string>> result) {
    interests = *result;
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(20)));
  EXPECT_EQ(interests,
            (std::vector<std::string>{"chess", "football", "movies"}));
}

TEST_F(ClientTest, GetInterestedMembersFindsMatchingPeers) {
  add_peer("alice", {3, 0}, {"football"});
  add_peer("bob", {0, 3}, {"chess"});
  await_neighbourhood();
  std::vector<std::string> members;
  bool done = false;
  client_->get_interested_members(
      "football", [&](Result<std::vector<std::string>> result) {
        members = *result;
        done = true;
      });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(20)));
  EXPECT_EQ(members, (std::vector<std::string>{"alice"}));
}

TEST_F(ClientTest, ViewProfileFindsHostingDevice) {
  Peer& alice = add_peer("alice", {3, 0}, {"football"});
  alice.account().profile().display_name = "Alice A.";
  add_peer("bob", {0, 3}, {});
  await_neighbourhood();
  proto::ProfileData profile;
  bool done = false;
  client_->view_profile("alice", [&](Result<proto::ProfileData> result) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    profile = *result;
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(20)));
  EXPECT_EQ(profile.member_id, "alice");
  EXPECT_EQ(profile.display_name, "Alice A.");
  // Figure 13: the visit was recorded on alice's device.
  EXPECT_EQ(alice.account().profile().visitors,
            (std::vector<std::string>{"me"}));
}

TEST_F(ClientTest, ViewProfileOfUnknownMemberFails) {
  add_peer("alice", {3, 0}, {});
  await_neighbourhood();
  Error error;
  bool done = false;
  client_->view_profile("zoe", [&](Result<proto::ProfileData> result) {
    ASSERT_FALSE(result.ok());
    error = result.error();
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(20)));
  EXPECT_EQ(error.code, Errc::no_such_member);
}

TEST_F(ClientTest, PutProfileCommentWritesRemotely) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  add_peer("bob", {0, 3}, {});
  await_neighbourhood();
  bool done = false;
  client_->put_profile_comment("alice", "hello from me",
                               [&](Result<void> result) {
                                 EXPECT_TRUE(result.ok());
                                 done = true;
                               });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(20)));
  ASSERT_EQ(alice.account().profile().comments.size(), 1u);
  EXPECT_EQ(alice.account().profile().comments[0].author, "me");
  EXPECT_EQ(alice.account().profile().comments[0].text, "hello from me");
}

TEST_F(ClientTest, ViewTrustedFriends) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().add_trusted("bob");
  alice.account().add_trusted("carol");
  await_neighbourhood();
  std::vector<std::string> friends;
  bool done = false;
  client_->view_trusted_friends("alice",
                                [&](Result<std::vector<std::string>> result) {
                                  friends = *result;
                                  done = true;
                                });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(20)));
  EXPECT_EQ(friends, (std::vector<std::string>{"bob", "carol"}));
}

TEST_F(ClientTest, ViewSharedContentRequiresTrust) {
  // Figure 16: NOT_TRUSTED_YET for strangers.
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().share_file("notes.txt", Bytes(50, 1));
  await_neighbourhood();
  Error error;
  bool done = false;
  client_->view_shared_content(
      "alice", [&](Result<std::vector<proto::SharedItemData>> result) {
        ASSERT_FALSE(result.ok());
        error = result.error();
        done = true;
      });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(30)));
  EXPECT_EQ(error.code, Errc::not_trusted);
}

TEST_F(ClientTest, ViewSharedContentListsForTrusted) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().add_trusted("me");
  alice.account().share_file("notes.txt", Bytes(50, 1));
  alice.account().share_file("pic.jpg", Bytes(5000, 2));
  await_neighbourhood();
  std::vector<proto::SharedItemData> items;
  bool done = false;
  client_->view_shared_content(
      "alice", [&](Result<std::vector<proto::SharedItemData>> result) {
        ASSERT_TRUE(result.ok()) << result.error().to_string();
        items = *result;
        done = true;
      });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(30)));
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].name, "notes.txt");
  EXPECT_EQ(items[1].name, "pic.jpg");
}

TEST_F(ClientTest, SendMessageLandsInReceiverInbox) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  add_peer("bob", {0, 3}, {});
  await_neighbourhood();
  bool done = false;
  client_->send_message("alice", "hi", "see you at the lab",
                        [&](Result<void> result) {
                          EXPECT_TRUE(result.ok());
                          done = true;
                        });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(30)));
  ASSERT_EQ(alice.account().inbox().size(), 1u);
  EXPECT_EQ(alice.account().inbox()[0].sender, "me");
  EXPECT_EQ(alice.account().inbox()[0].body, "see you at the lab");
}

TEST_F(ClientTest, SendMessageToUnknownMemberFails) {
  add_peer("alice", {3, 0}, {});
  await_neighbourhood();
  Error error;
  bool done = false;
  client_->send_message("ghost", "s", "b", [&](Result<void> result) {
    ASSERT_FALSE(result.ok());
    error = result.error();
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(30)));
  EXPECT_EQ(error.code, Errc::no_such_member);
}

TEST_F(ClientTest, FetchContentDownloadsBytes) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().add_trusted("me");
  Bytes original(40'000);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i);
  }
  alice.account().share_file("data.bin", original);
  await_neighbourhood();
  Bytes downloaded;
  bool done = false;
  client_->fetch_content("alice", "data.bin", [&](Result<Bytes> result) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    downloaded = *result;
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(30)));
  EXPECT_EQ(downloaded, original);
}

TEST_F(ClientTest, FetchContentDeniedWithoutTrust) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().share_file("data.bin", Bytes(10, 0));
  await_neighbourhood();
  Error error;
  bool done = false;
  client_->fetch_content("alice", "data.bin", [&](Result<Bytes> result) {
    ASSERT_FALSE(result.ok());
    error = result.error();
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(30)));
  EXPECT_EQ(error.code, Errc::not_trusted);
}

TEST_F(ClientTest, FetchMissingContentFails) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().add_trusted("me");
  await_neighbourhood();
  Error error;
  bool done = false;
  client_->fetch_content("alice", "ghost.bin", [&](Result<Bytes> result) {
    ASSERT_FALSE(result.ok());
    error = result.error();
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(30)));
  EXPECT_EQ(error.code, Errc::content_not_found);
}

TEST_F(ClientTest, ChunkedFetchDeliversExactBytesWithProgress) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().add_trusted("me");
  Bytes original(120'000);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i * 7);
  }
  alice.account().share_file("big.bin", original);
  await_neighbourhood();
  Bytes downloaded;
  std::vector<std::uint64_t> progress_points;
  bool done = false;
  client_->fetch_content_chunked(
      "alice", "big.bin", 16'384,
      [&](std::uint64_t received, std::uint64_t total) {
        progress_points.push_back(received);
        EXPECT_EQ(total, original.size());
      },
      [&](Result<Bytes> result) {
        ASSERT_TRUE(result.ok()) << result.error().to_string();
        downloaded = *result;
        done = true;
      });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::minutes(2)));
  EXPECT_EQ(downloaded, original);
  // ceil(120000 / 16384) = 8 chunks, monotone progress ending at the total.
  ASSERT_EQ(progress_points.size(), 8u);
  EXPECT_TRUE(std::is_sorted(progress_points.begin(), progress_points.end()));
  EXPECT_EQ(progress_points.back(), original.size());
}

TEST_F(ClientTest, ChunkedFetchDeniedWithoutTrust) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().share_file("big.bin", Bytes(1000, 1));
  await_neighbourhood();
  Error error;
  bool done = false;
  client_->fetch_content_chunked("alice", "big.bin", 4096, nullptr,
                                 [&](Result<Bytes> result) {
                                   ASSERT_FALSE(result.ok());
                                   error = result.error();
                                   done = true;
                                 });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::minutes(1)));
  EXPECT_EQ(error.code, Errc::not_trusted);
}

TEST_F(ClientTest, ChunkedFetchOfMissingFileFails) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().add_trusted("me");
  await_neighbourhood();
  Error error;
  bool done = false;
  client_->fetch_content_chunked("alice", "ghost.bin", 4096, nullptr,
                                 [&](Result<Bytes> result) {
                                   ASSERT_FALSE(result.ok());
                                   error = result.error();
                                   done = true;
                                 });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::minutes(1)));
  EXPECT_EQ(error.code, Errc::content_not_found);
}

TEST_F(ClientTest, ChunkedFetchOfEmptyFileSucceeds) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  alice.account().add_trusted("me");
  alice.account().share_file("empty.bin", Bytes{});
  await_neighbourhood();
  bool done = false;
  client_->fetch_content_chunked("alice", "empty.bin", 4096, nullptr,
                                 [&](Result<Bytes> result) {
                                   ASSERT_TRUE(result.ok());
                                   EXPECT_TRUE(result->empty());
                                   done = true;
                                 });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::minutes(1)));
}

TEST_F(ClientTest, ChunkedFetchRejectsZeroChunkSize) {
  bool done = false;
  client_->fetch_content_chunked("alice", "x", 0, nullptr,
                                 [&](Result<Bytes> result) {
                                   ASSERT_FALSE(result.ok());
                                   EXPECT_EQ(result.error().code,
                                             Errc::invalid_argument);
                                   done = true;
                                 });
  EXPECT_TRUE(done);  // synchronous rejection
}

TEST_F(ClientTest, ResolveMemberCachesLocation) {
  add_peer("alice", {3, 0}, {});
  await_neighbourhood();
  bool first = false, second = false;
  client_->resolve_member("alice", [&](Result<peerhood::DeviceId> result) {
    EXPECT_TRUE(result.ok());
    first = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return first; }, sim::seconds(20)));
  const auto rpcs_after_first = client_->stats().counter("rpcs_sent");
  client_->resolve_member("alice", [&](Result<peerhood::DeviceId> result) {
    EXPECT_TRUE(result.ok());
    second = true;
  });
  EXPECT_TRUE(second);  // cache answers synchronously
  EXPECT_EQ(client_->stats().counter("rpcs_sent"), rpcs_after_first);
  EXPECT_EQ(client_->stats().counter("cache_hits"), 1u);
}

TEST_F(ClientTest, FanoutWithNoNeighboursCompletesEmpty) {
  bool done = false;
  client_->get_online_members([&](Result<std::vector<std::string>> result) {
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty());
    done = true;
  });
  simulator_.run_until(sim::seconds(1));
  EXPECT_TRUE(done);
}

TEST_F(ClientTest, FanoutSkipsUnreachablePeer) {
  Peer& alice = add_peer("alice", {3, 0}, {});
  Peer& bob = add_peer("bob", {0, 3}, {});
  await_neighbourhood();
  (void)alice;
  // bob's radio dies after discovery but before the query.
  ASSERT_TRUE(
      bob.stack->set_radio_powered(net::Technology::bluetooth, false).ok());
  std::vector<std::string> members;
  bool done = false;
  client_->get_online_members([&](Result<std::vector<std::string>> result) {
    members = *result;
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(30)));
  EXPECT_EQ(members, (std::vector<std::string>{"alice"}));
}

TEST_F(ClientTest, LoggedOutPeerAnswersWithNothing) {
  Peer& alice = add_peer("alice", {3, 0}, {"football"});
  await_neighbourhood();
  alice.store.logout();
  std::vector<std::string> members{"sentinel"};
  bool done = false;
  client_->get_online_members([&](Result<std::vector<std::string>> result) {
    members = *result;
    done = true;
  });
  ASSERT_TRUE(run_until(simulator_, [&] { return done; }, sim::seconds(20)));
  EXPECT_TRUE(members.empty());
}

}  // namespace
}  // namespace ph::community
