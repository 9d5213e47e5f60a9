#include "net/medium.hpp"
#include "sns/server.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "sns/protocol.hpp"

namespace ph::sns {
namespace {

class SnsServerTest : public ::testing::Test {
 protected:
  SnsServerTest() : medium_(simulator_, sim::Rng(13)), server_(medium_, facebook()) {
    server_.add_group("England Football");
    server_.add_group("Finland Hockey");
    server_.add_member("England Football", "dave");
    server_.add_member("England Football", "emma");
    server_.add_profile("dave", "football fan from Leeds");
  }

  PageRequest request(PageKind kind, const std::string& query = "",
                      const std::string& member = "user") {
    return PageRequest{kind, query, member, "", 1000};
  }

  sim::Simulator simulator_;
  net::Medium medium_;
  SnsServer server_;
};

TEST_F(SnsServerTest, HomePageHasSiteWeight) {
  auto response = server_.handle(request(PageKind::home));
  EXPECT_EQ(response.status, PageStatus::ok);
  EXPECT_EQ(response.body_bytes, facebook().home_page_bytes);
}

TEST_F(SnsServerTest, WeightPermilleScalesBody) {
  auto request_heavy = request(PageKind::home);
  request_heavy.weight_permille = 1600;
  auto response = server_.handle(request_heavy);
  EXPECT_EQ(response.body_bytes, facebook().home_page_bytes * 1600 / 1000);
}

TEST_F(SnsServerTest, SearchFindsGroupsCaseInsensitively) {
  auto response = server_.handle(request(PageKind::search, "football"));
  EXPECT_EQ(response.status, PageStatus::ok);
  EXPECT_EQ(response.names, (std::vector<std::string>{"England Football"}));
}

TEST_F(SnsServerTest, SearchSubstringMatchesMultiple) {
  server_.add_group("Football Tactics");
  auto response = server_.handle(request(PageKind::search, "foot"));
  EXPECT_EQ(response.names.size(), 2u);
}

TEST_F(SnsServerTest, SearchMissReturnsNotFound) {
  auto response = server_.handle(request(PageKind::search, "curling"));
  EXPECT_EQ(response.status, PageStatus::not_found);
  EXPECT_TRUE(response.names.empty());
}

TEST_F(SnsServerTest, GroupPageChecksExistence) {
  EXPECT_EQ(server_.handle(request(PageKind::group, "England Football")).status,
            PageStatus::ok);
  EXPECT_EQ(server_.handle(request(PageKind::group, "Nope")).status,
            PageStatus::not_found);
}

TEST_F(SnsServerTest, JoinAddsMember) {
  auto response = server_.handle(request(PageKind::join, "England Football", "newbie"));
  EXPECT_EQ(response.status, PageStatus::ok);
  auto members = server_.members_of("England Football");
  EXPECT_EQ(members, (std::vector<std::string>{"dave", "emma", "newbie"}));
  EXPECT_EQ(server_.stats().counter("joins"), 1u);
}

TEST_F(SnsServerTest, JoinUnknownGroupFails) {
  EXPECT_EQ(server_.handle(request(PageKind::join, "Nope", "x")).status,
            PageStatus::not_found);
}

TEST_F(SnsServerTest, JoinWithoutMemberNameFails) {
  EXPECT_EQ(server_.handle(request(PageKind::join, "England Football", "")).status,
            PageStatus::not_found);
}

TEST_F(SnsServerTest, MemberListReturnsMembers) {
  auto response = server_.handle(request(PageKind::member_list, "England Football"));
  EXPECT_EQ(response.names, (std::vector<std::string>{"dave", "emma"}));
  EXPECT_EQ(response.body_bytes, facebook().member_list_page_bytes);
}

TEST_F(SnsServerTest, ProfilePageReturnsAbout) {
  auto response = server_.handle(request(PageKind::profile, "dave"));
  EXPECT_EQ(response.status, PageStatus::ok);
  EXPECT_EQ(response.names,
            (std::vector<std::string>{"football fan from Leeds"}));
}

TEST_F(SnsServerTest, ProfileOfUnknownMemberNotFound) {
  EXPECT_EQ(server_.handle(request(PageKind::profile, "nobody")).status,
            PageStatus::not_found);
}

TEST_F(SnsServerTest, ComposePageIsLight) {
  auto response = server_.handle(request(PageKind::compose));
  EXPECT_EQ(response.status, PageStatus::ok);
  EXPECT_EQ(response.body_bytes, facebook().compose_page_bytes);
}

TEST_F(SnsServerTest, SendMessageLandsInInbox) {
  PageRequest r{PageKind::send_message, "dave", "tester", "see you at 5", 1000};
  EXPECT_EQ(server_.handle(r).status, PageStatus::ok);
  EXPECT_EQ(server_.inbox_of("dave"),
            (std::vector<std::string>{"tester: see you at 5"}));
}

TEST_F(SnsServerTest, SendMessageToUnknownMemberNotFound) {
  PageRequest r{PageKind::send_message, "nobody", "tester", "hi", 1000};
  EXPECT_EQ(server_.handle(r).status, PageStatus::not_found);
}

TEST_F(SnsServerTest, PostCommentShowsOnProfile) {
  PageRequest r{PageKind::post_comment, "dave", "tester", "great fan!", 1000};
  EXPECT_EQ(server_.handle(r).status, PageStatus::ok);
  EXPECT_EQ(server_.comments_on("dave"),
            (std::vector<std::string>{"tester: great fan!"}));
  auto profile = server_.handle(request(PageKind::profile, "dave"));
  ASSERT_EQ(profile.names.size(), 2u);
  EXPECT_EQ(profile.names[1], "tester: great fan!");
}

TEST_F(SnsServerTest, InboxPageListsMessages) {
  (void)server_.handle(
      PageRequest{PageKind::send_message, "dave", "emma", "first", 1000});
  (void)server_.handle(
      PageRequest{PageKind::send_message, "dave", "emma", "second", 1000});
  PageRequest r{PageKind::inbox, "", "dave", "", 1000};
  auto response = server_.handle(r);
  EXPECT_EQ(response.names,
            (std::vector<std::string>{"emma: first", "emma: second"}));
  EXPECT_EQ(response.body_bytes, facebook().inbox_page_bytes);
}

TEST_F(SnsServerTest, EmptyInboxIsOkAndEmpty) {
  PageRequest r{PageKind::inbox, "", "emma", "", 1000};
  auto response = server_.handle(r);
  EXPECT_EQ(response.status, PageStatus::ok);
  EXPECT_TRUE(response.names.empty());
}

TEST_F(SnsServerTest, StatsAccumulateBytes) {
  (void)server_.handle(request(PageKind::home));
  (void)server_.handle(request(PageKind::profile, "dave"));
  EXPECT_EQ(server_.stats().counter("pages_served"), 2u);
  EXPECT_EQ(server_.stats().counter("bytes_served"),
            facebook().home_page_bytes + facebook().profile_page_bytes);
}

TEST(SnsProtocolTest, PageRequestRoundTrip) {
  PageRequest request{PageKind::search, "query", "member", "hello", 1600};
  auto decoded = decode_page_request(encode(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, request);
}

TEST(SnsProtocolTest, PageResponseRoundTrip) {
  PageResponse response;
  response.kind = PageKind::member_list;
  response.status = PageStatus::ok;
  response.names = {"a", "b"};
  response.body_bytes = 500;
  auto decoded = decode_page_response(encode(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, response);
}

TEST(SnsProtocolTest, PageResponseWireBytesAreGolden) {
  // The wire image a response with a 3-byte body has always had: the
  // filler is a length-prefixed run of 'x', as if the body were
  // Bytes(3, 'x').
  PageResponse response;
  response.kind = PageKind::home;
  response.names = {"a"};
  response.body_bytes = 3;
  const Bytes expected = {
      0x01,                    // kind: home
      0x00,                    // status: ok
      0x01, 0x00, 0x00, 0x00,  // one name
      0x01, 0x00, 0x00, 0x00, 'a',
      0x03, 0x00, 0x00, 0x00, 'x', 'x', 'x',  // body
  };
  EXPECT_EQ(encode(response), expected);
  proto::Writer appended;
  appended.u8(0xee);
  encode(response, appended);
  EXPECT_EQ(appended.data().size(), 1 + expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         appended.data().begin() + 1));
}

TEST(SnsProtocolTest, BodyLengthPastTheEndRejected) {
  PageResponse response;
  response.names = {"a"};
  response.body_bytes = 3;
  Bytes data = encode(response);
  // Bump the body-length prefix (the 4 bytes before the 3-byte body) so it
  // claims one byte more than the frame carries.
  data[data.size() - 3 - 4] = 4;
  auto decoded = decode_page_response(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, Errc::protocol_error);
}

TEST(SnsProtocolTest, BadKindRejected) {
  Bytes data = encode(PageRequest{});
  data[0] = 99;
  EXPECT_FALSE(decode_page_request(data).ok());
}

TEST(SnsProtocolTest, TruncatedResponseRejected) {
  PageResponse response;
  response.body_bytes = 100;
  Bytes data = encode(response);
  data.resize(20);
  EXPECT_FALSE(decode_page_response(data).ok());
}

TEST(SiteProfileTest, PresetsDiffer) {
  EXPECT_EQ(facebook().name, "Facebook");
  EXPECT_EQ(hi5().name, "HI5");
  // Hi5's profile pages were heavier in the thesis' measurements
  // (27-40 s vs 11-27 s on the same devices).
  EXPECT_GT(hi5().profile_page_bytes, facebook().profile_page_bytes);
}

TEST(DeviceClassTest, N95IsSlowerThanN810) {
  EXPECT_GT(nokia_n95().render_us_per_byte, nokia_n810().render_us_per_byte);
  EXPECT_GT(nokia_n95().page_weight_factor, nokia_n810().page_weight_factor);
}

}  // namespace
}  // namespace ph::sns
