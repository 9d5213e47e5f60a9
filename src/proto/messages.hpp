// The PeerHood Community application protocol.
//
// Table 6 of the thesis lists the client request opcodes (PS_*) and the MSC
// figures 11–17 add three more (PS_GETTRUSTEDFRIEND, PS_CHECKTRUSTED,
// PS_GETSHAREDCONTENT) plus the textual statuses NO_MEMBERS_YET,
// NOT_TRUSTED_YET, SUCCESSFULLY_WRITTEN and UNSUCCESSFULL. This header
// reproduces that protocol: one request/response pair per operation.
//
// Like the thesis' implementation — which "packages the desired information
// into buffers and transmits" — requests and responses are flat structs
// with every field always encoded; the opcode says which fields carry
// meaning. This keeps the server dispatch table (Table 6) one switch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proto/codec.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ph::proto {

/// Client request opcodes (thesis Table 6 + MSC figures 15/16).
enum class Opcode : std::uint8_t {
  ps_get_online_member_list = 1,  ///< PS_GETONLINEMEMBERLIST (Fig 11)
  ps_get_interest_list = 2,       ///< PS_GETINTERESTLIST (Fig 12)
  ps_get_interested_member_list = 3,  ///< PS_GETINTERESTEDMEMBERLIST
  ps_get_profile = 4,             ///< PS_GETPROFILE (Fig 13)
  ps_add_profile_comment = 5,     ///< PS_ADDPROFILECOMMENT (Fig 14)
  ps_check_member_id = 6,         ///< PS_CHECKMEMBERID
  ps_msg = 7,                     ///< PS_MSG (Fig 17)
  ps_get_shared_content = 8,      ///< PS_SHAREDCONTENT (Fig 16)
  ps_get_trusted_friends = 9,     ///< PS_GETTRUSTEDFRIEND (Fig 15)
  ps_check_trusted = 10,          ///< PS_CHECKTRUSTED (Fig 16)
  ps_get_content = 11,            ///< trusted file download ("use them if needed")
  /// Ranged variant of ps_get_content: returns `length` bytes of the file
  /// starting at `offset`, plus the total size. Large transfers pull the
  /// file chunk by chunk over one seamless session, so a mid-transfer
  /// handover retransmits at most one chunk.
  ps_get_content_chunk = 12,
};

std::string_view to_string(Opcode op) noexcept;

/// Response statuses; names follow the thesis' wire strings.
enum class Status : std::uint8_t {
  ok = 0,
  no_members_yet = 1,        ///< NO_MEMBERS_YET — target member not local
  not_trusted_yet = 2,       ///< NOT_TRUSTED_YET — requester lacks trust
  successfully_written = 3,  ///< SUCCESSFULLY_WRITTEN — mail stored
  unsuccessful = 4,          ///< UNSUCCESSFULL (sic in the thesis)
};

std::string_view to_string(Status status) noexcept;

/// A profile comment as stored and transferred (Fig 14).
struct CommentData {
  std::string author;
  std::string text;
  std::uint64_t at_us = 0;  ///< virtual time the comment was written

  friend bool operator==(const CommentData&, const CommentData&) = default;
};

/// The profile payload of PS_GETPROFILE (Fig 13): profile information,
/// interest list, trusted-friends list and comments travel together.
struct ProfileData {
  std::string member_id;
  std::string display_name;
  std::uint32_t age = 0;
  std::string about;
  std::vector<std::string> interests;
  std::vector<std::string> trusted_friends;
  std::vector<CommentData> comments;
  std::vector<std::string> visitors;

  friend bool operator==(const ProfileData&, const ProfileData&) = default;
};

/// One shared file in a PS_SHAREDCONTENT listing.
struct SharedItemData {
  std::string name;
  std::uint64_t size_bytes = 0;

  friend bool operator==(const SharedItemData&, const SharedItemData&) = default;
};

/// A mail message (PS_MSG, Fig 17): receiver, sender, subject and body.
struct MailData {
  std::string receiver;
  std::string sender;
  std::string subject;
  std::string body;
  std::uint64_t sent_at_us = 0;

  friend bool operator==(const MailData&, const MailData&) = default;
};

/// A client request. `requester` is the sending member's id (the thesis
/// sends the client's username so the server can record profile visitors
/// and enforce trust).
struct Request {
  Opcode op = Opcode::ps_get_online_member_list;
  std::string requester;
  std::string member_id;  ///< target member, where the op takes one
  std::string argument;   ///< interest / comment text / content name
  MailData mail;          ///< for ps_msg
  std::uint64_t offset = 0;  ///< ps_get_content_chunk: first byte wanted
  std::uint64_t length = 0;  ///< ps_get_content_chunk: chunk size
  /// Trace context: the caller's RPC span id, so the server's handling
  /// span joins the caller's tree across the radio. 0 = untraced. Declared
  /// last to keep positional aggregate initializers working; on the wire
  /// it rides right after the opcode.
  std::uint64_t trace_parent = 0;

  friend bool operator==(const Request&, const Request&) = default;
};

/// A server response; `op` echoes the request's opcode.
struct Response {
  Opcode op = Opcode::ps_get_online_member_list;
  Status status = Status::ok;
  std::vector<std::string> names;      ///< member/interest/friend lists
  ProfileData profile;                 ///< ps_get_profile
  std::vector<SharedItemData> items;   ///< ps_get_shared_content
  Bytes content;                       ///< ps_get_content(_chunk) payload
  std::uint64_t content_total = 0;     ///< ps_get_content_chunk: file size

  friend bool operator==(const Response&, const Response&) = default;
};

/// Append the wire image to `out`: a sender that keeps one Writer across
/// messages encodes without allocating once it has seen the largest.
void encode(const Request& request, Writer& out);
void encode(const Response& response, Writer& out);
Bytes encode(const Request& request);
Bytes encode(const Response& response);
Result<Request> decode_request(BytesView data);
Result<Response> decode_response(BytesView data);

}  // namespace ph::proto
