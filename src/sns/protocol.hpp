// Wire format between the browser model and the SNS server.
//
// One request/response pair per page load. Responses carry real result
// data (group names, member lists) plus a filler blob sized to the page
// weight, so the simulated GPRS link computes the transfer time the same
// way it does for every other byte in the system. The filler's content
// carries no information, so in memory a response holds only its size;
// the encoder writes the 'x' run straight into the wire buffer and the
// decoder bounds-checks it and steps over it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proto/codec.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ph::sns {

enum class PageKind : std::uint8_t {
  home = 1,         ///< front page after login
  search = 2,       ///< search results for `query`
  group = 3,        ///< a group's landing page
  join = 4,         ///< join POST + confirmation page
  member_list = 5,  ///< members of `query`
  profile = 6,      ///< profile of member `query`
  compose = 7,      ///< the "write a message" form page
  send_message = 8, ///< message POST (`query` = receiver, body in `text`)
  post_comment = 9, ///< profile-comment POST (`query` = member)
  inbox = 10,       ///< the member's message inbox page
};

std::string_view to_string(PageKind kind) noexcept;

struct PageRequest {
  PageKind kind = PageKind::home;
  std::string query;   ///< group name / search terms / member id / receiver
  std::string member;  ///< acting user (join records membership)
  std::string text;    ///< message body / comment text for POST pages
  /// Page-variant weight in permille (DeviceClass::page_weight_factor).
  std::uint32_t weight_permille = 1000;

  friend bool operator==(const PageRequest&, const PageRequest&) = default;
};

enum class PageStatus : std::uint8_t { ok = 0, not_found = 1 };

struct PageResponse {
  PageKind kind = PageKind::home;
  PageStatus status = PageStatus::ok;
  std::vector<std::string> names;  ///< groups found / members listed
  /// Size of the page filler (sized to the page weight); on the wire it is
  /// a length-prefixed run of this many 'x' bytes.
  std::uint32_t body_bytes = 0;

  friend bool operator==(const PageResponse&, const PageResponse&) = default;
};

Bytes encode(const PageRequest& request);
Bytes encode(const PageResponse& response);
/// Appends the wire image of `response` to `out` (what encode() returns).
void encode(const PageResponse& response, proto::Writer& out);
Result<PageRequest> decode_page_request(BytesView data);
Result<PageResponse> decode_page_response(BytesView data);

}  // namespace ph::sns
