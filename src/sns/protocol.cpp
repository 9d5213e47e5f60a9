#include "sns/protocol.hpp"

#include "proto/codec.hpp"

namespace ph::sns {

std::string_view to_string(PageKind kind) noexcept {
  switch (kind) {
    case PageKind::home: return "home";
    case PageKind::search: return "search";
    case PageKind::group: return "group";
    case PageKind::join: return "join";
    case PageKind::member_list: return "member_list";
    case PageKind::profile: return "profile";
    case PageKind::compose: return "compose";
    case PageKind::send_message: return "send_message";
    case PageKind::post_comment: return "post_comment";
    case PageKind::inbox: return "inbox";
  }
  return "?";
}

Bytes encode(const PageRequest& request) {
  proto::Writer w;
  w.u8(static_cast<std::uint8_t>(request.kind));
  w.str(request.query);
  w.str(request.member);
  w.str(request.text);
  w.u32(request.weight_permille);
  return std::move(w).take();
}

Result<PageRequest> decode_page_request(BytesView data) {
  proto::Reader r(data);
  PageRequest request;
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (*kind < 1 || *kind > static_cast<std::uint8_t>(PageKind::inbox)) {
    return Error{Errc::protocol_error, "unknown page kind"};
  }
  request.kind = static_cast<PageKind>(*kind);
  auto query = r.str();
  if (!query) return query.error();
  request.query = std::move(*query);
  auto member = r.str();
  if (!member) return member.error();
  request.member = std::move(*member);
  auto text = r.str();
  if (!text) return text.error();
  request.text = std::move(*text);
  auto weight = r.u32();
  if (!weight) return weight.error();
  request.weight_permille = *weight;
  return request;
}

void encode(const PageResponse& response, proto::Writer& out) {
  out.u8(static_cast<std::uint8_t>(response.kind));
  out.u8(static_cast<std::uint8_t>(response.status));
  out.str_list(response.names);
  out.filler(response.body_bytes, std::uint8_t{'x'});
}

Bytes encode(const PageResponse& response) {
  proto::Writer w;
  encode(response, w);
  return std::move(w).take();
}

Result<PageResponse> decode_page_response(BytesView data) {
  proto::Reader r(data);
  PageResponse response;
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (*kind < 1 || *kind > static_cast<std::uint8_t>(PageKind::inbox)) {
    return Error{Errc::protocol_error, "unknown page kind"};
  }
  response.kind = static_cast<PageKind>(*kind);
  auto status = r.u8();
  if (!status) return status.error();
  if (*status > static_cast<std::uint8_t>(PageStatus::not_found)) {
    return Error{Errc::protocol_error, "unknown page status"};
  }
  response.status = static_cast<PageStatus>(*status);
  auto names = r.str_list();
  if (!names) return names.error();
  response.names = std::move(*names);
  auto body_bytes = r.skip_bytes();
  if (!body_bytes) return body_bytes.error();
  response.body_bytes = *body_bytes;
  return response;
}

}  // namespace ph::sns
