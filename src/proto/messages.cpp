#include "proto/messages.hpp"

namespace ph::proto {

std::string_view to_string(Opcode op) noexcept {
  switch (op) {
    case Opcode::ps_get_online_member_list: return "PS_GETONLINEMEMBERLIST";
    case Opcode::ps_get_interest_list: return "PS_GETINTERESTLIST";
    case Opcode::ps_get_interested_member_list: return "PS_GETINTERESTEDMEMBERLIST";
    case Opcode::ps_get_profile: return "PS_GETPROFILE";
    case Opcode::ps_add_profile_comment: return "PS_ADDPROFILECOMMENT";
    case Opcode::ps_check_member_id: return "PS_CHECKMEMBERID";
    case Opcode::ps_msg: return "PS_MSG";
    case Opcode::ps_get_shared_content: return "PS_SHAREDCONTENT";
    case Opcode::ps_get_trusted_friends: return "PS_GETTRUSTEDFRIEND";
    case Opcode::ps_check_trusted: return "PS_CHECKTRUSTED";
    case Opcode::ps_get_content: return "PS_GETCONTENT";
    case Opcode::ps_get_content_chunk: return "PS_GETCONTENTCHUNK";
  }
  return "PS_UNKNOWN";
}

std::string_view to_string(Status status) noexcept {
  switch (status) {
    case Status::ok: return "OK";
    case Status::no_members_yet: return "NO_MEMBERS_YET";
    case Status::not_trusted_yet: return "NOT_TRUSTED_YET";
    case Status::successfully_written: return "SUCCESSFULLY_WRITTEN";
    case Status::unsuccessful: return "UNSUCCESSFULL";
  }
  return "?";
}

namespace {

void put(Writer& w, const CommentData& c) {
  w.str(c.author);
  w.str(c.text);
  w.u64(c.at_us);
}

Result<CommentData> get_comment(Reader& r) {
  CommentData c;
  auto author = r.str();
  if (!author) return author.error();
  c.author = std::move(*author);
  auto text = r.str();
  if (!text) return text.error();
  c.text = std::move(*text);
  auto at = r.u64();
  if (!at) return at.error();
  c.at_us = *at;
  return c;
}

void put(Writer& w, const ProfileData& p) {
  w.str(p.member_id);
  w.str(p.display_name);
  w.u32(p.age);
  w.str(p.about);
  w.str_list(p.interests);
  w.str_list(p.trusted_friends);
  w.u32(static_cast<std::uint32_t>(p.comments.size()));
  for (const auto& c : p.comments) put(w, c);
  w.str_list(p.visitors);
}

Result<ProfileData> get_profile(Reader& r) {
  ProfileData p;
  auto member_id = r.str();
  if (!member_id) return member_id.error();
  p.member_id = std::move(*member_id);
  auto name = r.str();
  if (!name) return name.error();
  p.display_name = std::move(*name);
  auto age = r.u32();
  if (!age) return age.error();
  p.age = *age;
  auto about = r.str();
  if (!about) return about.error();
  p.about = std::move(*about);
  auto interests = r.str_list();
  if (!interests) return interests.error();
  p.interests = std::move(*interests);
  auto trusted = r.str_list();
  if (!trusted) return trusted.error();
  p.trusted_friends = std::move(*trusted);
  auto n_comments = r.u32();
  if (!n_comments) return n_comments.error();
  if (*n_comments > r.remaining() / 4) {
    return Error{Errc::protocol_error, "implausible comment count"};
  }
  for (std::uint32_t i = 0; i < *n_comments; ++i) {
    auto c = get_comment(r);
    if (!c) return c.error();
    p.comments.push_back(std::move(*c));
  }
  auto visitors = r.str_list();
  if (!visitors) return visitors.error();
  p.visitors = std::move(*visitors);
  return p;
}

void put(Writer& w, const MailData& m) {
  w.str(m.receiver);
  w.str(m.sender);
  w.str(m.subject);
  w.str(m.body);
  w.u64(m.sent_at_us);
}

Result<MailData> get_mail(Reader& r) {
  MailData m;
  auto receiver = r.str();
  if (!receiver) return receiver.error();
  m.receiver = std::move(*receiver);
  auto sender = r.str();
  if (!sender) return sender.error();
  m.sender = std::move(*sender);
  auto subject = r.str();
  if (!subject) return subject.error();
  m.subject = std::move(*subject);
  auto body = r.str();
  if (!body) return body.error();
  m.body = std::move(*body);
  auto at = r.u64();
  if (!at) return at.error();
  m.sent_at_us = *at;
  return m;
}

Result<Opcode> get_opcode(Reader& r) {
  auto raw = r.u8();
  if (!raw) return raw.error();
  if (*raw < 1 || *raw > static_cast<std::uint8_t>(Opcode::ps_get_content_chunk)) {
    return Error{Errc::protocol_error, "unknown opcode"};
  }
  return static_cast<Opcode>(*raw);
}

}  // namespace

void encode(const Request& request, Writer& w) {
  w.u8(static_cast<std::uint8_t>(request.op));
  w.u64(request.trace_parent);
  w.str(request.requester);
  w.str(request.member_id);
  w.str(request.argument);
  put(w, request.mail);
  w.u64(request.offset);
  w.u64(request.length);
}

Bytes encode(const Request& request) {
  Writer w;
  encode(request, w);
  return std::move(w).take();
}

Result<Request> decode_request(BytesView data) {
  Reader r(data);
  Request req;
  auto op = get_opcode(r);
  if (!op) return op.error();
  req.op = *op;
  auto trace_parent = r.u64();
  if (!trace_parent) return trace_parent.error();
  req.trace_parent = *trace_parent;
  auto requester = r.str();
  if (!requester) return requester.error();
  req.requester = std::move(*requester);
  auto member_id = r.str();
  if (!member_id) return member_id.error();
  req.member_id = std::move(*member_id);
  auto argument = r.str();
  if (!argument) return argument.error();
  req.argument = std::move(*argument);
  auto mail = get_mail(r);
  if (!mail) return mail.error();
  req.mail = std::move(*mail);
  auto offset = r.u64();
  if (!offset) return offset.error();
  req.offset = *offset;
  auto length = r.u64();
  if (!length) return length.error();
  req.length = *length;
  return req;
}

void encode(const Response& response, Writer& w) {
  w.u8(static_cast<std::uint8_t>(response.op));
  w.u8(static_cast<std::uint8_t>(response.status));
  w.str_list(response.names);
  put(w, response.profile);
  w.u32(static_cast<std::uint32_t>(response.items.size()));
  for (const auto& item : response.items) {
    w.str(item.name);
    w.u64(item.size_bytes);
  }
  w.bytes(response.content);
  w.u64(response.content_total);
}

Bytes encode(const Response& response) {
  Writer w;
  encode(response, w);
  return std::move(w).take();
}

Result<Response> decode_response(BytesView data) {
  Reader r(data);
  Response resp;
  auto op = get_opcode(r);
  if (!op) return op.error();
  resp.op = *op;
  auto status = r.u8();
  if (!status) return status.error();
  if (*status > static_cast<std::uint8_t>(Status::unsuccessful)) {
    return Error{Errc::protocol_error, "unknown status"};
  }
  resp.status = static_cast<Status>(*status);
  auto names = r.str_list();
  if (!names) return names.error();
  resp.names = std::move(*names);
  auto profile = get_profile(r);
  if (!profile) return profile.error();
  resp.profile = std::move(*profile);
  auto n_items = r.u32();
  if (!n_items) return n_items.error();
  if (*n_items > r.remaining() / 4) {
    return Error{Errc::protocol_error, "implausible item count"};
  }
  for (std::uint32_t i = 0; i < *n_items; ++i) {
    SharedItemData item;
    auto name = r.str();
    if (!name) return name.error();
    item.name = std::move(*name);
    auto size = r.u64();
    if (!size) return size.error();
    item.size_bytes = *size;
    resp.items.push_back(std::move(item));
  }
  auto content = r.bytes();
  if (!content) return content.error();
  resp.content = std::move(*content);
  auto content_total = r.u64();
  if (!content_total) return content_total.error();
  resp.content_total = *content_total;
  return resp;
}

}  // namespace ph::proto
