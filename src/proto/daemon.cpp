#include "proto/daemon.hpp"

#include "proto/codec.hpp"
#include "util/check.hpp"

namespace ph::proto {

namespace {

// Header layout: op (u8), token (u32), trace_parent (u64), device name.
constexpr std::size_t kTokenAt = 1;
constexpr std::size_t kTraceAt = kTokenAt + 4;
constexpr std::size_t kHeaderFixed = kTraceAt + 8;

/// Reads a service list; with `out` null it only validates and skips it.
Result<void> read_services(Reader& r, std::vector<ServiceInfoData>* out) {
  auto n_services = r.u32();
  if (!n_services) return n_services.error();
  if (*n_services > r.remaining() / 4) {
    return Error{Errc::protocol_error, "implausible service count"};
  }
  if (out != nullptr) out->reserve(*n_services);
  for (std::uint32_t i = 0; i < *n_services; ++i) {
    auto name = r.str_view();
    if (!name) return name.error();
    auto port = r.u16();
    if (!port) return port.error();
    auto n_attrs = r.u32();
    if (!n_attrs) return n_attrs.error();
    if (*n_attrs > r.remaining() / 8) {
      return Error{Errc::protocol_error, "implausible attribute count"};
    }
    ServiceInfoData* service = nullptr;
    if (out != nullptr) {
      service = &out->emplace_back();
      service->name = *name;
      service->port = *port;
    }
    for (std::uint32_t j = 0; j < *n_attrs; ++j) {
      auto key = r.str_view();
      if (!key) return key.error();
      auto value = r.str_view();
      if (!value) return value.error();
      if (service != nullptr) {
        service->attributes.emplace(std::string(*key), std::string(*value));
      }
    }
  }
  return ok();
}

void put_le(std::span<std::uint8_t> out, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

std::string_view to_string(DaemonOp op) noexcept {
  switch (op) {
    case DaemonOp::service_query: return "SERVICE_QUERY";
    case DaemonOp::service_reply: return "SERVICE_REPLY";
    case DaemonOp::ping: return "PING";
    case DaemonOp::pong: return "PONG";
  }
  return "?";
}

void encode(const DaemonMessage& message, Writer& w) {
  w.u8(static_cast<std::uint8_t>(message.op));
  w.u32(message.token);
  w.u64(message.trace_parent);
  w.str(message.device_name);
  w.u32(static_cast<std::uint32_t>(message.services.size()));
  for (const auto& service : message.services) {
    w.str(service.name);
    w.u16(service.port);
    w.u32(static_cast<std::uint32_t>(service.attributes.size()));
    for (const auto& [key, value] : service.attributes) {
      w.str(key);
      w.str(value);
    }
  }
}

Bytes encode(const DaemonMessage& message) {
  Writer w;
  encode(message, w);
  return std::move(w).take();
}

Result<DaemonMessageView> decode_daemon_view(BytesView data) {
  Reader r(data);
  DaemonMessageView m;
  auto op = r.u8();
  if (!op) return op.error();
  if (*op < 1 || *op > static_cast<std::uint8_t>(DaemonOp::pong)) {
    return Error{Errc::protocol_error, "unknown daemon op"};
  }
  m.op = static_cast<DaemonOp>(*op);
  auto token = r.u32();
  if (!token) return token.error();
  m.token = *token;
  auto trace_parent = r.u64();
  if (!trace_parent) return trace_parent.error();
  m.trace_parent = *trace_parent;
  auto name = r.str_view();
  if (!name) return name.error();
  m.device_name = *name;
  const std::size_t services_at = data.size() - r.remaining();
  if (auto valid = read_services(r, nullptr); !valid) return valid.error();
  m.services = data.subspan(services_at, data.size() - services_at -
                                             r.remaining());
  return m;
}

Result<std::vector<ServiceInfoData>> decode_services(BytesView services) {
  Reader r(services);
  std::vector<ServiceInfoData> out;
  if (auto read = read_services(r, &out); !read) return read.error();
  return out;
}

Result<DaemonMessage> decode_daemon_message(BytesView data) {
  auto view = decode_daemon_view(data);
  if (!view) return view.error();
  auto services = decode_services(view->services);
  if (!services) return services.error();
  return DaemonMessage{view->op, view->token, view->trace_parent,
                       std::string(view->device_name), std::move(*services)};
}

void patch_daemon_header(std::span<std::uint8_t> encoded, std::uint32_t token,
                         std::uint64_t trace_parent) {
  PH_CHECK_MSG(encoded.size() >= kHeaderFixed, "not a daemon message");
  put_le(encoded.subspan(kTokenAt), token, 4);
  put_le(encoded.subspan(kTraceAt), trace_parent, 8);
}

}  // namespace ph::proto
