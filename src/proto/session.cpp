#include "proto/session.hpp"

#include "proto/codec.hpp"

namespace ph::proto {

void encode(const SessionWire& wire, Writer& w) {
  w.u8(static_cast<std::uint8_t>(wire.op));
  w.u64(wire.session);
  w.u32(wire.seq);
  w.u64(wire.trace);
  w.bytes(wire.payload);
}

Bytes encode(const SessionWire& wire) {
  Writer w;
  encode(wire, w);
  return std::move(w).take();
}

Result<SessionWire> decode_session_wire(BytesView data) {
  Reader r(data);
  SessionWire wire;
  auto op = r.u8();
  if (!op) return op.error();
  if (*op < 1 || *op > static_cast<std::uint8_t>(SessionOp::close)) {
    return Error{Errc::protocol_error, "unknown session op"};
  }
  wire.op = static_cast<SessionOp>(*op);
  auto session = r.u64();
  if (!session) return session.error();
  wire.session = *session;
  auto seq = r.u32();
  if (!seq) return seq.error();
  wire.seq = *seq;
  auto trace = r.u64();
  if (!trace) return trace.error();
  wire.trace = *trace;
  auto payload = r.bytes_view();
  if (!payload) return payload.error();
  wire.payload = *payload;
  return wire;
}

}  // namespace ph::proto
