// The PeerHood session wire format: the frames a Connection exchanges over
// its current channel (peerhood/session_state.hpp drives them). Every
// frame names its session, so a session can move to another channel —
// another radio — and RESUME where it left off.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ph::proto {

class Writer;

/// Session frame types (one byte on the wire).
enum class SessionOp : std::uint8_t {
  hello = 1,       ///< opens a new session (client -> server)
  resume = 2,      ///< reattaches after a break; seq = client's last delivered
  resume_ack = 3,  ///< server accepts resume; seq = server's last delivered
  data = 4,
  ack = 5,         ///< cumulative acknowledgement
  close = 6,       ///< graceful end
};

/// One session frame. The payload is a view: on the send side it borrows
/// the caller's bytes, and a decoded frame borrows from the bytes it was
/// decoded from, so it is valid only while they are.
struct SessionWire {
  SessionOp op = SessionOp::data;
  std::uint64_t session = 0;
  std::uint32_t seq = 0;
  /// Trace context captured when the payload was first sent; retransmits
  /// carry the original so delivery keeps its causal tie after handover.
  std::uint64_t trace = 0;
  BytesView payload;
};

/// Appends the wire image of `wire` to `out`.
void encode(const SessionWire& wire, Writer& out);
Bytes encode(const SessionWire& wire);
Result<SessionWire> decode_session_wire(BytesView data);

}  // namespace ph::proto
