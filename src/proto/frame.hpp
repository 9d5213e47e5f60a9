// Versioned wire framing for real transport substrates.
//
// The simulated medium delivers typed, bounded messages, so the PeerHood
// wire formats (proto::DaemonMessage, the session wire) could ride it
// bare. A real socket hands the receiver raw bytes: every frame that
// crosses a socket therefore carries this explicit envelope —
//
//   offset  size  field
//   0       2     magic   0x5048 ("PH", little-endian)
//   2       1     version (kFrameVersion; receivers reject newer)
//   3       1     kind    (FrameKind)
//   4       ...   kind-specific payload
//
// — so both substrates parse *identically* above the envelope: the bytes
// handed to decode_daemon_message / decode_session_wire are byte-for-byte
// the same whether they crossed the simulated medium or a socket, and the
// version octet gates wire evolution between daemon builds that share a
// loopback directory. decode_frame rejects bad magic, future versions and
// unknown kinds as Errc::protocol_error, never UB.
//
// A datagram carries exactly one frame. On a byte stream each frame is
// preceded by its length —
//
//   offset  size  field
//   0       4     u32 little-endian length of envelope + payload
//   4       ...   the frame above
//
// — and a length over kMaxStreamFrame (16 MiB) is a protocol error: a
// corrupt prefix must not look like a gigabyte allocation. FrameStream is
// the one reader of this format and begin_stream_frame its one writer.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "proto/codec.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ph::proto {

inline constexpr std::uint16_t kFrameMagic = 0x5048;  // "PH"
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 4;
inline constexpr std::size_t kStreamPrefixSize = 4;
inline constexpr std::uint32_t kMaxStreamFrame = 16u << 20;

/// What a socket frame carries. Values are wire-stable; add new kinds at
/// the end and bump kFrameVersion when semantics change.
enum class FrameKind : std::uint8_t {
  datagram = 1,      ///< connectionless: u32 src, u16 dst port, payload
  channel_open = 2,  ///< stream handshake: u32 src, u16 dst port
  channel_accept = 3,///< stream handshake reply: u32 acceptor device
  channel_reject = 4,///< stream handshake reply: u8 errc ordinal
  channel_data = 5,  ///< one ordered channel message: payload
  channel_ping = 6,  ///< transport RTT probe: u64 sender wall-clock µs
  channel_pong = 7,  ///< probe reply: the ping's u64 echoed verbatim
};

std::string_view to_string(FrameKind kind) noexcept;

/// A decoded envelope; `payload` views into the caller's buffer.
struct FrameView {
  FrameKind kind = FrameKind::datagram;
  std::uint8_t version = kFrameVersion;
  BytesView payload;
};

/// Appends the envelope of a `kind` frame to `out`; the caller appends the
/// payload right after it.
void begin_frame(Writer& out, FrameKind kind);

/// Appends the length prefix and envelope of a stream frame whose payload
/// — exactly `payload_size` bytes — the caller appends right after it.
void begin_stream_frame(Writer& out, FrameKind kind, std::size_t payload_size);

/// Validates magic/version/kind and returns the payload view.
Result<FrameView> decode_frame(BytesView data);

/// Reassembles length-prefixed frames from the bytes of one stream, in the
/// order they arrived. Views handed out by peek() stay valid across pop()
/// and until the next append().
class FrameStream {
 public:
  /// Buffers bytes received from the stream. Ignored once poisoned.
  void append(BytesView bytes);

  /// The front frame once all of its bytes are buffered; nullopt while it
  /// is partial. A complete frame that decode_frame rejects comes back as
  /// that error, and pop() skips it. A length prefix over kMaxStreamFrame
  /// poisons the stream: peek returns Errc::protocol_error from then on.
  std::optional<Result<FrameView>> peek() const;

  /// Consumes the front frame; does nothing while it is partial or the
  /// stream is poisoned.
  void pop();

  bool poisoned() const;

  /// Bytes received but not yet popped.
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::uint32_t front_length() const;
  /// Prefix + frame bytes of the front frame; 0 while it is not complete.
  std::size_t front_size() const;

  Bytes buf_;
  std::size_t pos_ = 0;  ///< start of the front frame's length prefix
};

}  // namespace ph::proto
