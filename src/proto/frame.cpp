#include "proto/frame.hpp"

#include "util/error.hpp"

namespace ph::proto {

std::string_view to_string(FrameKind kind) noexcept {
  switch (kind) {
    case FrameKind::datagram: return "datagram";
    case FrameKind::channel_open: return "channel_open";
    case FrameKind::channel_accept: return "channel_accept";
    case FrameKind::channel_reject: return "channel_reject";
    case FrameKind::channel_data: return "channel_data";
    case FrameKind::channel_ping: return "channel_ping";
    case FrameKind::channel_pong: return "channel_pong";
  }
  return "unknown";
}

void begin_frame(Writer& out, FrameKind kind) {
  out.u16(kFrameMagic);
  out.u8(kFrameVersion);
  out.u8(static_cast<std::uint8_t>(kind));
}

void begin_stream_frame(Writer& out, FrameKind kind, std::size_t payload_size) {
  out.u32(static_cast<std::uint32_t>(kFrameHeaderSize + payload_size));
  begin_frame(out, kind);
}

Result<FrameView> decode_frame(BytesView data) {
  if (data.size() < kFrameHeaderSize) {
    return Error{Errc::protocol_error, "frame shorter than header"};
  }
  const std::uint16_t magic = static_cast<std::uint16_t>(
      data[0] | (static_cast<std::uint16_t>(data[1]) << 8));
  if (magic != kFrameMagic) {
    return Error{Errc::protocol_error, "bad frame magic"};
  }
  const std::uint8_t version = data[2];
  if (version == 0 || version > kFrameVersion) {
    return Error{Errc::protocol_error,
                 "frame version " + std::to_string(version) +
                     " newer than supported " + std::to_string(kFrameVersion)};
  }
  const std::uint8_t kind = data[3];
  if (kind < static_cast<std::uint8_t>(FrameKind::datagram) ||
      kind > static_cast<std::uint8_t>(FrameKind::channel_pong)) {
    return Error{Errc::protocol_error, "unknown frame kind"};
  }
  FrameView view;
  view.kind = static_cast<FrameKind>(kind);
  view.version = version;
  view.payload = data.subspan(kFrameHeaderSize);
  return view;
}

void FrameStream::append(BytesView bytes) {
  if (poisoned()) return;
  // Compact only here: views from peek() must survive pop().
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
  pos_ = 0;
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::uint32_t FrameStream::front_length() const {
  return Reader(BytesView(buf_).subspan(pos_, kStreamPrefixSize)).u32().value();
}

bool FrameStream::poisoned() const {
  return buffered() >= kStreamPrefixSize && front_length() > kMaxStreamFrame;
}

std::size_t FrameStream::front_size() const {
  if (buffered() < kStreamPrefixSize) return 0;
  const std::uint32_t length = front_length();
  if (length > kMaxStreamFrame || buffered() - kStreamPrefixSize < length) {
    return 0;
  }
  return kStreamPrefixSize + length;
}

std::optional<Result<FrameView>> FrameStream::peek() const {
  if (poisoned()) {
    return Result<FrameView>(Error{
        Errc::protocol_error, "stream frame of " +
                                  std::to_string(front_length()) +
                                  " bytes exceeds kMaxStreamFrame"});
  }
  const std::size_t size = front_size();
  if (size == 0) return std::nullopt;
  return decode_frame(BytesView(buf_).subspan(pos_ + kStreamPrefixSize,
                                              size - kStreamPrefixSize));
}

void FrameStream::pop() { pos_ += front_size(); }

}  // namespace ph::proto
