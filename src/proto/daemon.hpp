// The PeerHood daemon-to-daemon control protocol.
//
// After device discovery finds a neighbour, the local PHD queries that
// neighbour's PHD for its advertised services (thesis §4.3 "Service
// Discovery") and pings known neighbours between inquiry rounds ("Active
// monitoring of a device"). These exchanges travel as connectionless
// datagrams on the daemon's well-known port; lost datagrams are retried by
// the daemon with a timeout.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ph::proto {

enum class DaemonOp : std::uint8_t {
  service_query = 1,  ///< "which PeerHood services do you run?"
  service_reply = 2,  ///< advertisement: device name + service list
  ping = 3,           ///< liveness probe between inquiry rounds
  pong = 4,
};

std::string_view to_string(DaemonOp op) noexcept;

/// One advertised service: name (e.g. "PeerHoodCommunity"), the port its
/// server listens on, and free-form attributes.
struct ServiceInfoData {
  std::string name;
  std::uint16_t port = 0;
  std::map<std::string, std::string> attributes;

  friend bool operator==(const ServiceInfoData&, const ServiceInfoData&) = default;
};

struct DaemonMessage {
  DaemonOp op = DaemonOp::ping;
  std::uint32_t token = 0;  ///< matches replies to requests
  /// Trace context: the sender's span id, so the receiving daemon can
  /// parent its handling under the remote operation. 0 = untraced.
  std::uint64_t trace_parent = 0;
  std::string device_name;
  std::vector<ServiceInfoData> services;

  friend bool operator==(const DaemonMessage&, const DaemonMessage&) = default;
};

class Writer;

/// Appends the wire image of `message` to `out`.
void encode(const DaemonMessage& message, Writer& out);
Bytes encode(const DaemonMessage& message);
Result<DaemonMessage> decode_daemon_message(BytesView data);

/// A daemon datagram decoded without copying: the strings and the service
/// list borrow from the frame, so a view is valid only while that frame is
/// (inside the datagram handler that received it).
struct DaemonMessageView {
  DaemonOp op = DaemonOp::ping;
  std::uint32_t token = 0;
  std::uint64_t trace_parent = 0;
  std::string_view device_name;
  /// The encoded service list (count, then entries), already validated.
  /// Equal bytes mean equal lists; decode_services() materializes it.
  BytesView services;
};

/// Validates the whole message (the same checks as
/// decode_daemon_message) and returns a view over `data`.
Result<DaemonMessageView> decode_daemon_view(BytesView data);
/// Decodes a DaemonMessageView::services section.
Result<std::vector<ServiceInfoData>> decode_services(BytesView services);

/// Rewrites the token and trace_parent of an encoded daemon message in
/// place, so a sender can keep a message encoded and re-stamp it per
/// exchange. `encoded` must hold a whole message.
void patch_daemon_header(std::span<std::uint8_t> encoded, std::uint32_t token,
                         std::uint64_t trace_parent);

}  // namespace ph::proto
