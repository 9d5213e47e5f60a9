// Internal shared state of a Link (both endpoints reference one LinkState).
// Private to the ph_net implementation; applications use net/link.hpp.
#pragma once

#include <functional>
#include <memory>

#include "net/tech.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"

namespace ph::net {
class Medium;
}

namespace ph::net::detail {

struct LinkState {
  Medium* medium = nullptr;
  TechProfile profile;  // initiator's profile governs the link's physics
  NodeId a = kInvalidNode;  // initiator
  NodeId b = kInvalidNode;  // acceptor
  Port port = 0;
  bool open = false;
  /// Graceful close in progress: new sends are rejected, queued messages
  /// still drain to the peer before the link actually dies.
  bool closing = false;

  using ReceiveHandler = std::function<void(BytesView)>;
  /// Receive handler per side; shared so a delivery holds the handler it
  /// runs (session handshakes replace their own) without copying it.
  std::shared_ptr<const ReceiveHandler> rx_a, rx_b;
  std::function<void()> brk_a, brk_b;  // break handler per side

  sim::Time busy_a_to_b = 0;  // serialization horizon, a->b direction
  sim::Time busy_b_to_a = 0;

  std::shared_ptr<const ReceiveHandler>& rx_for(NodeId side) {
    return side == a ? rx_a : rx_b;
  }
  std::function<void()>& brk_for(NodeId side) { return side == a ? brk_a : brk_b; }
  NodeId peer_of(NodeId side) const { return side == a ? b : a; }
};

}  // namespace ph::net::detail
