// Internal shared state of a Medium link: a connection-oriented, ordered,
// reliable byte-message channel between two adapters of the same technology
// (the simulator's analogue of an L2CAP channel / TCP connection).
//
// Reliability is per-technology: frame loss turns into retransmission delay,
// matching the thesis' description of the BTPlugin ("offers ordered and
// reliable data delivery"). What a link cannot survive is the peer moving
// out of radio range — then it *breaks* and both sides get their break
// handler invoked. Seamless connectivity across technologies is the
// PeerHood layer's job, built on top of these per-technology links.
//
// Each side of the one LinkState allocation is a transport::Channel's
// state: the Medium hands out aliasing shared_ptrs to `end_a` / `end_b`,
// so copies of one side's handle compare equal, the two sides compare
// unequal, and the LinkState lives until the last handle to either side
// goes. Private to the ph_net implementation; applications hold Channels.
#pragma once

#include <functional>
#include <memory>

#include "net/tech.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"
#include "transport/transport.hpp"
#include "util/bytes.hpp"

namespace ph::net {
class Medium;
}

namespace ph::net::detail {

struct LinkState;

/// One side of a link, as the transport channel state its owner holds.
class LinkSide final : public transport::detail::ChannelState {
 public:
  using ReceiveHandler = std::function<void(BytesView)>;

  LinkSide(LinkState& link_in, NodeId self_in)
      : link(link_in), self(self_in) {}

  bool chan_open() const override;
  NodeId chan_remote() const override;
  Technology chan_technology() const override;
  void chan_on_receive(ReceiveHandler handler) override;
  void chan_on_break(std::function<void()> handler) override;
  void chan_send(BytesView payload) override;
  double chan_signal() const override;
  void chan_close() override;

  LinkState& link;
  NodeId self;
  /// Receive handler; shared so a delivery holds the handler it runs
  /// (session handshakes replace their own) without copying it.
  std::shared_ptr<const ReceiveHandler> rx;
  std::function<void()> brk;
  sim::Time busy = 0;  // serialization horizon, this side -> peer
};

struct LinkState : std::enable_shared_from_this<LinkState> {
  LinkState(Medium& medium_in, const TechProfile& profile_in, NodeId a_in,
            NodeId b_in, Port port_in)
      : medium(medium_in),
        profile(profile_in),
        a(a_in),
        b(b_in),
        port(port_in),
        end_a(*this, a_in),
        end_b(*this, b_in) {}
  LinkState(const LinkState&) = delete;
  LinkState& operator=(const LinkState&) = delete;

  Medium& medium;
  TechProfile profile;  // initiator's profile governs the link's physics
  NodeId a = kInvalidNode;  // initiator
  NodeId b = kInvalidNode;  // acceptor
  Port port = 0;
  bool open = true;
  /// Graceful close in progress: new sends are rejected, queued messages
  /// still drain to the peer before the link actually dies.
  bool closing = false;
  LinkSide end_a, end_b;

  LinkSide& side(NodeId node) { return node == a ? end_a : end_b; }
  NodeId peer_of(NodeId side) const { return side == a ? b : a; }
  /// Drops both sides' handlers: they may capture Channels that own this
  /// state, and a dead link must not keep such cycles alive.
  void release_handlers() {
    end_a.rx = nullptr;
    end_b.rx = nullptr;
    end_a.brk = nullptr;
    end_b.brk = nullptr;
  }
};

}  // namespace ph::net::detail
