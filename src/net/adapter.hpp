// Adapter — one radio of one technology on one device.
//
// A device in the thesis carries up to three radios (Bluetooth, WLAN, GPRS);
// each maps to one Adapter created through Medium::add_adapter. The adapter
// is the simulated substrate's transport::Endpoint, offering the three
// primitives the PeerHood plugins need:
//
//   * inquiry            — device discovery (Bluetooth inquiry scan, WLAN
//                          broadcast beacon round, GPRS gateway lookup)
//   * datagrams          — connectionless, *unreliable*, port-addressed
//                          messages (SDP-style service queries)
//   * connections        — reliable ordered transport::Channels, one per
//                          side of a Medium link (see link_state.hpp)
//
// Adapters are owned by the Medium and live as long as it does.
#pragma once

#include <map>
#include <memory>

#include "net/tech.hpp"
#include "net/types.hpp"
#include "transport/transport.hpp"
#include "util/bytes.hpp"

namespace ph::net {

class Medium;

class Adapter final : public transport::Endpoint {
 public:
  Adapter(Medium& medium, NodeId node, TechProfile profile);
  Adapter(const Adapter&) = delete;
  Adapter& operator=(const Adapter&) = delete;

  NodeId device() const override { return node_; }
  const TechProfile& profile() const override { return profile_; }

  /// Powered-off adapters neither send, receive, answer inquiries nor keep
  /// links alive (in-flight links break).
  void set_powered(bool on) override;
  bool powered() const override { return powered_; }

  // --- device discovery ------------------------------------------------
  /// Starts a discovery scan; `done` fires after the profile's inquiry
  /// duration with the ids of powered same-technology neighbours found
  /// (each detected with the profile's detection probability).
  void start_inquiry(transport::InquiryHandler done) override;

  // --- connectionless datagrams ----------------------------------------
  void bind(Port port, transport::DatagramHandler handler) override;
  void unbind(Port port) override;

  /// Fire-and-forget message. Lost frames are dropped (no retransmission);
  /// callers requiring reliability retry with their own timeout, which is
  /// exactly what the PeerHood daemon's service queries do.
  void send_datagram(NodeId dst, Port port, BytesView payload) override;

  /// One-to-all datagram to every in-range peer bound on `port`. Only
  /// valid on technologies with `supports_broadcast` (WLAN); a no-op
  /// otherwise. Loss applies per receiver.
  void broadcast_datagram(Port port, BytesView payload) override;

  // --- connections ------------------------------------------------------
  void listen(Port port, transport::AcceptHandler on_accept) override;
  void stop_listen(Port port) override;

  /// Initiates a connection to `dst`:`port`. Completes after the
  /// technology's connect latency with a Channel, or with an error if the
  /// peer is unreachable, unpowered or not listening.
  void connect(NodeId dst, Port port, transport::ConnectHandler done) override;

  /// Signal strength towards `dst` in [0,1]; 0 = out of range.
  double signal_to(NodeId dst) const override;

 private:
  friend class Medium;

  Medium& medium_;
  NodeId node_;
  TechProfile profile_;
  bool powered_ = true;
  /// Shared so a delivery holds the handler it runs (the handler may
  /// rebind its own port) without copying the std::function.
  std::map<Port, std::shared_ptr<const transport::DatagramHandler>>
      datagram_handlers_;
  std::map<Port, transport::AcceptHandler> listeners_;
  sim::Time tx_busy_until_ = 0;  // datagram serialization on this radio
  /// Index of this adapter in the Medium's per-technology SoA arrays
  /// (ids/powered/positions); maintained by Medium::add_adapter.
  std::size_t tech_index_ = 0;
};

}  // namespace ph::net
