#include "net/adapter.hpp"

#include "net/medium.hpp"
#include "util/log.hpp"

namespace ph::net {

Adapter::Adapter(Medium& medium, NodeId node, TechProfile profile)
    : medium_(medium), node_(node), profile_(std::move(profile)) {}

void Adapter::set_powered(bool on) {
  if (powered_ == on) return;
  powered_ = on;
  medium_.note_adapter_power(*this, on);  // keep the SoA powered mirror honest
  // Signals memoized earlier in this timestamp assumed the old power state.
  medium_.invalidate_signal_memo();
  PH_LOG(debug, "net") << "node " << node_ << " " << profile_.name
                       << (on ? " powered on" : " powered off");
  if (!on) medium_.break_links_of(node_, profile_.tech);
}

void Adapter::start_inquiry(transport::InquiryHandler done) {
  medium_.start_inquiry(*this, std::move(done));
}

void Adapter::bind(Port port, transport::DatagramHandler handler) {
  datagram_handlers_[port] =
      std::make_shared<const transport::DatagramHandler>(std::move(handler));
}

void Adapter::unbind(Port port) { datagram_handlers_.erase(port); }

void Adapter::send_datagram(NodeId dst, Port port, BytesView payload) {
  if (!powered_) return;
  medium_.deliver_datagram(*this, dst, port, payload);
}

void Adapter::broadcast_datagram(Port port, BytesView payload) {
  if (!powered_ || !profile_.supports_broadcast) return;
  // Modelled as one unicast per in-range peer: per-receiver loss, and the
  // (tiny, control-sized) payload serializes once per target — a
  // conservative over-approximation of one frame on the air.
  for (NodeId peer : medium_.nodes_in_range(node_, profile_)) {
    medium_.deliver_datagram(*this, peer, port, payload);
  }
}

void Adapter::listen(Port port, transport::AcceptHandler on_accept) {
  listeners_[port] = std::move(on_accept);
}

void Adapter::stop_listen(Port port) { listeners_.erase(port); }

void Adapter::connect(NodeId dst, Port port, transport::ConnectHandler done) {
  if (!powered_) {
    done(Error{Errc::connect_failed, "local adapter powered off"});
    return;
  }
  medium_.open_link(*this, dst, port, std::move(done));
}

double Adapter::signal_to(NodeId dst) const {
  return medium_.signal(node_, dst, profile_);
}

}  // namespace ph::net
