#include "transport/transport.hpp"

namespace ph::transport {

bool Channel::open() const noexcept { return state_ && state_->chan_open(); }

DeviceId Channel::remote_node() const noexcept {
  return state_ ? state_->chan_remote() : net::kInvalidNode;
}

net::Technology Channel::technology() const noexcept {
  return state_ ? state_->chan_technology() : net::Technology::bluetooth;
}

void Channel::on_receive(std::function<void(BytesView)> handler) {
  if (state_) state_->chan_on_receive(std::move(handler));
}

void Channel::on_break(std::function<void()> handler) {
  if (state_) state_->chan_on_break(std::move(handler));
}

void Channel::send(BytesView payload) {
  if (state_) state_->chan_send(payload);
}

double Channel::signal() const { return state_ ? state_->chan_signal() : 0.0; }

void Channel::close() {
  if (state_) state_->chan_close();
}

TransportMetrics register_transport_metrics(obs::Registry& registry) {
  TransportMetrics m;
  m.datagrams_sent = &registry.counter("transport.datagrams_sent");
  m.datagrams_received = &registry.counter("transport.datagrams_received");
  m.datagram_bytes = &registry.counter("transport.datagram_bytes");
  m.channels_opened = &registry.counter("transport.channels_opened");
  m.channels_accepted = &registry.counter("transport.channels_accepted");
  m.channels_broken = &registry.counter("transport.channels_broken");
  m.channel_messages = &registry.counter("transport.channel_messages");
  m.channel_bytes = &registry.counter("transport.channel_bytes");
  m.bad_frames = &registry.counter("transport.bad_frames");
  m.handshake_us = &registry.histogram("transport.handshake_us");
  m.channel_rtt_us = &registry.histogram("transport.channel_rtt_us");
  return m;
}

}  // namespace ph::transport
