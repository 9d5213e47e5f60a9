#include "net/link.hpp"

#include "net/link_state.hpp"
#include "net/medium.hpp"

namespace ph::net {

bool Link::open() const noexcept {
  return state_ && state_->open && !state_->closing;
}

NodeId Link::remote_node() const noexcept {
  return state_ ? state_->peer_of(self_) : kInvalidNode;
}

Technology Link::technology() const noexcept {
  return state_ ? state_->profile.tech : Technology::bluetooth;
}

void Link::on_receive(std::function<void(BytesView)> handler) {
  if (!state_) return;
  state_->rx_for(self_) =
      std::make_shared<const detail::LinkState::ReceiveHandler>(
          std::move(handler));
}

void Link::on_break(std::function<void()> handler) {
  if (state_) state_->brk_for(self_) = std::move(handler);
}

void Link::send(BytesView payload) {
  if (!open()) return;
  state_->medium->link_send(state_, self_, payload);
}

double Link::signal() const {
  if (!open()) return 0.0;
  return state_->medium->signal(state_->a, state_->b, state_->profile);
}

void Link::close() {
  if (!open()) return;
  state_->medium->link_close(state_, self_);
}

}  // namespace ph::net
