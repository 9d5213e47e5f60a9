#include "peerhood/connection.hpp"

#include "peerhood/session_state.hpp"

namespace ph::peerhood {

bool Connection::open() const noexcept { return state_ && !state_->closed; }

DeviceId Connection::remote_device() const noexcept {
  return state_ ? state_->peer : net::kInvalidNode;
}

std::uint64_t Connection::session_id() const noexcept {
  return state_ ? state_->id : 0;
}

net::Technology Connection::current_technology() const noexcept {
  return state_ && state_->channel.valid() ? state_->channel.technology()
                                           : net::Technology::bluetooth;
}

int Connection::handover_count() const noexcept {
  return state_ ? state_->handovers : 0;
}

void Connection::on_message(std::function<void(BytesView)> handler) {
  if (!state_) return;
  state_->on_message =
      std::make_shared<const detail::SessionState::MessageHandler>(
          std::move(handler));
}

void Connection::on_close(std::function<void(const Error&)> handler) {
  if (state_) state_->on_close = std::move(handler);
}

void Connection::send(BytesView payload) {
  if (state_) state_->send_payload(payload);
}

void Connection::close() {
  if (state_) state_->graceful_close();
}

}  // namespace ph::peerhood
