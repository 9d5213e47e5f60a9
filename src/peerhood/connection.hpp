// Connection — PeerHood's application-facing data channel.
//
// Thesis Table 3, "Data Transmission between Devices" + "Seamless
// Connectivity": "When PeerHood senses the breaking or weakening of the
// established connection, it tries to find the best possible alternative
// for that breaking connection, maintaining the connectivity."
//
// A Connection is a message-oriented, ordered, exactly-once session between
// two devices, layered over per-technology transport::Channels:
//
//   * every payload carries a sequence number and is buffered until the
//     peer acknowledges it;
//   * when the underlying channel breaks (peer walked out of Bluetooth range)
//     the *initiating* side hunts for an alternative technology, reconnects
//     to the same service port and RESUMEs the session — both sides then
//     retransmit whatever the other has not acknowledged;
//   * a weakening link (signal below threshold) triggers the same handover
//     proactively, before data is lost.
//
// Connection is a value handle over shared session state; copies refer to
// the same session.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/tech.hpp"
#include "peerhood/types.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace ph::peerhood {

namespace detail {
struct SessionState;
}

/// Tuning for connect() and the seamless-connectivity machinery.
struct ConnectOptions {
  /// Off = the thesis' plain connection: a broken link ends the session.
  bool seamless = true;
  /// Give up resuming after this long without a working link.
  sim::Duration resume_deadline = sim::seconds(15);
  /// Pause before the first failed resume sweep's retry; later sweeps in
  /// the same recovery back off exponentially (see resume_backoff).
  sim::Duration resume_retry_interval = sim::milliseconds(500);
  /// Backoff multiplier across consecutive failed sweeps — under a radio
  /// outage, hammering connects at a fixed cadence wastes the whole
  /// deadline budget probing a dead medium. Resets once a sweep lands a
  /// link.
  double resume_backoff = 2.0;
  /// Cap on the un-jittered sweep retry delay.
  sim::Duration resume_retry_cap = sim::seconds(4);
  /// ±fractional deterministic jitter on each retry delay (drawn from the
  /// daemon's forked jitter stream; 0 disables).
  double resume_jitter = 0.1;
  /// Signal-check period for proactive handover (0 disables checks).
  sim::Duration monitor_interval = sim::milliseconds(500);
  /// Below this signal strength the connection hunts for a better radio.
  double weak_signal_threshold = 0.15;
  /// Pin the session to one technology (disables failover across radios).
  std::optional<net::Technology> force_technology;
};

class Connection {
 public:
  Connection() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  /// True until closed or failed; sends on a non-open connection no-op.
  bool open() const noexcept;

  DeviceId remote_device() const noexcept;
  std::uint64_t session_id() const noexcept;
  /// Technology of the channel currently carrying the session.
  net::Technology current_technology() const noexcept;
  /// Times the session has moved to a different link (reactive + proactive).
  int handover_count() const noexcept;

  /// In-order, exactly-once message delivery from the peer. The payload
  /// usually views the received frame itself: it is valid only inside the
  /// handler call, so keep a copy of anything needed later.
  void on_message(std::function<void(BytesView)> handler);
  /// Invoked once when the session ends: Errc::ok for a graceful remote
  /// close, Errc::connection_lost when seamless recovery gave up.
  void on_close(std::function<void(const Error&)> handler);

  /// Queues a message; survives handovers via retransmission. The payload
  /// is copied before send returns (the copy is kept until the peer
  /// acknowledges it), so the caller may reuse its buffer at once.
  void send(BytesView payload);

  /// Graceful close (Figure 7: "connection is terminated successfully on
  /// request"); notifies the peer.
  void close();

 private:
  friend class PeerHood;
  friend struct detail::SessionState;
  explicit Connection(std::shared_ptr<detail::SessionState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::SessionState> state_;
};

}  // namespace ph::peerhood
