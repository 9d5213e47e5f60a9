// ph::transport — the substrate seam under the PeerHood middleware.
//
// Everything above this interface (daemon, library, sessions, community
// apps) speaks in terms of *endpoints* (one per device × technology),
// *datagrams* (connectionless control traffic), *channels* (reliable
// ordered message streams) and a *scheduler* (timers + a clock). Two
// backends implement it:
//
//   * net::Medium     (net/medium.hpp)       — the simulated radio world
//     over a sim::Simulator. The Medium *is* the transport: its adapters
//     are the endpoints, each side of a link is a channel and its
//     scheduler is a view of the simulator: same seed ⇒ same run.
//   * SocketTransport (socket_transport.hpp) — real POSIX sockets (UNIX
//     domain datagram + stream) driven by an epoll wall-clock event loop,
//     so actual daemon instances exchange the same wire formats over
//     loopback.
//
// The split follows libqi's client/server-node + service-directory design:
// the transport owns addressing and byte movement, the middleware above is
// substrate-agnostic. Time is virtual microseconds on both substrates; the
// socket backend maps them onto the wall clock (optionally compressed, see
// SocketTransportConfig::time_scale).
//
// This header is self-contained (no library): ph_net implements the
// simulated backend without linking ph_transport, which holds the socket
// one.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/tech.hpp"
#include "net/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_fn.hpp"
#include "sim/event_queue.hpp"
#include "sim/mobility.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ph::transport {

/// Transport-level device identity; equals the Medium's node id on the
/// simulated substrate and a directory-assigned id on the socket one.
using DeviceId = net::NodeId;

// ---------------------------------------------------------------------------
// Scheduler — the clock handle of a transport.
// ---------------------------------------------------------------------------

/// Timers and a monotonic clock in virtual microseconds. The simulated
/// backend forwards to sim::Simulator; the socket backend keeps the
/// simulator's own sim::TimerWheelQueue over the wall clock, so handles,
/// pending() and cancel() mean the same on both. The subset below is
/// exactly what the middleware layers use, so the same daemon code runs
/// on both.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual sim::Time now() const = 0;

  /// Schedules `fn` to run `delay` after now(). Returns a cancel handle.
  virtual sim::EventId schedule(sim::Duration delay, sim::EventFn fn) = 0;

  /// Removes a pending event; false if it already ran or was cancelled.
  virtual bool cancel(sim::EventId id) = 0;

  /// True if the event is still pending.
  virtual bool pending(sim::EventId id) const = 0;

  /// Runs the substrate (events / sockets) until the clock reaches `until`.
  /// On the simulated backend this is Simulator::run_until; on the socket
  /// backend it pumps epoll + due timers until the wall clock maps past
  /// `until`. Tests and shells drive both substrates through this.
  virtual void run_until(sim::Time until) = 0;

  void run_for(sim::Duration d) { run_until(now() + d); }
};

// ---------------------------------------------------------------------------
// Channel — a reliable, ordered, message-oriented byte stream.
// ---------------------------------------------------------------------------

namespace detail {

/// Backend-side channel state. Channel is the value handle over it.
class ChannelState {
 public:
  virtual ~ChannelState() = default;
  virtual bool chan_open() const = 0;
  virtual DeviceId chan_remote() const = 0;
  virtual net::Technology chan_technology() const = 0;
  virtual void chan_on_receive(std::function<void(BytesView)> handler) = 0;
  virtual void chan_on_break(std::function<void()> handler) = 0;
  virtual void chan_send(BytesView payload) = 0;
  virtual double chan_signal() const = 0;
  virtual void chan_close() = 0;
};

}  // namespace detail

/// Connection-oriented, ordered, reliable message delivery between two
/// endpoints of one technology.
/// What a Channel cannot survive is the substrate dropping the pair (peer
/// out of radio range, socket reset) — then it *breaks* and both sides'
/// break handlers fire. Seamless recovery across technologies is the
/// PeerHood session layer's job, built on top of these.
///
/// Channel is a value handle (shared state internally); copies refer to
/// the same endpoint of the same channel.
class Channel {
 public:
  /// An empty (never-connected) handle; valid() is false.
  Channel() = default;
  explicit Channel(std::shared_ptr<detail::ChannelState> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }
  /// True while data can still be sent (not closed, not broken).
  bool open() const noexcept { return state_ && state_->chan_open(); }

  DeviceId remote_node() const noexcept {
    return state_ ? state_->chan_remote() : net::kInvalidNode;
  }
  net::Technology technology() const noexcept {
    return state_ ? state_->chan_technology() : net::Technology::bluetooth;
  }

  /// Handler for message payloads arriving from the peer, delivered in
  /// send order, exactly once, while the channel is open.
  void on_receive(std::function<void(BytesView)> handler) {
    if (state_) state_->chan_on_receive(std::move(handler));
  }

  /// Handler invoked once when the channel terminates for any reason other
  /// than a local close(): peer closed, peer unreachable, endpoint
  /// powered off, socket reset.
  void on_break(std::function<void()> handler) {
    if (state_) state_->chan_on_break(std::move(handler));
  }

  /// Queues a message to the peer; silently discarded if no longer open.
  /// The payload is copied before send returns or calls out, so callers
  /// may encode into a reused buffer.
  void send(BytesView payload) {
    if (state_) state_->chan_send(payload);
  }

  /// Current signal strength towards the peer in [0,1]; real substrates
  /// report 1 while the connection is alive.
  double signal() const { return state_ ? state_->chan_signal() : 0.0; }

  /// Graceful local close; the peer observes a break shortly afterwards.
  void close() {
    if (state_) state_->chan_close();
  }

  /// Two handles are equal when they refer to the same underlying channel.
  friend bool operator==(const Channel& a, const Channel& b) noexcept {
    return a.state_ == b.state_;
  }

 private:
  std::shared_ptr<detail::ChannelState> state_;
};

// ---------------------------------------------------------------------------
// Endpoint — one device × technology attachment point.
// ---------------------------------------------------------------------------

using DatagramHandler = std::function<void(DeviceId src, BytesView payload)>;
using InquiryHandler = std::function<void(std::vector<DeviceId> found)>;
using AcceptHandler = std::function<void(Channel channel)>;
using ConnectHandler = std::function<void(Result<Channel>)>;

/// The per-radio vocabulary the PeerHood plugins adapt: discovery,
/// unreliable port-addressed datagrams, and channel open/accept. On the
/// simulated substrate an endpoint is a net::Adapter; on the socket
/// substrate each endpoint owns real datagram + listening sockets.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual DeviceId device() const = 0;
  virtual const net::TechProfile& profile() const = 0;
  net::Technology technology() const { return profile().tech; }

  /// Powered-off endpoints neither send, receive, answer inquiries nor
  /// keep channels alive (in-flight channels break).
  virtual void set_powered(bool on) = 0;
  virtual bool powered() const = 0;

  /// Starts a discovery scan; `done` fires after the profile's inquiry
  /// duration with the powered same-technology peers found.
  virtual void start_inquiry(InquiryHandler done) = 0;

  /// Binds a handler for datagrams addressed to `port` (one per port;
  /// rebinding replaces it). The payload handed to the handler is valid
  /// only for the call.
  virtual void bind(net::Port port, DatagramHandler handler) = 0;
  virtual void unbind(net::Port port) = 0;

  /// Fire-and-forget message; lost frames are dropped (callers requiring
  /// reliability retry with their own timeout, as the daemon does). Like
  /// Channel::send, copies the payload before it returns or calls out.
  virtual void send_datagram(DeviceId dst, net::Port port,
                             BytesView payload) = 0;

  /// One-to-all datagram to every in-range peer bound on `port`. Only
  /// meaningful on technologies with `supports_broadcast`; no-op otherwise.
  virtual void broadcast_datagram(net::Port port, BytesView payload) = 0;

  /// Accepts incoming channels on `port`.
  virtual void listen(net::Port port, AcceptHandler on_accept) = 0;
  virtual void stop_listen(net::Port port) = 0;

  /// Opens a channel to `dst`:`port`; completes asynchronously with a
  /// Channel or an error (peer unreachable, unpowered, not listening).
  virtual void connect(DeviceId dst, net::Port port, ConnectHandler done) = 0;

  /// Signal strength towards `dst` in [0,1]; 0 = unreachable. Real
  /// substrates report 1 for any reachable registered peer.
  virtual double signal_to(DeviceId dst) const = 0;
};

// ---------------------------------------------------------------------------
// TransportMetrics — the substrate-independent telemetry schema.
// ---------------------------------------------------------------------------

/// The metric families every backend registers eagerly at construction,
/// under common `transport.*` names, so dashboards, ph_ops_dump merges and
/// the conformance parity test read one schema regardless of substrate.
/// Backend-specific extras live under `transport.<backend>.` (e.g. the
/// epoll-loop instruments under `transport.socket.`). A backend registers
/// every family even when it never observes into some of them: the
/// histograms hold wall-clock µs, which the simulated backend never
/// records.
///
/// The counters mean the same on every backend: a datagram counts as sent
/// once per receiver it is addressed to (a broadcast once per peer) and as
/// received once per arrival, bound port or not; a channel message counts
/// when sent on an open channel, its bytes when sent and again when
/// delivered; a break counts on each side that observes it (a local close
/// is observed only by the peer).
struct TransportMetrics {
  obs::Counter* datagrams_sent = nullptr;
  obs::Counter* datagrams_received = nullptr;
  obs::Counter* datagram_bytes = nullptr;      ///< payload bytes sent
  obs::Counter* channels_opened = nullptr;     ///< successful connects
  obs::Counter* channels_accepted = nullptr;   ///< successful accepts
  obs::Counter* channels_broken = nullptr;
  obs::Counter* channel_messages = nullptr;    ///< messages sent
  obs::Counter* channel_bytes = nullptr;       ///< payload bytes both ways
  obs::Counter* bad_frames = nullptr;
  obs::Histogram* handshake_us = nullptr;      ///< wall µs, connect + accept
  obs::Histogram* channel_rtt_us = nullptr;    ///< wall µs, echoed probes
};

/// Registers (or re-finds) the whole family in `registry`. Idempotent —
/// several transports over one registry share the instruments.
inline TransportMetrics register_transport_metrics(obs::Registry& registry) {
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

// ---------------------------------------------------------------------------
// Transport — the root object a PeerHood world hangs off.
// ---------------------------------------------------------------------------

class Transport {
 public:
  virtual ~Transport() = default;
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// "sim" or "socket" — logs and bench labels.
  virtual const char* name() const = 0;

  virtual Scheduler& scheduler() = 0;
  virtual const Scheduler& scheduler() const = 0;

  /// The per-world metrics registry and virtual-time trace journal every
  /// layer above publishes into.
  virtual obs::Registry& registry() = 0;
  virtual obs::Trace& trace() = 0;

  /// The world's deterministic RNG stream (session ids, jitter forks).
  virtual sim::Rng& rng() = 0;

  /// Registers a device. `mobility` drives positions on the simulated
  /// substrate and is ignored (may be null) on real ones.
  virtual DeviceId add_device(std::string name,
                              std::unique_ptr<sim::MobilityModel> mobility) = 0;

  /// Creates the endpoint for (device, profile.tech); at most one per
  /// pair. The endpoint lives as long as the transport.
  virtual Endpoint& add_endpoint(DeviceId device, net::TechProfile profile) = 0;

  /// The device's endpoint for a technology, or nullptr if it has none.
  virtual Endpoint* endpoint(DeviceId device, net::Technology tech) = 0;
};

}  // namespace ph::transport
