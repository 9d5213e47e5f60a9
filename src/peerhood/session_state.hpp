// Internal session machinery behind peerhood::Connection.
// Private to ph_peerhood; applications include peerhood/connection.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "peerhood/connection.hpp"
#include "peerhood/daemon.hpp"
#include "peerhood/types.hpp"
#include "proto/session.hpp"
#include "transport/transport.hpp"
#include "util/bytes.hpp"

namespace ph::peerhood::detail {

struct SessionState : std::enable_shared_from_this<SessionState> {
  Daemon* daemon = nullptr;  // local daemon: plugins, scheduler access
  std::uint64_t id = 0;
  DeviceId self = net::kInvalidNode;
  DeviceId peer = net::kInvalidNode;
  net::Port service_port = 0;
  bool initiator = false;  // only the initiator drives resume/handover
  ConnectOptions options;

  /// The channel currently carrying the session (may be dead).
  transport::Channel channel;
  bool established = false;
  bool closed = false;
  bool resuming = false;
  int handovers = 0;
  /// Failed sweeps in the current recovery; drives the retry backoff.
  int resume_attempts = 0;

  // Reliability.
  std::uint32_t next_seq = 1;       // next outgoing sequence number
  std::uint32_t last_delivered = 0; // highest in-order seq handed to the app
  struct Outstanding {
    std::uint32_t seq = 0;
    Bytes payload;
    std::uint64_t trace = 0;  ///< sender context at first transmission
  };
  /// Sent but unacknowledged payloads, oldest first: the only owned copy
  /// of a sent payload (frames are encoded from it, first send and
  /// retransmits alike).
  std::vector<Outstanding> unacked;
  struct Arrival {
    Bytes payload;
    std::uint64_t trace = 0;  ///< remote sender's span, from the wire
  };
  /// Frames that arrived ahead of a gap; in-order frames never land here.
  std::map<std::uint32_t, Arrival> reorder;

  using MessageHandler = std::function<void(BytesView)>;
  /// Shared so a delivery holds the handler it runs (the handler may close
  /// the session, which releases it) without copying the std::function.
  std::shared_ptr<const MessageHandler> on_message;
  std::function<void(const Error&)> on_close;
  /// Server-side hook: endpoint bookkeeping removes the session on end.
  std::function<void(std::uint64_t)> on_ended;

  sim::EventId monitor_timer = 0;
  sim::EventId resume_timer = 0;
  sim::EventId server_wait_timer = 0;
  /// Open while the session hunts for a replacement channel.
  obs::SpanId resume_span = 0;

  transport::Scheduler& scheduler() { return daemon->scheduler(); }
  obs::Trace& journal();

  // --- lifecycle ---------------------------------------------------------
  /// Installs receive/break handlers on `new_channel` and makes it current.
  void attach_channel(transport::Channel new_channel);
  void handle_wire(const proto::SessionWire& wire);
  void send_payload(BytesView payload);
  /// Encodes `wire` into the daemon's writer and sends it on the current
  /// channel; dropped while the channel is down (resume retransmits).
  void send_wire(const proto::SessionWire& wire);
  /// Hands one in-order payload to the application.
  void deliver(BytesView payload, std::uint64_t trace);
  /// Drops unacked entries the peer has delivered (seq <= `delivered`).
  void drop_acked(std::uint32_t delivered);
  void graceful_close();
  void fail(Error error);
  void finish(const Error& reason);

  // --- seamless connectivity ----------------------------------------------
  void on_channel_break();
  void start_resume();
  void resume_sweep();
  /// Schedules the next sweep after a failure, backing off exponentially
  /// (capped + jittered) across consecutive failures.
  void schedule_resume_retry();
  void arm_monitor();
  void check_signal();
  void retransmit_from(std::uint32_t peer_last_delivered);
  void arm_server_wait();
};

}  // namespace ph::peerhood::detail
