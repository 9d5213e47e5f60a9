#include <algorithm>

#include "peerhood/session_state.hpp"
#include "sim/backoff.hpp"
#include "proto/codec.hpp"
#include "proto/session.hpp"
#include "util/log.hpp"
#include "obs/prof.hpp"

namespace ph::peerhood::detail {

void SessionState::attach_channel(transport::Channel new_channel) {
  channel = new_channel;
  auto weak = weak_from_this();
  // Handlers capture the channel they belong to: after a handover, events
  // from the superseded channel must not disturb the session.
  channel.on_receive([weak, new_channel](BytesView data) {
    auto self = weak.lock();
    if (!self || self->closed || !(self->channel == new_channel)) return;
    auto wire = proto::decode_session_wire(data);
    if (!wire) {
      PH_LOG(warn, "conn") << "malformed session frame: "
                           << wire.error().to_string();
      return;
    }
    self->handle_wire(*wire);
  });
  channel.on_break([weak, new_channel] {
    auto self = weak.lock();
    if (!self || self->closed || !(self->channel == new_channel)) return;
    self->on_channel_break();
  });
}

void SessionState::send_wire(const proto::SessionWire& wire) {
  if (!channel.open()) return;
  // The transport copies the frame before send returns, so the writer is
  // free again for whatever the send might set off.
  proto::Writer& out = daemon->writer();
  out.clear();
  proto::encode(wire, out);
  channel.send(out.data());
}

obs::Trace& SessionState::journal() { return daemon->transport().trace(); }

void SessionState::send_payload(BytesView payload) {
  if (closed) return;
  const std::uint32_t seq = next_seq++;
  // The innermost open span (the RPC, the task) rides the wire so the
  // peer parents its handling under the remote sender — including when
  // the frame is retransmitted over a different channel after handover.
  const std::uint64_t trace_ctx = journal().current_context();
  const Outstanding& entry = unacked.emplace_back(
      Outstanding{seq, Bytes(payload.begin(), payload.end()), trace_ctx});
  // Encoded from the unacked copy: send_wire is done reading it before
  // anything can touch unacked again.
  send_wire({proto::SessionOp::data, id, seq, trace_ctx, entry.payload});
}

void SessionState::deliver(BytesView payload, std::uint64_t trace) {
  ++last_delivered;
  if (!on_message) return;
  // Hold the handler: it may close the session, which releases
  // on_message, and must not destroy the lambda it is running in.
  const std::shared_ptr<const MessageHandler> handler = on_message;
  // Deliver under the remote sender's span from the wire (a reordered
  // frame would otherwise inherit the wrong flight span from the
  // channel's receive path).
  obs::Trace::Scope causal(journal(), trace);
  (*handler)(payload);
}

void SessionState::drop_acked(std::uint32_t delivered) {
  auto first_kept = unacked.begin();
  while (first_kept != unacked.end() && first_kept->seq <= delivered) {
    ++first_kept;
  }
  unacked.erase(unacked.begin(), first_kept);
}

void SessionState::handle_wire(const proto::SessionWire& wire) {
  using proto::SessionOp;
  switch (wire.op) {
    case SessionOp::hello:
      // Handled at accept time by the library; a duplicate here is noise.
      break;
    case SessionOp::resume:
      // Server side: the library reattached the channel already;
      // acknowledge with our delivery point and retransmit what the client
      // lacks.
      if (!initiator) {
        send_wire({SessionOp::resume_ack, id, last_delivered, 0, {}});
        retransmit_from(wire.seq);
      }
      break;
    case SessionOp::resume_ack:
      if (initiator && resuming) {
        resuming = false;
        established = true;
        ++handovers;
        resume_attempts = 0;  // recovered: next break backs off from scratch
        scheduler().cancel(resume_timer);
        journal().end_span(resume_span, scheduler().now());
        resume_span = 0;
        journal().add_event("peerhood.session.handover", scheduler().now(),
                            self,
                            std::string(net::to_string(channel.technology())));
        retransmit_from(wire.seq);
        arm_monitor();
        PH_LOG(info, "conn") << "session " << id << " resumed over "
                             << net::to_string(channel.technology());
      }
      break;
    case SessionOp::data: {
      // Acknowledge cumulatively, deliver in order exactly once. The
      // next expected frame is delivered straight from the wire; only a
      // frame ahead of a gap is copied and parked.
      if (wire.seq == last_delivered + 1) {
        deliver(wire.payload, wire.trace);
        if (closed) return;  // handler closed the session
      } else if (wire.seq > last_delivered) {
        reorder.emplace(wire.seq,
                        Arrival{Bytes(wire.payload.begin(), wire.payload.end()),
                                wire.trace});
      }
      while (!reorder.empty() && reorder.begin()->first == last_delivered + 1) {
        const Arrival arrival = std::move(reorder.begin()->second);
        reorder.erase(reorder.begin());
        deliver(arrival.payload, arrival.trace);
        if (closed) return;
      }
      send_wire({SessionOp::ack, id, last_delivered, 0, {}});
      break;
    }
    case SessionOp::ack:
      drop_acked(wire.seq);
      break;
    case SessionOp::close:
      finish(Error{Errc::ok});
      break;
  }
}

void SessionState::retransmit_from(std::uint32_t peer_last_delivered) {
  drop_acked(peer_last_delivered);
  for (std::size_t i = 0; i < unacked.size(); ++i) {
    // Indexed: a send that breaks the channel can re-enter the session.
    const Outstanding& entry = unacked[i];
    send_wire({proto::SessionOp::data, id, entry.seq, entry.trace,
               entry.payload});
  }
}

void SessionState::graceful_close() {
  if (closed) return;
  send_wire({proto::SessionOp::close, id, 0, 0, {}});
  closed = true;
  journal().end_span(resume_span, scheduler().now());
  resume_span = 0;
  scheduler().cancel(monitor_timer);
  scheduler().cancel(resume_timer);
  scheduler().cancel(server_wait_timer);
  if (channel.valid()) channel.close();
  if (on_ended) on_ended(id);
  // Handlers may capture Connection handles that own this state; release
  // them so ended sessions cannot form reference cycles.
  on_message = nullptr;
  on_close = nullptr;
  on_ended = nullptr;
}

void SessionState::fail(Error error) { finish(error); }

void SessionState::finish(const Error& reason) {
  if (closed) return;
  closed = true;
  journal().end_span(resume_span, scheduler().now());
  resume_span = 0;
  scheduler().cancel(monitor_timer);
  scheduler().cancel(resume_timer);
  scheduler().cancel(server_wait_timer);
  if (channel.valid() && channel.open()) channel.close();
  if (on_ended) on_ended(id);
  if (on_close) {
    auto handler = on_close;  // survive handler resetting the Connection
    handler(reason);
  }
  on_message = nullptr;
  on_close = nullptr;
  on_ended = nullptr;
}

void SessionState::on_channel_break() {
  if (closed) return;
  established = false;
  scheduler().cancel(monitor_timer);
  if (!options.seamless) {
    finish(Error{Errc::connection_lost, "channel broke, seamless mode off"});
    return;
  }
  if (initiator) {
    if (resuming) {
      // A resume attempt's own channel died (peer refused, moved, or the
      // radio flapped): sweep again after backoff; the deadline timer is
      // still armed from the original break.
      schedule_resume_retry();
      return;
    }
    start_resume();
  } else {
    // Server side: wait for the initiator to resume; give up after the
    // same deadline the client uses.
    arm_server_wait();
  }
}

void SessionState::arm_server_wait() {
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_session);
  auto weak = weak_from_this();
  scheduler().cancel(server_wait_timer);
  server_wait_timer =
      scheduler().schedule(options.resume_deadline, [weak] {
        auto self = weak.lock();
        if (!self || self->closed || self->established) return;
        self->finish(Error{Errc::connection_lost, "peer never resumed"});
      });
}

void SessionState::schedule_resume_retry() {
  sim::Backoff backoff;
  backoff.base = options.resume_retry_interval;
  backoff.multiplier = options.resume_backoff;
  backoff.cap = std::max(options.resume_retry_cap, options.resume_retry_interval);
  backoff.jitter = options.resume_jitter;
  const sim::Duration delay =
      backoff.delay(resume_attempts++, daemon->jitter_rng());
  // The idle window is known now — record it as a closed child of the
  // resume span so attribution can separate backoff from reconnecting.
  const obs::SpanId wait = journal().begin_span_under(
      resume_span, "peerhood.backoff.wait", scheduler().now(), self, "backoff");
  journal().end_span(wait, scheduler().now() + delay);
  auto weak = weak_from_this();
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_session);
  scheduler().schedule(delay, [weak] {
    auto self = weak.lock();
    if (self) self->resume_sweep();
  });
}

void SessionState::start_resume() {
  if (resuming) return;
  resuming = true;
  resume_attempts = 0;
  resume_span = journal().begin_span("peerhood.session.resume",
                                     scheduler().now(), self, "resume");
  PH_LOG(info, "conn") << "session " << id
                       << " lost its channel; hunting for an alternative";
  auto weak = weak_from_this();
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_session);
  scheduler().cancel(resume_timer);
  resume_timer = scheduler().schedule(options.resume_deadline, [weak] {
    auto self = weak.lock();
    if (!self || self->closed || !self->resuming) return;
    self->resuming = false;
    self->finish(Error{Errc::connection_lost, "resume deadline exceeded"});
  });
  resume_sweep();
}

void SessionState::resume_sweep() {
  if (closed || !resuming) return;
  // Rank this device's radios by signal towards the peer, preferring free
  // technologies on ties — "the best possible alternative" (Table 3).
  struct Candidate {
    NetworkPlugin* plugin;
    double signal;
  };
  std::vector<Candidate> candidates;
  for (const auto& plugin : daemon->plugins()) {
    if (options.force_technology &&
        plugin->technology() != *options.force_technology) {
      continue;
    }
    const double s = plugin->endpoint().signal_to(peer);
    if (s > 0.0) candidates.push_back({plugin.get(), s});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.signal != b.signal) return a.signal > b.signal;
              return a.plugin->preference() < b.plugin->preference();
            });
  if (candidates.empty()) {
    // Nothing reachable right now; back off and retry (the peer may walk
    // back into range — or the outage end — before the deadline).
    schedule_resume_retry();
    return;
  }
  auto weak = weak_from_this();
  NetworkPlugin* plugin = candidates.front().plugin;
  // Connect attempts (net.link.open) belong under the resume span.
  obs::Trace::Scope causal(journal(), resume_span);
  plugin->endpoint().connect(
      peer, service_port, [weak](Result<transport::Channel> result) {
        auto self = weak.lock();
        if (!self || self->closed || !self->resuming) {
          if (result) result->close();
          return;
        }
        if (!result) {
          self->schedule_resume_retry();
          return;
        }
        self->attach_channel(*result);
        obs::Trace::Scope causal(self->journal(), self->resume_span);
        self->send_wire({proto::SessionOp::resume, self->id,
                         self->last_delivered, 0, {}});
        // established flips when resume_ack arrives.
      });
}

void SessionState::arm_monitor() {
  if (!initiator || options.monitor_interval == 0 || !options.seamless) return;
  auto weak = weak_from_this();
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_session);
  scheduler().cancel(monitor_timer);
  monitor_timer = scheduler().schedule(options.monitor_interval, [weak] {
    auto self = weak.lock();
    if (!self || self->closed) return;
    self->check_signal();
  });
}

void SessionState::check_signal() {
  if (closed || resuming || !established) return;
  const double current = channel.signal();
  if (current < options.weak_signal_threshold) {
    // Is any other radio meaningfully better right now?
    for (const auto& plugin : daemon->plugins()) {
      if (plugin->technology() == channel.technology()) continue;
      if (options.force_technology) break;  // pinned: no proactive handover
      if (plugin->endpoint().signal_to(peer) > current + 0.1) {
        PH_LOG(info, "conn")
            << "session " << id << " signal weak ("
            << current << ") on " << net::to_string(channel.technology())
            << "; proactive handover";
        // Drop the weak channel and reuse the resume machinery.
        transport::Channel old = channel;
        established = false;
        start_resume();
        old.close();
        return;
      }
    }
  }
  arm_monitor();
}

}  // namespace ph::peerhood::detail
