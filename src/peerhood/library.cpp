#include "peerhood/library.hpp"

#include <algorithm>

#include "peerhood/session_state.hpp"
#include "util/log.hpp"

namespace ph::peerhood {

PeerHood::PeerHood(Daemon& daemon) : daemon_(daemon) {}

PeerHood::~PeerHood() {
  // Sessions that outlive the library: release their callbacks. Accept
  // handlers routinely keep the Connection alive from inside its own
  // on_message (the keepalive idiom), which is a reference cycle through
  // SessionState that only the session's end — or this — can break.
  auto release = [](const std::weak_ptr<detail::SessionState>& weak_session) {
    if (auto session = weak_session.lock()) {
      session->on_message = nullptr;
      session->on_close = nullptr;
      session->on_ended = nullptr;
    }
  };
  for (auto& [name, endpoint] : endpoints_) {
    for (auto& plugin : daemon_.plugins()) {
      plugin->endpoint().stop_listen(endpoint->info.port);
    }
    for (auto& [id, weak_session] : endpoint->sessions) release(weak_session);
  }
  for (auto& weak_session : detached_sessions_) release(weak_session);
}

Result<void> PeerHood::register_service(
    const std::string& name, std::map<std::string, std::string> attributes,
    AcceptHandler on_accept) {
  if (endpoints_.contains(name)) {
    return Error{Errc::service_already_registered, name};
  }
  ServiceInfo info;
  info.name = name;
  info.port = allocate_port();
  if (info.port == 0) {
    return Error{Errc::invalid_argument, "no free service ports"};
  }
  info.attributes = std::move(attributes);
  if (auto r = daemon_.register_service(info); !r) return r;

  auto endpoint = std::make_shared<ServiceEndpoint>();
  endpoint->info = info;
  endpoint->on_accept = std::move(on_accept);
  std::weak_ptr<ServiceEndpoint> weak = endpoint;
  for (auto& plugin : daemon_.plugins()) {
    plugin->endpoint().listen(
        info.port, [this, weak](transport::Channel channel) {
          if (auto ep = weak.lock()) {
            accept_channel(ep, channel);
          } else {
            channel.close();
          }
        });
  }
  endpoints_.emplace(name, std::move(endpoint));
  return ok();
}

net::Port PeerHood::allocate_port() {
  // Application ports live in [1000, 65535] (net/types.hpp). A long-lived
  // device registering/unregistering services for weeks walks next_port_
  // off the end; wrap instead of overflowing into the daemon's control
  // range, and skip ports a live endpoint still listens on.
  constexpr net::Port kFirst = 1000;
  constexpr net::Port kLast = 65535;
  for (std::uint32_t scanned = 0; scanned <= kLast - kFirst; ++scanned) {
    if (next_port_ < kFirst) next_port_ = kFirst;
    const net::Port port = next_port_;
    next_port_ = port == kLast ? kFirst : static_cast<net::Port>(port + 1);
    bool taken = false;
    for (const auto& [name, endpoint] : endpoints_) {
      if (endpoint->info.port == port) {
        taken = true;
        break;
      }
    }
    if (!taken) return port;
  }
  return 0;
}

Result<void> PeerHood::unregister_service(const std::string& name) {
  auto it = endpoints_.find(name);
  if (it == endpoints_.end()) {
    return Error{Errc::service_not_found, name};
  }
  for (auto& plugin : daemon_.plugins()) {
    plugin->endpoint().stop_listen(it->second->info.port);
  }
  (void)daemon_.unregister_service(name);
  // The endpoint dies, its live sessions don't — remember them so the
  // destructor can still release their callbacks.
  for (auto& [id, weak_session] : it->second->sessions) {
    if (!weak_session.expired()) detached_sessions_.push_back(weak_session);
  }
  endpoints_.erase(it);
  return ok();
}

void PeerHood::accept_channel(const std::shared_ptr<ServiceEndpoint>& endpoint,
                              transport::Channel channel) {
  // The first frame decides: HELLO opens a session, RESUME reattaches one.
  // Channel is a value handle, so the captured copy keeps it alive until
  // that frame arrives.
  std::weak_ptr<ServiceEndpoint> weak_ep = endpoint;
  channel.on_receive([this, weak_ep, pending = channel](BytesView data) mutable {
    auto ep = weak_ep.lock();
    if (!ep) {
      pending.close();
      return;
    }
    auto wire = proto::decode_session_wire(data);
    if (!wire) {
      PH_LOG(warn, "phlib") << "dropping channel with malformed handshake";
      pending.close();
      return;
    }
    switch (wire->op) {
      case proto::SessionOp::hello: {
        // This handler runs under the client's HELLO flight span (the
        // substrate pushes it around delivery), so the accept span — and
        // everything the application does from on_accept — parents under
        // the remote device's send: the cross-device receive-side span.
        obs::Trace& journal = daemon_.transport().trace();
        const obs::SpanId accept_span =
            journal.begin_span("peerhood.session.accept",
                               daemon_.scheduler().now(), daemon_.self(),
                               "hello");
        obs::Trace::Scope causal(journal, accept_span);
        auto state = std::make_shared<detail::SessionState>();
        state->daemon = &daemon_;
        state->id = wire->session;
        state->self = daemon_.self();
        state->peer = pending.remote_node();
        state->service_port = ep->info.port;
        state->initiator = false;
        state->established = true;
        state->attach_channel(pending);
        ep->sessions[state->id] = state;
        state->on_ended = [weak_ep](std::uint64_t id) {
          if (auto e = weak_ep.lock()) e->sessions.erase(id);
        };
        if (ep->on_accept) ep->on_accept(Connection{state});
        journal.end_span(accept_span, daemon_.scheduler().now());
        break;
      }
      case proto::SessionOp::resume: {
        auto found = ep->sessions.find(wire->session);
        auto state = found == ep->sessions.end()
                         ? nullptr
                         : found->second.lock();
        if (!state || state->closed) {
          // The HELLO may have been lost in a channel break before it
          // arrived (the client connected and the radio died within the
          // handshake window). Treat the RESUME as an implicit session
          // open: the client retransmits everything unacknowledged anyway.
          PH_LOG(debug, "phlib")
              << "RESUME for unknown session " << wire->session
              << "; opening it implicitly";
          auto fresh = std::make_shared<detail::SessionState>();
          fresh->daemon = &daemon_;
          fresh->id = wire->session;
          fresh->self = daemon_.self();
          fresh->peer = pending.remote_node();
          fresh->service_port = ep->info.port;
          fresh->initiator = false;
          fresh->established = true;
          fresh->attach_channel(pending);
          ep->sessions[fresh->id] = fresh;
          fresh->on_ended = [weak_ep](std::uint64_t id) {
            if (auto e = weak_ep.lock()) e->sessions.erase(id);
          };
          fresh->handle_wire(*wire);  // answers with RESUME_ACK
          if (ep->on_accept) ep->on_accept(Connection{fresh});
          break;
        }
        state->scheduler().cancel(state->server_wait_timer);
        state->attach_channel(pending);
        state->established = true;
        ++state->handovers;
        // Let the normal wire path answer with RESUME_ACK + retransmit.
        state->handle_wire(*wire);
        break;
      }
      default:
        PH_LOG(warn, "phlib") << "unexpected pre-handshake frame";
        pending.close();
        break;
    }
  });
}

void PeerHood::connect(DeviceId device, std::string_view service,
                       ConnectOptions options, ConnectCallback done) {
  // Read the daemon's record in place; nothing below runs other code
  // before the last use of `info`.
  const DeviceInfo* info = daemon_.known_device(device);
  if (info == nullptr) {
    done(Error{Errc::unknown_device, "device " + std::to_string(device)});
    return;
  }
  const ServiceInfo* remote = info->find_service(service);
  if (remote == nullptr) {
    done(Error{Errc::service_not_found,
               std::string(service) + " not advertised by device " +
                   std::to_string(device)});
    return;
  }

  auto state = std::make_shared<detail::SessionState>();
  state->daemon = &daemon_;
  state->id = daemon_.transport().rng().uniform_int(1, UINT64_MAX);
  state->self = daemon_.self();
  state->peer = device;
  state->service_port = remote->port;
  state->initiator = true;
  state->options = options;

  // Radios ranked best-signal-first, free technologies preferred on ties.
  std::vector<Candidate> ranked;
  for (auto& plugin : daemon_.plugins()) {
    if (options.force_technology &&
        plugin->technology() != *options.force_technology) {
      continue;
    }
    if (!info->has_technology(plugin->technology())) continue;
    const double s = plugin->endpoint().signal_to(device);
    if (s > 0.0) ranked.push_back({plugin.get(), s});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.signal != b.signal) return a.signal > b.signal;
              return a.plugin->preference() < b.plugin->preference();
            });
  if (ranked.empty()) {
    done(Error{Errc::device_unreachable,
               "no radio reaches device " + std::to_string(device)});
    return;
  }
  try_connect(std::move(state), std::move(ranked), 0,
              Error{Errc::connect_failed, "no radio attempted"},
              std::move(done));
}

void PeerHood::try_connect(std::shared_ptr<detail::SessionState> state,
                           std::vector<Candidate> candidates,
                           std::size_t index, Error last_error,
                           ConnectCallback done) {
  if (index >= candidates.size()) {
    // Surface the final radio's failure (e.g. radio_busy is transient and
    // callers may want to retry shortly).
    done(std::move(last_error));
    return;
  }
  NetworkPlugin* plugin = candidates[index].plugin;
  plugin->endpoint().connect(
      state->peer, state->service_port,
      [this, state, candidates = std::move(candidates), index,
       done = std::move(done)](Result<transport::Channel> channel) mutable {
        if (!channel) {
          Error error = std::move(channel).error();
          try_connect(std::move(state), std::move(candidates), index + 1,
                      std::move(error), std::move(done));
          return;
        }
        state->attach_channel(*channel);
        state->established = true;
        state->send_wire({proto::SessionOp::hello, state->id, 0, 0, {}});
        state->arm_monitor();
        done(Connection{state});
      });
}

}  // namespace ph::peerhood
