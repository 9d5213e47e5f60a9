// CommunityServer — the server half of PeerHood Community (thesis §5.2.3.1).
//
// "Every PTD must contain the application server and server must run
// continuously. As the server is started, it registers the service named
// 'PeerHoodCommunity' into the Peerhood Daemon. The server always stays in
// the listening state for any request from the remote clients. On the
// request received from the remote client, the server analyses the request
// and packages the desired information into buffers and transmits to the
// connected client."
//
// handle() is the pure dispatch of Table 6 — request in, response out —
// and is unit-testable without any networking; start() wires it to a
// registered PeerHood service.
#pragma once

#include <functional>
#include <string>

#include "community/interests.hpp"
#include "community/profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "peerhood/library.hpp"
#include "proto/messages.hpp"
#include "util/result.hpp"

namespace ph::community {

/// The service name registered in the PHD (Figure 8).
inline constexpr std::string_view kServiceName = "PeerHoodCommunity";

class CommunityServer {
 public:
  /// `store` holds this device's accounts; `dictionary` canonicalizes
  /// interests for PS_GETINTERESTEDMEMBERLIST matching.
  CommunityServer(peerhood::PeerHood& peerhood, ProfileStore& store,
                  const SemanticDictionary& dictionary);
  ~CommunityServer();

  /// Registers the PeerHoodCommunity service and starts accepting.
  Result<void> start();
  void stop();
  bool running() const noexcept { return running_; }

  /// Pure Table 6 dispatch (no I/O): the response for one request given
  /// the current local state.
  proto::Response handle(const proto::Request& request);

  /// Typed view of the registry's `community.server.d<self>.*` counters
  /// (`requests_handled`, `sessions_accepted`, `bad_requests`).
  obs::Snapshot stats() const;

 private:
  void on_accept(peerhood::Connection connection);
  const Account* active() const { return store_.active(); }
  Account* active() { return store_.active(); }

  peerhood::PeerHood& peerhood_;
  ProfileStore& store_;
  const SemanticDictionary& dictionary_;
  bool running_ = false;
  /// Responses are encoded here, then copied by Connection::send.
  proto::Writer writer_;
  // Registry handles (`community.server.d<self>.*`) into the medium's
  // per-world registry; the trace journal is shared the same way.
  obs::Registry* registry_ = nullptr;
  obs::Trace* trace_ = nullptr;
  std::string metric_prefix_;
  obs::Counter* c_requests_handled_ = nullptr;
  obs::Counter* c_sessions_accepted_ = nullptr;
  obs::Counter* c_bad_requests_ = nullptr;
};

}  // namespace ph::community
