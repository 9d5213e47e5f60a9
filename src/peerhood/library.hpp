// PeerHood Library — thesis §4.2.2.
//
// "PeerHood library provides a local socket interface which could be used
// in handling communication between PHD and PeerHood-enabled applications.
// This library is used by the applications to request information from PHD
// and to request for connecting to remote services. [...] It is also used
// to register services into PHD and transmit data between devices."
//
// PeerHood is the one class applications hold: register services (with an
// accept handler for incoming sessions), browse the neighbourhood the PHD
// maintains, and connect to remote services — receiving a Connection with
// seamless-connectivity support.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "peerhood/connection.hpp"
#include "peerhood/daemon.hpp"
#include "peerhood/types.hpp"
#include "util/result.hpp"

namespace ph::peerhood {

/// Invoked for every new inbound session on a registered service.
using AcceptHandler = std::function<void(Connection)>;
/// Completion of an asynchronous connect.
using ConnectCallback = std::function<void(Result<Connection>)>;

class PeerHood {
 public:
  /// Binds to the device's daemon (the real middleware opens a local
  /// socket; in the simulator daemon and application share the process).
  explicit PeerHood(Daemon& daemon);
  ~PeerHood();
  PeerHood(const PeerHood&) = delete;
  PeerHood& operator=(const PeerHood&) = delete;

  Daemon& daemon() noexcept { return daemon_; }
  DeviceId self() const noexcept { return daemon_.self(); }

  // --- service side -------------------------------------------------------
  /// Registers `name` in the PHD, starts listening on every radio and
  /// invokes `on_accept` for each inbound session (Figure 8's
  /// pRegisterService + pListen loop).
  Result<void> register_service(
      const std::string& name,
      std::map<std::string, std::string> attributes,
      AcceptHandler on_accept);

  Result<void> unregister_service(const std::string& name);

  // --- client side ----------------------------------------------------------
  /// Opens a session to `service` on `device` (Figure 9's pConnect). Radios
  /// are tried best-signal-first. Completion is asynchronous; on success
  /// the Connection is already usable.
  void connect(DeviceId device, std::string_view service,
               ConnectOptions options, ConnectCallback done);

  // --- PHD passthrough ------------------------------------------------------
  std::vector<DeviceInfo> devices() const { return daemon_.devices(); }
  std::vector<std::pair<DeviceInfo, ServiceInfo>> find_service(
      std::string_view name) const {
    return daemon_.find_service(name);
  }

 private:
  struct ServiceEndpoint {
    ServiceInfo info;
    AcceptHandler on_accept;
    /// Live sessions by id — RESUME looks its session up here.
    std::map<std::uint64_t, std::weak_ptr<detail::SessionState>> sessions;
  };

  void accept_channel(const std::shared_ptr<ServiceEndpoint>& endpoint,
                      transport::Channel channel);
  /// Next free application port (>= 1000); wraps at 65535 and skips ports
  /// still bound to a registered service. Returns 0 when every port is
  /// taken.
  net::Port allocate_port();
  /// A radio that reaches the peer, with its signal at connect time.
  struct Candidate {
    NetworkPlugin* plugin;
    double signal;
  };
  /// Tries candidates[index] and, on failure, the ones after it.
  void try_connect(std::shared_ptr<detail::SessionState> state,
                   std::vector<Candidate> candidates, std::size_t index,
                   Error last_error, ConnectCallback done);

  Daemon& daemon_;
  // shared_ptr: in-flight handshakes hold weak references, so unregistering
  // a service while a link is mid-handshake stays safe.
  std::map<std::string, std::shared_ptr<ServiceEndpoint>> endpoints_;
  /// Sessions of since-unregistered services: they keep running without
  /// their endpoint, but the destructor must still be able to release
  /// their callbacks (see ~PeerHood).
  std::vector<std::weak_ptr<detail::SessionState>> detached_sessions_;
  net::Port next_port_ = 1000;
};

}  // namespace ph::peerhood
