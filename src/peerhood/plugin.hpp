// PeerHood network plugins (thesis §4.2.3).
//
// "Unique plugins for different network technologies have been implemented
// and they are loaded dynamically by PHD and/or PeerHood Library." Each
// plugin adapts one radio technology to the uniform interface the daemon
// and library use: discovery, datagrams (daemon control traffic) and
// channel establishment. Since the transport split, that vocabulary is
// transport::Endpoint — the same plugin code drives a simulated adapter
// (net::Medium) or a real socket pair (SocketTransport); the plugins'
// value is the uniform interface, the preference ordering and
// per-technology identity, exactly the role the thesis assigns them.
#pragma once

#include <memory>
#include <string>

#include "transport/transport.hpp"

namespace ph::peerhood {

/// A plugin bound to one transport endpoint, which the transport owns.
class NetworkPlugin {
 public:
  NetworkPlugin(std::string name, transport::Endpoint& endpoint,
                int preference)
      : name_(std::move(name)), endpoint_(&endpoint), preference_(preference) {}

  /// Plugin display name: "BTPlugin", "WLANPlugin", "GPRSPlugin".
  const std::string& name() const { return name_; }

  net::Technology technology() const { return endpoint_->technology(); }
  const net::TechProfile& profile() const { return endpoint_->profile(); }

  /// The transport endpoint this plugin drives.
  transport::Endpoint& endpoint() { return *endpoint_; }
  const transport::Endpoint& endpoint() const { return *endpoint_; }

  /// Lower value = preferred for data when signals are comparable. The
  /// thesis prefers free short-range links (Bluetooth/WLAN) over paid GPRS.
  int preference() const { return preference_; }

 private:
  std::string name_;
  transport::Endpoint* endpoint_;
  int preference_;
};

/// Creates the plugin matching the endpoint's technology:
///   * BTPlugin (preference 0): L2CAP-style reliable links, no
///     BNEP/RFCOMM/PPP overhead (thesis §4.2.3). Preferred for local data:
///     free and reliable.
///   * WLANPlugin (1): IP with broadcast-based discovery, direct
///     device-to-device.
///   * GPRSPlugin (2): IP via the operator gateway proxy; last resort
///     (metered).
std::unique_ptr<NetworkPlugin> make_plugin(transport::Endpoint& endpoint);

}  // namespace ph::peerhood
