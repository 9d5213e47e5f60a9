// Stack — one PeerHood device, fully assembled.
//
// Registers the device with a transport, creates one endpoint + plugin per
// requested technology, the PeerHood daemon and the library facade.
// Scenarios, examples and benches build their populations out of Stacks.
// The transport decides the substrate: a net::Medium for virtual-time
// simulation, SocketTransport for real sockets on loopback.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "peerhood/daemon.hpp"
#include "peerhood/library.hpp"
#include "transport/transport.hpp"

namespace ph::peerhood {

struct StackConfig {
  std::string device_name = "device";
  /// Radios to install; defaults to Bluetooth only, like the thesis' tests.
  std::vector<net::TechProfile> radios = {net::bluetooth_2_0()};
  DaemonConfig daemon;
  /// Start the daemon immediately (discovery begins at construction time).
  bool autostart = true;
  /// Substrate for the config-only constructor; the Stack(Transport&, ...)
  /// overload fills it in.
  transport::Transport* transport = nullptr;

  // Fluent builder, so call sites read as one declarative expression:
  //   Stack s(StackConfig{}.with_name("phone").with_radios({...})
  //                        .with_transport(transport));
  StackConfig& with_name(std::string name) {
    device_name = std::move(name);
    return *this;
  }
  StackConfig& with_radios(std::vector<net::TechProfile> r) {
    radios = std::move(r);
    return *this;
  }
  StackConfig& with_daemon(DaemonConfig d) {
    daemon = d;
    return *this;
  }
  StackConfig& with_autostart(bool on) {
    autostart = on;
    return *this;
  }
  StackConfig& with_transport(transport::Transport& t) {
    transport = &t;
    return *this;
  }
};

class Stack {
 public:
  /// Primary: assemble a device on any transport backend.
  Stack(transport::Transport& transport, StackConfig config,
        std::unique_ptr<sim::MobilityModel> mobility = nullptr);
  /// Builder form; config.transport must be set (with_transport).
  explicit Stack(StackConfig config,
                 std::unique_ptr<sim::MobilityModel> mobility = nullptr);
  /// The primary constructor with the mobility first, the argument order
  /// older simulated-medium call sites use. Owns nothing.
  Stack(transport::Transport& transport,
        std::unique_ptr<sim::MobilityModel> mobility, StackConfig config)
      : Stack(transport, std::move(config), std::move(mobility)) {}
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  DeviceId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return daemon_->device_name(); }
  Daemon& daemon() noexcept { return *daemon_; }
  PeerHood& library() noexcept { return *library_; }
  transport::Transport& transport() noexcept { return transport_; }

  /// Powers one radio on/off (failure injection, battery saving). Fails
  /// with not_supported when the device has no radio of that technology.
  Result<void> set_radio_powered(net::Technology tech, bool on);

  /// Whole-device blackout (fault plane): the daemon stops and every radio
  /// powers off, as if the battery was pulled. Neighbours evict this
  /// device through missed pings; local state (services, accounts) stays,
  /// like flash storage would.
  void blackout();
  /// Boot after a blackout: radios power on and the daemon cold-restarts —
  /// the neighbour table is wiped (monitors see GoneCause::blackout) and
  /// rebuilt from re-discovery.
  void restart();

 private:
  transport::Transport& transport_;
  DeviceId id_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<PeerHood> library_;
};

}  // namespace ph::peerhood
