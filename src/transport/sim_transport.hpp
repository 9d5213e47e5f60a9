// SimTransport — the simulated-medium backend of ph::transport.
//
// A zero-behaviour-change adapter: every Endpoint/Channel/Scheduler call
// forwards 1:1 to the corresponding net::Adapter / net::Link /
// sim::Simulator call, in the same order the pre-transport code made it,
// so RNG consumption, event ordering and therefore whole runs stay
// byte-identical to driving the Medium directly (the chaos-determinism
// and trace byte-compare gates hold through this layer). The only state
// this backend adds is the common `transport.*` metric family
// (register_transport_metrics): passive counter increments that touch
// neither the RNG nor the event queue, so they count identically on every
// same-seed run.
//
// Several SimTransport instances may wrap one Medium (the Stack(Medium&,
// ...) constructor owns one per device); they share the Medium's
// registry, trace, RNG and simulator, so which instance a call goes
// through is unobservable. Each instance looks up only the endpoints it
// created itself.
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "net/medium.hpp"
#include "transport/transport.hpp"

namespace ph::transport {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(net::Medium& medium);
  ~SimTransport() override;

  const char* name() const override { return "sim"; }
  bool simulated() const override { return true; }

  Scheduler& scheduler() override;
  const Scheduler& scheduler() const override;
  obs::Registry& registry() override { return medium_.registry(); }
  obs::Trace& trace() override { return medium_.trace(); }
  sim::Rng& rng() override { return medium_.rng(); }

  DeviceId add_device(std::string name,
                      std::unique_ptr<sim::MobilityModel> mobility) override;
  Endpoint& add_endpoint(DeviceId device, net::TechProfile profile) override;
  Endpoint* endpoint(DeviceId device, net::Technology tech) override;

  /// Sim-only test hook: the radio world beneath this transport, for code
  /// that genuinely needs medium internals (fault injectors, access
  /// points, spatial assertions). Not part of the Transport interface —
  /// substrate-agnostic layers must not reach for it.
  net::Medium& medium() noexcept { return medium_; }

 private:
  class SimScheduler;

  net::Medium& medium_;
  std::unique_ptr<SimScheduler> scheduler_;
  /// Common `transport.*` handles in the Medium's registry; endpoints and
  /// channels created through this transport count into them.
  TransportMetrics metrics_;
  std::map<std::pair<DeviceId, net::Technology>, std::unique_ptr<Endpoint>>
      endpoints_;
};

}  // namespace ph::transport
