// SimTransport — the simulated-medium backend of ph::transport.
//
// The simulated radio world already speaks the transport vocabulary: a
// net::Adapter is this backend's Endpoint and each side of a Medium link is
// a Channel, so add_endpoint hands out the Medium's adapter itself and
// nothing forwards or wraps. What this class adds is the Scheduler view of
// the sim::Simulator and the Transport root (registry, trace, RNG and
// device registration, all the Medium's). The common `transport.*` family
// is counted by the Medium for every adapter and link, whichever transport
// (or none) created them.
//
// Several SimTransport instances may share one Medium (the Stack(Medium&,
// ...) constructor owns one per device); they share the Medium's
// registry, trace, RNG, simulator and adapters, so which instance a call
// goes through is unobservable.
#pragma once

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
  Endpoint& add_endpoint(DeviceId device, net::TechProfile profile) override {
    return medium_.add_adapter(device, std::move(profile));
  }
  Endpoint* endpoint(DeviceId device, net::Technology tech) override {
    return medium_.adapter(device, tech);
  }

  /// Sim-only test hook: the radio world beneath this transport, for code
  /// that genuinely needs medium internals (fault injectors, access
  /// points, spatial assertions). Not part of the Transport interface —
  /// substrate-agnostic layers must not reach for it.
  net::Medium& medium() noexcept { return medium_; }

 private:
  class SimScheduler;

  net::Medium& medium_;
  std::unique_ptr<SimScheduler> scheduler_;
};

}  // namespace ph::transport
