#include "transport/sim_transport.hpp"

namespace ph::transport {

class SimTransport::SimScheduler final : public Scheduler {
 public:
  explicit SimScheduler(sim::Simulator& simulator) : simulator_(simulator) {}

  sim::Time now() const override { return simulator_.now(); }
  sim::EventId schedule(sim::Duration delay, sim::EventFn fn) override {
    return simulator_.schedule(delay, std::move(fn));
  }
  bool cancel(sim::EventId id) override { return simulator_.cancel(id); }
  bool pending(sim::EventId id) const override {
    return simulator_.pending(id);
  }
  void run_until(sim::Time until) override { simulator_.run_until(until); }

 private:
  sim::Simulator& simulator_;
};

SimTransport::SimTransport(net::Medium& medium)
    : medium_(medium),
      scheduler_(std::make_unique<SimScheduler>(medium.simulator())) {}

SimTransport::~SimTransport() = default;

Scheduler& SimTransport::scheduler() { return *scheduler_; }
const Scheduler& SimTransport::scheduler() const { return *scheduler_; }

DeviceId SimTransport::add_device(
    std::string name, std::unique_ptr<sim::MobilityModel> mobility) {
  if (mobility == nullptr) {
    mobility = std::make_unique<sim::StaticMobility>(sim::Vec2{0.0, 0.0});
  }
  return medium_.add_node(std::move(name), std::move(mobility));
}

}  // namespace ph::transport
