#include "peerhood/stack.hpp"

#include "util/check.hpp"

namespace ph::peerhood {

Stack::Stack(transport::Transport& transport, StackConfig config,
             std::unique_ptr<sim::MobilityModel> mobility)
    : transport_(transport) {
  id_ = transport_.add_device(config.device_name, std::move(mobility));
  daemon_ = std::make_unique<Daemon>(transport_, id_, config.device_name,
                                     config.daemon);
  for (const net::TechProfile& profile : config.radios) {
    transport::Endpoint& endpoint = transport_.add_endpoint(id_, profile);
    PH_CHECK(bool(daemon_->add_plugin(make_plugin(endpoint))));
  }
  library_ = std::make_unique<PeerHood>(*daemon_);
  if (config.autostart) (void)daemon_->start();
}

namespace {

transport::Transport& require_transport(const StackConfig& config) {
  PH_CHECK_MSG(config.transport != nullptr,
               "StackConfig needs with_transport(...) for this constructor");
  return *config.transport;
}

}  // namespace

Stack::Stack(StackConfig config, std::unique_ptr<sim::MobilityModel> mobility)
    : Stack(require_transport(config), std::move(config),
            std::move(mobility)) {}

Result<void> Stack::set_radio_powered(net::Technology tech, bool on) {
  transport::Endpoint* endpoint = transport_.endpoint(id_, tech);
  if (endpoint == nullptr) {
    return Error{Errc::not_supported,
                 name() + " has no " + std::string(net::to_string(tech)) +
                     " radio"};
  }
  endpoint->set_powered(on);
  return ok();
}

void Stack::blackout() {
  daemon_->stop();
  for (const auto& plugin : daemon_->plugins()) {
    plugin->endpoint().set_powered(false);
  }
}

void Stack::restart() {
  for (const auto& plugin : daemon_->plugins()) {
    plugin->endpoint().set_powered(true);
  }
  // Radios are back on and plugins exist, so a restart cannot fail here.
  (void)daemon_->restart();
}

}  // namespace ph::peerhood
