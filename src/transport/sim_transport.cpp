#include "transport/sim_transport.hpp"

#include "util/check.hpp"

namespace ph::transport {

namespace {

/// Channel over a simulated net::Link; forwarding plus transport.* counts.
/// The counting never touches the RNG, schedules nothing and preserves
/// call order, so seeded runs stay byte-identical with metrics attached.
class SimChannelState final : public detail::ChannelState {
 public:
  SimChannelState(net::Link link, const TransportMetrics* metrics)
      : link_(std::move(link)), m_(metrics) {
    // Count breaks even when the user never installs a handler; a user
    // handler installed later replaces this with a counting wrapper.
    link_.on_break([m = m_]() { m->channels_broken->inc(); });
  }

  bool chan_open() const override { return link_.open(); }
  DeviceId chan_remote() const override { return link_.remote_node(); }
  net::Technology chan_technology() const override {
    return link_.technology();
  }
  void chan_on_receive(std::function<void(BytesView)> handler) override {
    link_.on_receive(
        [m = m_, handler = std::move(handler)](BytesView payload) {
          m->channel_bytes->inc(payload.size());
          handler(payload);
        });
  }
  void chan_on_break(std::function<void()> handler) override {
    link_.on_break([m = m_, handler = std::move(handler)]() {
      m->channels_broken->inc();
      if (handler) handler();
    });
  }
  void chan_send(BytesView payload) override {
    m_->channel_messages->inc();
    m_->channel_bytes->inc(payload.size());
    link_.send(payload);
  }
  double chan_signal() const override { return link_.signal(); }
  void chan_close() override { link_.close(); }

 private:
  net::Link link_;
  const TransportMetrics* m_;
};

Channel wrap_link(net::Link link, const TransportMetrics* metrics) {
  return Channel(std::make_shared<SimChannelState>(std::move(link), metrics));
}

/// Endpoint over a simulated net::Adapter; forwarding plus transport.*
/// counts.
class SimEndpoint final : public Endpoint {
 public:
  SimEndpoint(net::Adapter& adapter, const TransportMetrics& metrics)
      : adapter_(adapter), m_(&metrics) {}

  DeviceId device() const override { return adapter_.node(); }
  const net::TechProfile& profile() const override {
    return adapter_.profile();
  }
  void set_powered(bool on) override { adapter_.set_powered(on); }
  bool powered() const override { return adapter_.powered(); }

  void start_inquiry(InquiryHandler done) override {
    adapter_.start_inquiry(std::move(done));
  }
  void bind(net::Port port, DatagramHandler handler) override {
    adapter_.bind(port, [m = m_, handler = std::move(handler)](
                            net::NodeId src, BytesView payload) {
      m->datagrams_received->inc();
      handler(src, payload);
    });
  }
  void unbind(net::Port port) override { adapter_.unbind(port); }
  void send_datagram(DeviceId dst, net::Port port, BytesView payload) override {
    m_->datagrams_sent->inc();
    m_->datagram_bytes->inc(payload.size());
    adapter_.send_datagram(dst, port, payload);
  }
  void broadcast_datagram(net::Port port, BytesView payload) override {
    m_->datagrams_sent->inc();
    m_->datagram_bytes->inc(payload.size());
    adapter_.broadcast_datagram(port, payload);
  }
  void listen(net::Port port, AcceptHandler on_accept) override {
    adapter_.listen(port, [m = m_, on_accept = std::move(on_accept)](
                              net::Link link) {
      m->channels_accepted->inc();
      on_accept(wrap_link(std::move(link), m));
    });
  }
  void stop_listen(net::Port port) override { adapter_.stop_listen(port); }
  void connect(DeviceId dst, net::Port port, ConnectHandler done) override {
    adapter_.connect(dst, port,
                     [m = m_, done = std::move(done)](Result<net::Link> link) {
                       if (!link) {
                         done(std::move(link).error());
                         return;
                       }
                       m->channels_opened->inc();
                       done(wrap_link(*std::move(link), m));
                     });
  }
  double signal_to(DeviceId dst) const override {
    return adapter_.signal_to(dst);
  }

 private:
  net::Adapter& adapter_;
  const TransportMetrics* m_;
};

}  // namespace

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
      scheduler_(std::make_unique<SimScheduler>(medium.simulator())),
      metrics_(register_transport_metrics(medium.registry())) {}

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

Endpoint& SimTransport::add_endpoint(DeviceId device, net::TechProfile profile) {
  const auto key = std::make_pair(device, profile.tech);
  PH_CHECK_MSG(!endpoints_.contains(key),
               "one endpoint per (device, technology)");
  net::Adapter& adapter = medium_.add_adapter(device, std::move(profile));
  auto [it, inserted] = endpoints_.emplace(
      key, std::make_unique<SimEndpoint>(adapter, metrics_));
  return *it->second;
}

Endpoint* SimTransport::endpoint(DeviceId device, net::Technology tech) {
  auto it = endpoints_.find(std::make_pair(device, tech));
  return it != endpoints_.end() ? it->second.get() : nullptr;
}

}  // namespace ph::transport
