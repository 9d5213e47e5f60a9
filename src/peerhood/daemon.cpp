#include "peerhood/daemon.hpp"

#include <algorithm>
#include <cassert>

#include "proto/daemon.hpp"
#include "util/log.hpp"
#include "obs/prof.hpp"

namespace ph::peerhood {

namespace {

proto::ServiceInfoData to_wire(const ServiceInfo& service) {
  return proto::ServiceInfoData{service.name, service.port, service.attributes};
}

ServiceInfo from_wire(proto::ServiceInfoData&& data) {
  return ServiceInfo{std::move(data.name), data.port,
                     std::move(data.attributes)};
}

}  // namespace

Daemon::Daemon(transport::Transport& transport, DeviceId self,
               std::string device_name, DaemonConfig config)
    : transport_(transport),
      scheduler_(transport.scheduler()),
      self_(self),
      device_name_(std::move(device_name)),
      config_(config),
      jitter_rng_(transport.rng().fork()) {
  control_.device_name = device_name_;
  obs::Registry& registry = transport_.registry();
  trace_ = &transport_.trace();
  metric_prefix_ = "peerhood.daemon.d" + std::to_string(self_) + ".";
  const std::string& prefix = metric_prefix_;
  c_inquiries_started_ = &registry.counter(prefix + "inquiries_started");
  c_devices_found_ = &registry.counter(prefix + "devices_found");
  c_service_queries_ = &registry.counter(prefix + "service_queries");
  c_service_replies_ = &registry.counter(prefix + "service_replies");
  c_pings_sent_ = &registry.counter(prefix + "pings_sent");
  c_pongs_received_ = &registry.counter(prefix + "pongs_received");
  c_neighbours_appeared_ = &registry.counter(prefix + "neighbours_appeared");
  c_neighbours_disappeared_ =
      &registry.counter(prefix + "neighbours_disappeared");
  c_announcements_sent_ = &registry.counter(prefix + "announcements_sent");
  g_neighbour_count_ = &registry.gauge(prefix + "neighbour_count");
  g_table_staleness_ = &registry.gauge(prefix + "table_staleness_us");
  h_discovery_ = &registry.histogram(prefix + "discovery_us");
}

obs::Snapshot Daemon::stats() const {
  return transport_.registry().snapshot(metric_prefix_);
}

std::uint32_t Daemon::allocate_token() {
  // Wraps safely: token 0 is reserved for unsolicited announcements, and
  // tokens still owned by an in-flight query or ping are skipped so a
  // stale timeout can never collide with a fresh exchange.
  for (;;) {
    const std::uint32_t token = next_token_++;
    if (token == 0) {
      tokens_wrapped_ = true;
      continue;
    }
    // Until the counter first wraps, every token in flight is below it.
    if (!tokens_wrapped_) return token;
    if (find_query(token) != pending_queries_.end()) continue;
    bool in_use = false;
    for (const auto& [id, neighbour] : neighbours_) {
      if (neighbour.ping_token == token) {
        in_use = true;
        break;
      }
    }
    if (!in_use) return token;
  }
}

sim::Backoff Daemon::retry_backoff(sim::Duration base) const {
  sim::Backoff backoff;
  backoff.base = base;
  backoff.multiplier = config_.retry_backoff;
  backoff.cap = std::max(config_.retry_cap, base);
  backoff.jitter = config_.retry_jitter;
  return backoff;
}

Daemon::~Daemon() { stop(); }

Result<void> Daemon::add_plugin(std::unique_ptr<NetworkPlugin> plugin) {
  if (plugin == nullptr) {
    return Error{Errc::invalid_argument, "null plugin"};
  }
  if (plugin->endpoint().device() != self_) {
    return Error{Errc::invalid_argument,
                 "plugin endpoint belongs to device " +
                     std::to_string(plugin->endpoint().device()) +
                     ", daemon runs on " + std::to_string(self_)};
  }
  bind_control_port(*plugin);
  plugins_.push_back(std::move(plugin));
  return ok();
}

NetworkPlugin* Daemon::plugin_for(net::Technology tech) {
  for (auto& plugin : plugins_) {
    if (plugin->technology() == tech) return plugin.get();
  }
  return nullptr;
}

void Daemon::bind_control_port(NetworkPlugin& plugin) {
  plugin.endpoint().bind(net::kDaemonPort,
                         [this, &plugin](DeviceId src, BytesView payload) {
                           on_daemon_datagram(plugin, src, payload);
                         });
}

Result<void> Daemon::start() {
  if (running_) return ok();
  if (plugins_.empty()) {
    return Error{Errc::state_error, "daemon has no network plugins"};
  }
  running_ = true;
  ++generation_;
  PH_LOG(info, "phd") << device_name_ << ": daemon started, "
                      << plugins_.size() << " plugin(s)";
  for (auto& plugin : plugins_) {
    // First scan starts immediately; later scans are timer-driven.
    run_inquiry(*plugin);
  }
  schedule_ping_round();
  return ok();
}

void Daemon::stop() {
  if (!running_) return;
  running_ = false;
  ++generation_;  // orphan all pending periodic callbacks
  pending_queries_.clear();
  for (auto& [id, neighbour] : neighbours_) neighbour.ping_token = 0;
}

Result<void> Daemon::restart() {
  stop();
  // Cold boot: the table is RAM-only in the real PHD and does not survive
  // a device blackout. Announced neighbours disappear with cause blackout
  // so applications (group engines) can tell eviction-by-restart from
  // eviction-by-churn.
  auto wiped = std::move(neighbours_);
  neighbours_.clear();
  for (auto& [id, neighbour] : wiped) {
    (void)id;
    if (!neighbour.announced) continue;
    c_neighbours_disappeared_->inc();
    notify(NeighbourEvent::Kind::disappeared, std::move(neighbour.info),
           GoneCause::blackout);
  }
  PH_LOG(info, "phd") << device_name_ << ": daemon cold-restarted, "
                      << wiped.size() << " neighbour(s) wiped";
  return start();
}

Result<void> Daemon::register_service(ServiceInfo service) {
  if (service.name.empty()) {
    return Error{Errc::invalid_argument, "service name must not be empty"};
  }
  if (local_services_.contains(service.name)) {
    return Error{Errc::service_already_registered, service.name};
  }
  PH_LOG(info, "phd") << device_name_ << ": registered service '"
                      << service.name << "' on port " << service.port;
  local_services_.emplace(service.name, std::move(service));
  service_reply_.clear();
  announce_services();
  return ok();
}

Result<void> Daemon::unregister_service(const std::string& name) {
  if (local_services_.erase(name) == 0) {
    return Error{Errc::service_not_found, name};
  }
  service_reply_.clear();
  announce_services();
  return ok();
}

Result<void> Daemon::update_service_attributes(
    const std::string& name, std::map<std::string, std::string> attributes) {
  auto it = local_services_.find(name);
  if (it == local_services_.end()) {
    return Error{Errc::service_not_found, name};
  }
  it->second.attributes = std::move(attributes);
  service_reply_.clear();
  announce_services();
  return ok();
}

std::vector<ServiceInfo> Daemon::local_services() const {
  std::vector<ServiceInfo> out;
  out.reserve(local_services_.size());
  for (const auto& [name, service] : local_services_) out.push_back(service);
  return out;
}

std::vector<DeviceInfo> Daemon::devices() const {
  std::vector<DeviceInfo> out;
  for (const auto& [id, neighbour] : neighbours_) {
    if (neighbour.announced) out.push_back(*neighbour.info);
  }
  return out;
}

Result<DeviceInfo> Daemon::device(DeviceId id) const {
  const DeviceInfo* info = known_device(id);
  if (info == nullptr) {
    return Error{Errc::unknown_device, "device " + std::to_string(id)};
  }
  return *info;
}

const DeviceInfo* Daemon::known_device(DeviceId id) const noexcept {
  auto it = neighbours_.find(id);
  if (it == neighbours_.end() || !it->second.announced) return nullptr;
  return it->second.info.get();
}

std::vector<std::pair<DeviceInfo, ServiceInfo>> Daemon::find_service(
    std::string_view service_name) const {
  std::vector<std::pair<DeviceInfo, ServiceInfo>> out;
  for (const auto& [id, neighbour] : neighbours_) {
    if (!neighbour.announced) continue;
    if (const ServiceInfo* s = neighbour.info->find_service(service_name)) {
      out.emplace_back(*neighbour.info, *s);
    }
  }
  return out;
}

Daemon::MonitorId Daemon::monitor_all(NeighbourHandler handler) {
  const MonitorId id = next_monitor_++;
  monitors_.emplace(id, Monitor{net::kInvalidNode, std::move(handler)});
  return id;
}

Daemon::MonitorId Daemon::monitor_device(DeviceId device,
                                         NeighbourHandler handler) {
  const MonitorId id = next_monitor_++;
  monitors_.emplace(id, Monitor{device, std::move(handler)});
  return id;
}

void Daemon::unmonitor(MonitorId id) {
  if (notify_depth_ == 0) {
    monitors_.erase(id);
    return;
  }
  // A notify is running and may be inside this very handler: retire the
  // monitor now, erase it once the outermost notify has returned.
  auto it = monitors_.find(id);
  if (it == monitors_.end() || it->second.retired_at != 0) return;
  it->second.retired_at = notify_seq_;
  retired_monitors_.push_back(id);
}

void Daemon::notify(NeighbourEvent::Kind kind,
                    std::shared_ptr<const DeviceInfo> device,
                    GoneCause cause) {
  const NeighbourEvent event{kind, *device, cause};
  // Handlers may (un)register monitors; each notify still sees the
  // monitors as they were when it began, without copying the table.
  // Monitors registered since (ids from `end` on) are skipped. Retired
  // ones stay in the table until the outermost notify ends, and are
  // called only by notifies that began before they were retired.
  const MonitorId end = next_monitor_;
  const std::uint64_t seq = ++notify_seq_;
  ++notify_depth_;
  for (auto it = monitors_.begin(); it != monitors_.end() && it->first < end;
       ++it) {
    const Monitor& monitor = it->second;
    if (monitor.retired_at != 0 && monitor.retired_at < seq) continue;
    if (monitor.device != net::kInvalidNode && monitor.device != device->id) {
      continue;
    }
    if (monitor.handler) monitor.handler(event);
  }
  if (--notify_depth_ == 0) {
    for (MonitorId id : retired_monitors_) monitors_.erase(id);
    retired_monitors_.clear();
  }
}

void Daemon::trigger_discovery() {
  for (auto& plugin : plugins_) run_inquiry(*plugin);
}

void Daemon::schedule_inquiry(NetworkPlugin& plugin, sim::Duration delay) {
  const std::uint64_t gen = generation_;
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_discovery);
  scheduler_.schedule(delay, [this, gen, &plugin] {
    if (!running_ || gen != generation_) return;
    run_inquiry(plugin);
  });
}

void Daemon::run_inquiry(NetworkPlugin& plugin) {
  c_inquiries_started_->inc();
  const std::uint64_t gen = generation_;
  PH_LOG(debug, "phd") << device_name_ << ": inquiry on " << plugin.name();
  const obs::SpanId span = trace_->begin_span("peerhood.inquiry",
                                              scheduler_.now(), self_,
                                              "inquiry");
  const sim::Time inquiry_start = scheduler_.now();
  obs::Trace::Scope scope(*trace_, span);  // parents the net.inquiry span
  plugin.endpoint().start_inquiry(
      [this, gen, span, inquiry_start, &plugin](std::vector<DeviceId> found) {
        h_discovery_->observe(
            static_cast<double>(scheduler_.now() - inquiry_start));
        {
          // Service queries fired off the results are causally part of
          // this discovery round.
          obs::Trace::Scope scope(*trace_, span);
          handle_inquiry_result(plugin, std::move(found));
        }
        trace_->end_span(span, scheduler_.now());
        if (running_ && gen == generation_) {
          schedule_inquiry(plugin, config_.inquiry_interval);
        }
      });
}

void Daemon::handle_inquiry_result(NetworkPlugin& plugin,
                                   std::vector<DeviceId> found) {
  c_devices_found_->inc(found.size());
  const net::Technology tech = plugin.technology();
  for (DeviceId id : found) {
    Neighbour& neighbour = neighbours_[id];
    neighbour.info->id = id;
    neighbour.info->last_seen = scheduler_.now();
    neighbour.missed_pings = 0;
    if (!neighbour.info->has_technology(tech)) {
      neighbour.info->technologies.push_back(tech);
      if (neighbour.announced) {
        notify(NeighbourEvent::Kind::updated, neighbour.info);
      }
    }
    const bool query_pending = std::any_of(
        pending_queries_.begin(), pending_queries_.end(),
        [id](const PendingQuery& query) { return query.target == id; });
    // Every inquiry hit refreshes the remote service list (one datagram per
    // device per scan) — services registered after the first discovery
    // become visible on the next scan ("Service Sharing", Table 3).
    if (!query_pending) {
      send_service_query(id, tech, config_.query_retries);
    }
  }
}

void Daemon::send_service_query(DeviceId target, net::Technology tech,
                                int attempts_left) {
  NetworkPlugin* plugin = plugin_for(tech);
  if (plugin == nullptr) return;
  const std::uint32_t token = allocate_token();
  c_service_queries_->inc();
  const obs::SpanId span = trace_->begin_span(
      "peerhood.service_query", scheduler_.now(), self_, "service_query");
  {
    obs::Trace::Scope scope(*trace_, span);  // parents the query datagram
    // The remote daemon parents its handling under `span`.
    send_control(plugin->endpoint(), target, proto::DaemonOp::service_query,
                 token, span);
  }
  // High-latency technologies (GPRS routes every frame through the
  // operator gateway) need a longer reply window than the configured
  // default, or every reply would arrive "late" and be dropped.
  const net::TechProfile& profile = plugin->profile();
  sim::Duration round_trip = 2 * profile.base_latency;
  if (profile.via_gateway) round_trip += 4 * profile.gateway_latency;
  const sim::Duration base = std::max(config_.reply_timeout, 2 * round_trip);
  // Later attempts wait exponentially longer (capped, jittered): under a
  // burst-loss window hammering retries at a fixed cadence just feeds the
  // burst, while backed-off retries land after it passes.
  const int attempt = std::max(0, config_.query_retries - attempts_left);
  const sim::Duration timeout =
      retry_backoff(base).delay(attempt, jitter_rng_);
  PendingQuery pending;
  pending.token = token;
  pending.target = target;
  pending.tech = tech;
  pending.attempts_left = attempts_left - 1;
  pending.span = span;
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_query);
  pending.timeout_event =
      scheduler_.schedule(timeout, [this, token] {
        auto it = find_query(token);
        if (it == pending_queries_.end()) return;  // answered
        const PendingQuery timed_out = *it;
        pending_queries_.erase(it);
        trace_->end_span(timed_out.span, scheduler_.now());
        if (timed_out.attempts_left > 0) {
          // Chain the retry under the attempt that timed out, so the
          // whole retry ladder reads as one tree in the trace.
          obs::Trace::Scope scope(*trace_, timed_out.span);
          send_service_query(timed_out.target, timed_out.tech,
                             timed_out.attempts_left);
        }
      });
  pending_queries_.push_back(pending);
}

std::vector<Daemon::PendingQuery>::iterator Daemon::find_query(
    std::uint32_t token) {
  return std::find_if(
      pending_queries_.begin(), pending_queries_.end(),
      [token](const PendingQuery& query) { return query.token == token; });
}

void Daemon::send_control(transport::Endpoint& endpoint, DeviceId dst,
                          proto::DaemonOp op, std::uint32_t token,
                          std::uint64_t trace_parent) {
  control_.op = op;
  control_.token = token;
  control_.trace_parent = trace_parent;
  writer_.clear();
  proto::encode(control_, writer_);
  endpoint.send_datagram(dst, net::kDaemonPort, writer_.data());
}

BytesView Daemon::service_reply(std::uint32_t token,
                                std::uint64_t trace_parent) {
  if (service_reply_.empty()) {
    proto::DaemonMessage reply;
    reply.op = proto::DaemonOp::service_reply;
    reply.device_name = device_name_;
    for (const auto& [name, service] : local_services_) {
      reply.services.push_back(to_wire(service));
    }
    service_reply_ = proto::encode(reply);
  }
  proto::patch_daemon_header(service_reply_, token, trace_parent);
  return service_reply_;
}

void Daemon::on_daemon_datagram(NetworkPlugin& plugin, DeviceId src,
                                BytesView payload) {
  // A view over the frame: valid for this call only.
  auto decoded = proto::decode_daemon_view(payload);
  if (!decoded) {
    PH_LOG(warn, "phd") << device_name_ << ": bad control datagram from "
                        << src << ": " << decoded.error().to_string();
    return;
  }
  const proto::DaemonMessageView& message = *decoded;
  // Receive-side span: parented under the remote sender's span carried in
  // the message header (falls back to the datagram flight span the medium
  // pushed around this handler), so both devices share one tree.
  const obs::SpanId handle_span = trace_->begin_span_under(
      message.trace_parent, "peerhood.daemon.handle", scheduler_.now(), self_,
      proto::to_string(message.op));
  obs::Trace::Scope handling(*trace_, handle_span);
  switch (message.op) {
    case proto::DaemonOp::service_query:
      plugin.endpoint().send_datagram(src, net::kDaemonPort,
                                      service_reply(message.token, handle_span));
      break;
    case proto::DaemonOp::service_reply: {
      if (message.token == 0) {
        // Unsolicited push announcement (WLAN broadcast): apply directly.
        apply_service_reply(plugin, src, message);
        break;
      }
      auto pending = find_query(message.token);
      if (pending == pending_queries_.end()) break;  // late duplicate
      scheduler_.cancel(pending->timeout_event);
      trace_->end_span(pending->span, scheduler_.now());
      pending_queries_.erase(pending);
      c_service_replies_->inc();
      apply_service_reply(plugin, src, message);
      break;
    }
    case proto::DaemonOp::ping:
      send_control(plugin.endpoint(), src, proto::DaemonOp::pong,
                   message.token, handle_span);
      break;
    case proto::DaemonOp::pong: {
      // Any pong from the device proves liveness — including one answering
      // an older round's ping that arrived after the next round started
      // (normal on high-latency technologies like GPRS, where the round
      // trip can exceed the ping interval).
      c_pongs_received_->inc();
      auto it = neighbours_.find(src);
      if (it != neighbours_.end()) {
        Neighbour& neighbour = it->second;
        if (neighbour.ping_token == message.token) neighbour.ping_token = 0;
        neighbour.missed_pings = 0;
        neighbour.info->last_seen = scheduler_.now();
      }
      break;
    }
  }
  trace_->end_span(handle_span, scheduler_.now());
}

void Daemon::apply_service_reply(NetworkPlugin& plugin, DeviceId src,
                                 const proto::DaemonMessageView& message) {
  Neighbour& neighbour = neighbours_[src];
  DeviceInfo& info = *neighbour.info;
  info.id = src;
  if (info.name != message.device_name) info.name = message.device_name;
  info.last_seen = scheduler_.now();
  if (!info.has_technology(plugin.technology())) {
    info.technologies.push_back(plugin.technology());
  }
  // Any difference counts — new/removed services AND attribute edits
  // (applications may publish live data through attributes). The same
  // bytes as last time decode to the same list, so only a list that
  // changed on the wire is decoded and compared.
  bool changed = false;
  if (!std::ranges::equal(message.services, neighbour.services_wire)) {
    auto decoded = proto::decode_services(message.services);
    if (!decoded) return;  // cannot happen: the view was validated
    std::vector<ServiceInfo> services;
    services.reserve(decoded->size());
    for (auto& s : *decoded) services.push_back(from_wire(std::move(s)));
    changed = services != info.services;
    info.services = std::move(services);
    neighbour.services_wire.assign(message.services.begin(),
                                   message.services.end());
  }
  neighbour.services_known = true;
  if (neighbour.announced && changed) {
    notify(NeighbourEvent::Kind::updated, neighbour.info);
  }
  announce_if_ready(neighbour);
}

void Daemon::announce_services() {
  const BytesView payload = service_reply(0, 0);  // token 0: unsolicited
  for (auto& plugin : plugins_) {
    if (!plugin->profile().supports_broadcast) continue;
    plugin->endpoint().broadcast_datagram(net::kDaemonPort, payload);
    c_announcements_sent_->inc();
  }
}

void Daemon::schedule_ping_round() {
  const std::uint64_t gen = generation_;
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_ping);
  scheduler_.schedule(config_.ping_interval, [this, gen] {
    if (!running_ || gen != generation_) return;
    run_ping_round();
    schedule_ping_round();
  });
}

void Daemon::run_ping_round() {
  expire_stale_entries();
  // Any ping from the previous round still unanswered counts as missed.
  for (auto it = neighbours_.begin(); it != neighbours_.end();) {
    const DeviceId id = it->first;
    Neighbour& neighbour = it->second;
    ++it;  // declare_gone erases this entry
    if (neighbour.ping_token == 0) continue;
    neighbour.ping_token = 0;
    if (++neighbour.missed_pings >= config_.max_missed_pings) {
      declare_gone(id, GoneCause::missed_pings);
    }
  }
  for (auto& [id, neighbour] : neighbours_) {
    if (!send_ping(id, 0)) {
      // Out of range on every technology: counts as a missed ping without
      // wasting a frame.
      if (++neighbour.missed_pings >= config_.max_missed_pings) {
        declare_gone(id, GoneCause::missed_pings);
        break;  // neighbours_ mutated; next round handles the rest
      }
    }
  }
  refresh_table_gauges();
}

bool Daemon::send_ping(DeviceId id, int attempt) {
  auto it = neighbours_.find(id);
  if (it == neighbours_.end()) return false;
  // Ping over the best-signal technology this device is known on.
  NetworkPlugin* best = nullptr;
  double best_signal = 0.0;
  for (auto& plugin : plugins_) {
    if (!it->second.info->has_technology(plugin->technology())) continue;
    const double s = plugin->endpoint().signal_to(id);
    if (s > best_signal) {
      best_signal = s;
      best = plugin.get();
    }
  }
  if (best == nullptr) return false;
  const std::uint32_t token = allocate_token();
  it->second.ping_token = token;
  c_pings_sent_->inc();
  send_control(best->endpoint(), id, proto::DaemonOp::ping, token, 0);
  schedule_ping_retry(id, token, attempt);
  return true;
}

void Daemon::schedule_ping_retry(DeviceId id, std::uint32_t token,
                                 int attempt) {
  // In-round retries: a pong missing after the (backed-off) reply window
  // triggers another ping before the round closes, so one frame eaten by a
  // loss burst does not already count towards eviction. The missed-ping
  // count itself stays round-based.
  if (attempt >= config_.ping_retries) return;
  const std::uint64_t gen = generation_;
  const sim::Duration delay =
      retry_backoff(config_.reply_timeout).delay(attempt, jitter_rng_);
  if (attempt > 0) {
    // A genuine retry wait (attempt 0 is just the normal reply window):
    // make the idle visible to critical-path attribution.
    const obs::SpanId wait = trace_->begin_span(
        "peerhood.backoff.wait", scheduler_.now(), self_, "backoff");
    trace_->end_span(wait, scheduler_.now() + delay);
  }
  const obs::prof::TagScope tag(obs::prof::Center::peerhood_ping);
  scheduler_.schedule(delay, [this, gen, id, token, attempt] {
    if (!running_ || gen != generation_) return;
    auto neighbour = neighbours_.find(id);
    // Answered, evicted, or superseded by the next round meanwhile.
    if (neighbour == neighbours_.end() ||
        neighbour->second.ping_token != token) {
      return;
    }
    send_ping(id, attempt + 1);
  });
}

void Daemon::declare_gone(DeviceId id, GoneCause cause) {
  auto it = neighbours_.find(id);
  if (it == neighbours_.end()) return;
  const bool was_announced = it->second.announced;
  std::shared_ptr<const DeviceInfo> last_known = std::move(it->second.info);
  neighbours_.erase(it);
  refresh_table_gauges();
  if (!was_announced) return;
  c_neighbours_disappeared_->inc();
  PH_LOG(info, "phd") << device_name_ << ": device " << id << " disappeared";
  notify(NeighbourEvent::Kind::disappeared, std::move(last_known), cause);
}

void Daemon::announce_if_ready(Neighbour& neighbour) {
  if (neighbour.announced || !neighbour.services_known) return;
  neighbour.announced = true;
  c_neighbours_appeared_->inc();
  refresh_table_gauges();
  PH_LOG(info, "phd") << device_name_ << ": device '" << neighbour.info->name
                      << "' (" << neighbour.info->id << ") appeared with "
                      << neighbour.info->services.size() << " service(s)";
  notify(NeighbourEvent::Kind::appeared, neighbour.info);
}

void Daemon::expire_stale_entries() {
  const sim::Time now = scheduler_.now();
  std::vector<DeviceId> stale;
  for (const auto& [id, neighbour] : neighbours_) {
    if (neighbour.info->last_seen + config_.entry_ttl < now) {
      stale.push_back(id);
    }
  }
  for (DeviceId id : stale) declare_gone(id, GoneCause::expired);
}

void Daemon::refresh_table_gauges() {
  const sim::Time now = scheduler_.now();
  double announced = 0;
  sim::Duration staleness = 0;
  for (const auto& [id, neighbour] : neighbours_) {
    if (!neighbour.announced) continue;
    ++announced;
    if (now > neighbour.info->last_seen) {
      staleness = std::max(staleness, now - neighbour.info->last_seen);
    }
  }
  g_neighbour_count_->set(announced);
  g_table_staleness_->set(static_cast<double>(staleness));
}

}  // namespace ph::peerhood
