// PeerHood Daemon (PHD) — thesis §4.2.1.
//
// "An independent application which always runs on background and keeps
// tracks of other wireless device discovery and service discovery in those
// devices. It maintains a list of neighbor devices as well as list of local
// and remote services. Services through PeerHood-enabled applications are
// registered in PHD and PHD handles the service requests."
//
// Concretely, per plugin the daemon runs:
//   * an inquiry loop — periodic device discovery scans (the Bluetooth
//     inquiry that dominates the thesis' 11 s group-search time);
//   * service discovery — after an inquiry hit, the daemon queries the
//     remote PHD for its advertised services (datagram + timeout retry);
//   * active monitoring — known neighbours are pinged between inquiry
//     rounds; a neighbour missing `max_missed_pings` pongs is declared
//     gone and monitors are notified (this is what evicts members from
//     dynamic groups when they walk away).
//
// The daemon speaks only ph::transport vocabulary (endpoints, datagrams,
// a scheduler) — the same binary logic runs over the simulated medium and
// over real sockets on loopback. The real PHD is a separate OS process
// reached over a local socket; here daemon and applications share the
// process, so the "local socket" is a direct method call. This changes IPC
// cost (microseconds) but none of the network behaviour measured.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "peerhood/plugin.hpp"
#include "peerhood/types.hpp"
#include "proto/codec.hpp"
#include "proto/daemon.hpp"
#include "sim/backoff.hpp"
#include "transport/transport.hpp"
#include "util/result.hpp"

namespace ph::peerhood {

struct DaemonConfig {
  /// Gap between consecutive discovery scans on one plugin (measured from
  /// scan end to next scan start).
  sim::Duration inquiry_interval = sim::seconds(20);
  /// Liveness-probe period for known neighbours.
  sim::Duration ping_interval = sim::seconds(2);
  /// How long to wait for a pong / service reply before retrying.
  sim::Duration reply_timeout = sim::seconds(1);
  /// Consecutive unanswered pings before a neighbour is declared gone.
  int max_missed_pings = 3;
  /// Service-query retries before giving up on a discovered device.
  int query_retries = 3;
  /// Neighbour entries not refreshed for this long are dropped even
  /// without ping evidence (safety net).
  sim::Duration entry_ttl = sim::minutes(2);
  /// Retry hardening (fault plane): failed service queries back off
  /// exponentially — attempt n waits base * retry_backoff^n, where base is
  /// that attempt's reply window — capped at `retry_cap`, with
  /// ±`retry_jitter` deterministic jitter drawn from a stream forked off
  /// the world RNG at daemon construction.
  double retry_backoff = 2.0;
  sim::Duration retry_cap = sim::seconds(8);
  double retry_jitter = 0.1;
  /// Extra ping attempts within one ping round when a pong does not arrive
  /// inside the (backed-off) reply window — burst-loss resilience. Missed
  /// counting stays round-based, so the thesis' detection bound
  /// (max_missed_pings + 1) * ping_interval is unchanged.
  int ping_retries = 1;
};

/// Why a neighbour left this device's neighbourhood view.
enum class GoneCause {
  missed_pings,  ///< max_missed_pings consecutive unanswered liveness probes
  expired,       ///< entry_ttl safety net fired without ping evidence
  blackout,      ///< this daemon cold-restarted; the table did not survive
};

/// One neighbourhood change (thesis Table 3, "Active monitoring of a
/// device"), delivered through a single handler.
struct NeighbourEvent {
  enum class Kind {
    appeared,      ///< device entered the neighbourhood, services known
    updated,       ///< known device's service list or technology set changed
    disappeared,   ///< device left; `cause` says why
  };
  Kind kind = Kind::appeared;
  /// Last known state of the device — still populated for `disappeared`,
  /// so handlers can clean up by name/services, not just id. Refers to the
  /// daemon's own record: valid only inside the handler call, so copy
  /// what must outlive it.
  const DeviceInfo& device;
  /// Meaningful only when kind == disappeared.
  GoneCause cause = GoneCause::missed_pings;
};

/// Receives every NeighbourEvent a monitor matches.
using NeighbourHandler = std::function<void(const NeighbourEvent&)>;

class Daemon {
 public:
  using MonitorId = std::uint64_t;

  /// The daemon runs on any transport backend.
  Daemon(transport::Transport& transport, DeviceId self,
         std::string device_name, DaemonConfig config = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Adds a plugin before start(). The daemon binds the control port on the
  /// plugin's endpoint immediately (so it answers queries even pre-start).
  /// Fails with invalid_argument on a null plugin or one whose endpoint
  /// belongs to another device.
  Result<void> add_plugin(std::unique_ptr<NetworkPlugin> plugin);

  /// Starts the inquiry and ping loops. Idempotent; fails with state_error
  /// if no plugin was added (nothing to scan or ping with).
  Result<void> start();
  /// Stops the loops; the neighbour table is retained.
  void stop();
  /// Cold boot after a whole-device blackout (fault plane): stops the
  /// loops, wipes the neighbour table — every announced neighbour fires
  /// `disappeared` with GoneCause::blackout — and starts fresh, so the
  /// table is rebuilt from re-discovery alone.
  Result<void> restart();
  bool running() const noexcept { return running_; }

  DeviceId self() const noexcept { return self_; }
  const std::string& device_name() const noexcept { return device_name_; }
  const DaemonConfig& config() const noexcept { return config_; }

  // --- service registry (thesis Table 3: "Service Sharing") -------------
  Result<void> register_service(ServiceInfo service);
  Result<void> unregister_service(const std::string& name);
  /// Replaces a registered service's attributes. Neighbours observe the
  /// change at their next service-discovery refresh.
  Result<void> update_service_attributes(
      const std::string& name, std::map<std::string, std::string> attributes);
  std::vector<ServiceInfo> local_services() const;

  // --- neighbourhood ------------------------------------------------------
  std::vector<DeviceInfo> devices() const;
  Result<DeviceInfo> device(DeviceId id) const;
  /// device() without the copy: the announced neighbour's record, or
  /// nullptr. The pointer is valid until the neighbour table next changes
  /// (any datagram, scan or timer), so read it at once.
  const DeviceInfo* known_device(DeviceId id) const noexcept;
  /// All (device, service) pairs advertising `service_name`.
  std::vector<std::pair<DeviceInfo, ServiceInfo>> find_service(
      std::string_view service_name) const;

  // --- monitoring ---------------------------------------------------------
  /// Monitors the whole neighbourhood.
  MonitorId monitor_all(NeighbourHandler handler);
  /// Monitors one device only.
  MonitorId monitor_device(DeviceId id, NeighbourHandler handler);
  void unmonitor(MonitorId id);

  /// Starts one immediate discovery round on every plugin (benches use this
  /// to measure cold-start discovery without waiting for the timer).
  void trigger_discovery();

  /// Typed view of the registry's `peerhood.daemon.d<self>.*` instruments
  /// (`stats().counter("pings_sent")`, ...); the transport's per-world
  /// registry is the source of truth.
  obs::Snapshot stats() const;
  const std::vector<std::unique_ptr<NetworkPlugin>>& plugins() const {
    return plugins_;
  }
  /// The plugin driving `tech`, or nullptr.
  NetworkPlugin* plugin_for(net::Technology tech);

  /// The device's one reused encode buffer. The daemon encodes its
  /// datagrams into it and its sessions their frames; each then hands the
  /// bytes to a transport send, which copies them before returning. Clear
  /// it before use and never keep its contents across another call.
  proto::Writer& writer() noexcept { return writer_; }

  /// The substrate this daemon runs on.
  transport::Transport& transport() noexcept { return transport_; }
  transport::Scheduler& scheduler() noexcept { return scheduler_; }
  /// Deterministic jitter stream for retry backoff (also used by session
  /// resume sweeps); forked off the world RNG at construction so the same
  /// seed replays the same retry schedule.
  sim::Rng& jitter_rng() noexcept { return jitter_rng_; }

 private:
  struct Neighbour {
    /// Shared so a notify can hand handlers the record itself and still
    /// survive a handler that drops the entry.
    std::shared_ptr<DeviceInfo> info = std::make_shared<DeviceInfo>();
    /// The service list as last received on the wire; an identical reply
    /// (the common case) is applied without decoding it again.
    Bytes services_wire;
    /// Token of this round's unanswered ping; 0 = none outstanding.
    std::uint32_t ping_token = 0;
    int missed_pings = 0;
    bool services_known = false;
    bool announced = false;  // on_appear already fired
  };

  struct PendingQuery {
    std::uint32_t token = 0;
    DeviceId target = net::kInvalidNode;
    net::Technology tech = net::Technology::bluetooth;
    int attempts_left = 0;
    sim::EventId timeout_event = 0;
    obs::SpanId span = 0;  // closed when answered or given up
  };

  struct Monitor {
    DeviceId device = net::kInvalidNode;  // kInvalidNode = all devices
    NeighbourHandler handler;
    /// Set when unmonitor() ran during a notify: the notify_seq_ of the
    /// newest notify begun by then (0 = live). See notify().
    std::uint64_t retired_at = 0;
  };

  void bind_control_port(NetworkPlugin& plugin);
  void schedule_inquiry(NetworkPlugin& plugin, sim::Duration delay);
  void run_inquiry(NetworkPlugin& plugin);
  void handle_inquiry_result(NetworkPlugin& plugin, std::vector<DeviceId> found);
  void send_service_query(DeviceId target, net::Technology tech,
                          int attempts_left);
  /// Next free query/ping token; wraps and skips tokens still owned by an
  /// in-flight exchange, so week-long soaks can never collide a stale
  /// timeout with a fresh query.
  std::uint32_t allocate_token();
  std::vector<PendingQuery>::iterator find_query(std::uint32_t token);
  /// Backoff policy for query/ping retries (base = that exchange's reply
  /// window).
  sim::Backoff retry_backoff(sim::Duration base) const;
  void on_daemon_datagram(NetworkPlugin& plugin, DeviceId src, BytesView payload);
  /// Encodes a header-only message (query, ping, pong) into writer_ and
  /// sends it to `dst`'s daemon.
  void send_control(transport::Endpoint& endpoint, DeviceId dst,
                    proto::DaemonOp op, std::uint32_t token,
                    std::uint64_t trace_parent);
  /// The SERVICE_REPLY advertising the local registry, stamped with
  /// `token` and `trace_parent`: encoded once per registry change, then
  /// only re-stamped.
  BytesView service_reply(std::uint32_t token, std::uint64_t trace_parent);
  /// Updates the neighbour table from a SERVICE_REPLY (answered query or
  /// unsolicited broadcast announcement).
  void apply_service_reply(NetworkPlugin& plugin, DeviceId src,
                           const proto::DaemonMessageView& message);
  /// Pushes the local service list to broadcast-capable radios (WLAN):
  /// neighbours learn of registry changes immediately, not at their next
  /// scan.
  void announce_services();
  void schedule_ping_round();
  void run_ping_round();
  /// Sends one ping to `id` (over the best-signal plugin it is known on)
  /// and arms the in-round retry timer. Returns false when no radio
  /// reaches the device.
  bool send_ping(DeviceId id, int attempt);
  void schedule_ping_retry(DeviceId id, std::uint32_t token, int attempt);
  void declare_gone(DeviceId id, GoneCause cause);
  void announce_if_ready(Neighbour& neighbour);
  void expire_stale_entries();
  /// Recomputes the neighbour-table health gauges (`neighbour_count`,
  /// `table_staleness_us`) — the series the SLO rules watch. Called on
  /// every table change and once per ping round (staleness grows with
  /// virtual time even when the table is static).
  void refresh_table_gauges();
  /// Fans one event out to every matching monitor. Takes the record by
  /// shared_ptr so it outlives a handler that removes the neighbour.
  void notify(NeighbourEvent::Kind kind,
              std::shared_ptr<const DeviceInfo> device,
              GoneCause cause = GoneCause::missed_pings);

  transport::Transport& transport_;
  transport::Scheduler& scheduler_;
  DeviceId self_;
  std::string device_name_;
  DaemonConfig config_;
  bool running_ = false;

  std::vector<std::unique_ptr<NetworkPlugin>> plugins_;
  std::map<std::string, ServiceInfo> local_services_;
  std::map<DeviceId, Neighbour> neighbours_;
  /// In-flight service queries; a handful at a time, so a flat vector
  /// whose capacity is reused.
  std::vector<PendingQuery> pending_queries_;
  std::uint32_t next_token_ = 1;
  bool tokens_wrapped_ = false;  // next_token_ has passed 2^32 once

  std::map<MonitorId, Monitor> monitors_;
  MonitorId next_monitor_ = 1;
  /// notify() nesting depth, notifies begun so far, and the monitors
  /// retired while one ran (erased when the outermost ends).
  int notify_depth_ = 0;
  std::uint64_t notify_seq_ = 0;
  std::vector<MonitorId> retired_monitors_;

  /// See writer(). control_ is the header-only message template (device
  /// name set once); service_reply_ the encoded advertisement, empty
  /// until first needed after a registry change.
  proto::Writer writer_;
  proto::DaemonMessage control_;
  Bytes service_reply_;

  /// Incremented on every start/stop; periodic callbacks from an older
  /// generation recognise themselves as stale and do not reschedule.
  std::uint64_t generation_ = 0;

  /// Jitter stream for retry backoff; see jitter_rng().
  sim::Rng jitter_rng_;

  // Registry handles (`peerhood.daemon.d<self>.*`) into the transport's
  // per-world registry; the trace journal is shared the same way.
  std::string metric_prefix_;
  obs::Trace* trace_ = nullptr;
  obs::Counter* c_inquiries_started_ = nullptr;
  obs::Counter* c_devices_found_ = nullptr;
  obs::Counter* c_service_queries_ = nullptr;
  obs::Counter* c_service_replies_ = nullptr;
  obs::Counter* c_pings_sent_ = nullptr;
  obs::Counter* c_pongs_received_ = nullptr;
  obs::Counter* c_neighbours_appeared_ = nullptr;
  obs::Counter* c_neighbours_disappeared_ = nullptr;
  obs::Counter* c_announcements_sent_ = nullptr;
  obs::Gauge* g_neighbour_count_ = nullptr;
  obs::Gauge* g_table_staleness_ = nullptr;
  obs::Histogram* h_discovery_ = nullptr;  // inquiry start -> results in
};

}  // namespace ph::peerhood
