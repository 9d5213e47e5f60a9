// SocketTransport — the real-POSIX-socket backend of ph::transport.
//
// Each endpoint (device × technology) owns two UNIX-domain sockets in a
// shared rendezvous directory:
//
//   <dir>/d<device>.t<tech>.dgram    SOCK_DGRAM  — connectionless plane
//   <dir>/d<device>.t<tech>.stream   SOCK_STREAM — channel plane
//
// The directory doubles as the service directory (libqi's
// service-directory role): addresses are derivable from (device, tech)
// alone, so discovery is a directory scan and daemons in *separate
// processes* can rendezvous by sharing one directory. Every frame that
// crosses a socket carries the versioned proto::Frame envelope; above the
// envelope the bytes are exactly what the simulated medium carries, so
// daemon/session parsing is substrate-identical.
//
// The event loop is single-threaded epoll driven through
// Scheduler::run_until: virtual microseconds map onto the wall clock,
// optionally compressed by `time_scale` so protocol cadences tuned for
// simulated seconds (20 s inquiry gaps, 2 s pings) run in bounded
// wall-clock during tests. Channels are reliable and ordered (SOCK_STREAM
// carrying length-prefixed frames, read back by proto::FrameStream); a
// reset, EOF or power-off surfaces as a channel *break*, exactly like a
// simulated link losing radio contact. Frames a loop handler sends on a
// channel are written when the handler returns, in one send(2) per
// channel; a send from outside the loop is written at once.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "transport/transport.hpp"

namespace ph::obs {
class OpsServer;
class Sampler;
class SloEngine;
namespace prof {
class WallProfiler;
}
}  // namespace ph::obs

namespace ph::transport {

struct SocketTransportConfig {
  /// Rendezvous directory holding every endpoint's sockets. Empty = create
  /// (and on destruction remove) a fresh mkdtemp directory under /tmp that
  /// records the creating pid; set it explicitly to share one directory
  /// across processes. Creating one first removes the /tmp/ph_socket_*
  /// directories of this user whose recorded process is gone, so a run
  /// killed before its destructor (SIGKILL, a timeout) leaves no debris
  /// past the next run.
  std::string socket_dir;
  /// Virtual microseconds that elapse per wall-clock microsecond. 1.0 =
  /// real time; 50.0 runs the daemon's 2 s ping cadence every 40 ms of
  /// wall clock. Applies to the scheduler only — socket I/O is always as
  /// fast as the kernel delivers it.
  double time_scale = 1.0;
  /// Seed of the transport's RNG stream (session ids, inquiry detection).
  std::uint64_t seed = 1;
  /// First id handed out by add_device; partition the id space when
  /// several processes share one socket_dir.
  DeviceId first_device_id = 1;
  /// WALL microseconds between telemetry scrapes (queue-depth gauges,
  /// channel RTT probes, Sampler/SloEngine tick). 0 = telemetry off
  /// unless the ops server turns it on with its 100 ms default.
  std::uint64_t sample_interval_us = 0;
  /// Start the live ops endpoint (<socket_dir>/d<first_device_id>.ops,
  /// serving /metrics, /series, /slo, /flight and /profile) at
  /// construction. Turns telemetry sampling on (100 ms wall default) when
  /// sample_interval_us left it off.
  bool ops_server = false;
  /// Start the Mode 2 sampling profiler (obs::prof::WallProfiler) at
  /// construction: the loop thread registers its span stack and a 100 Hz
  /// sampler captures where wall time goes (transport.idle vs .io vs
  /// timer cost centers). Served on the ops /profile route and appended
  /// to $PH_PROF_FOLDED at destruction.
  bool profiler = false;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportConfig config = {});
  ~SocketTransport() override;

  const char* name() const override { return "socket"; }

  Scheduler& scheduler() override;
  const Scheduler& scheduler() const override;
  obs::Registry& registry() override { return registry_; }
  obs::Trace& trace() override { return trace_; }
  sim::Rng& rng() override { return rng_; }

  DeviceId add_device(std::string name,
                      std::unique_ptr<sim::MobilityModel> mobility) override;
  Endpoint& add_endpoint(DeviceId device, net::TechProfile profile) override;
  Endpoint* endpoint(DeviceId device, net::Technology tech) override;

  const std::string& socket_dir() const noexcept { return dir_; }

  /// Live channel fds across all endpoints (leak check for tests).
  std::size_t open_channel_count() const noexcept;

  /// The wall-clock telemetry sampler / SLO engine; nullptr unless
  /// telemetry is enabled (config.sample_interval_us or config.ops_server).
  obs::Sampler* sampler() noexcept { return sampler_.get(); }
  obs::SloEngine* slo_engine() noexcept { return slo_.get(); }

  /// nullptr unless config.profiler.
  obs::prof::WallProfiler* profiler() noexcept { return profiler_.get(); }

  /// Monotonic WALL microseconds since transport construction — the time
  /// base of RTT probes, handshake latency and loop instrumentation.
  std::uint64_t wall_now_us() const { return wall_clock_.now(); }

 private:
  class WallScheduler;
  class SocketEndpoint;
  class SocketChannelState;

  /// Registers `fd` with the epoll loop; `handler(events)` runs from
  /// run_until. Handlers may unregister any fd, including their own.
  void watch_fd(int fd, std::uint32_t events,
                std::function<void(std::uint32_t)> handler);
  void rearm_fd(int fd, std::uint32_t events);
  void unwatch_fd(int fd);

  /// One epoll_wait + handler dispatch round; called from run_until.
  /// Observes the wait overshoot into the stall gauge and each handler's
  /// wall dispatch time into the dispatch histogram.
  void pump_epoll(int timeout_ms);

  /// Runs one loop handler (fd event or timer) as a dispatch: channel
  /// frames it queues are written when it returns, one send(2) per
  /// channel, and a send made outside any dispatch is written at once.
  template <typename Fn>
  void dispatch(Fn&& handler);
  /// Writes every channel queued by the dispatch that just returned.
  void flush_unflushed();

  /// Starts wall-clock telemetry: Sampler + SloEngine over the WallClock
  /// and a self-rescheduling scrape at config_.sample_interval_us.
  void enable_telemetry();
  /// Starts the Mode 2 sampling profiler: registers the calling thread
  /// (the loop thread) as "loop" and begins 100 Hz sampling. Runs before
  /// enable_ops_server() so the /profile route picks it up.
  void enable_profiler();
  /// Starts the live ops endpoint at <socket_dir>/d<first_device_id>.ops
  /// and registers its fd with the epoll loop, turning telemetry on.
  Result<void> enable_ops_server();
  /// One scrape: refresh per-device queue gauges, send channel RTT
  /// probes, tick the sampler and SLO engine.
  void scrape_telemetry();

  SocketTransportConfig config_;
  std::string dir_;
  bool owns_dir_ = false;
  int epoll_fd_ = -1;
  /// Handlers are keyed by a monotonically increasing watch token carried
  /// in epoll_event.data.u64, not by fd: the kernel may still hold queued
  /// events for an fd closed earlier in the same epoll_wait batch, and the
  /// fd number can be recycled by a socket opened from a handler — a stale
  /// event must not reach the new fd's handler. fd_tokens_ maps live fds
  /// back to their token for rearm_fd/unwatch_fd.
  std::uint64_t next_watch_token_ = 1;
  using WatchHandler = std::function<void(std::uint32_t)>;
  /// Shared so a dispatch holds the handler it runs without copying it.
  std::map<std::uint64_t, std::shared_ptr<const WatchHandler>> watch_handlers_;
  std::map<int, std::uint64_t> fd_tokens_;
  int dispatch_depth_ = 0;  ///< > 0 while a loop handler runs
  /// Channels holding frames queued by the running dispatch, each once.
  std::vector<std::shared_ptr<SocketChannelState>> unflushed_;

  obs::Registry registry_;
  obs::Trace trace_;
  sim::Rng rng_;
  std::unique_ptr<WallScheduler> scheduler_;

  std::vector<std::string> device_names_;  // index 0 unused
  DeviceId next_device_;
  std::map<std::pair<DeviceId, net::Technology>,
           std::unique_ptr<SocketEndpoint>>
      endpoints_;

  /// Common `transport.*` handles (register_transport_metrics) — the
  /// substrate-independent schema shared with the net::Medium backend.
  TransportMetrics metrics_;

  // Socket-only instruments (`transport.socket.*`).
  obs::Histogram* h_loop_lag_ = nullptr;       ///< timer fire lag, wall µs
  obs::Histogram* h_loop_dispatch_ = nullptr;  ///< handler run time, wall µs
  obs::Gauge* g_wait_stall_ = nullptr;         ///< epoll_wait overshoot, µs
  obs::Counter* c_partial_writes_ = nullptr;
  obs::Counter* c_backpressure_ = nullptr;
  obs::Counter* c_send_calls_ = nullptr;  ///< send(2) on stream fds
  obs::Counter* c_recv_calls_ = nullptr;  ///< recv(2) on stream fds
  obs::Counter* c_rtt_probes_ = nullptr;

  // Wall-clock telemetry plane (config.sample_interval_us / ops_server).
  obs::WallClock wall_clock_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<obs::OpsServer> ops_;
  std::unique_ptr<obs::prof::WallProfiler> profiler_;
};

}  // namespace ph::transport
