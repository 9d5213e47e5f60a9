#include "transport/socket_transport.hpp"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/ops_server.hpp"
#include "obs/prof.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "proto/frame.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ph::transport {

namespace {

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

void append_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void append_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void append_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

std::uint16_t read_u16(BytesView data) {
  return static_cast<std::uint16_t>(data[0] |
                                    (static_cast<std::uint16_t>(data[1]) << 8));
}

std::uint32_t read_u32(BytesView data) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data[i];
  return v;
}

std::uint64_t read_u64(BytesView data) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data[i];
  return v;
}

/// One length-prefixed stream message: u32 frame length, then the frame.
Bytes make_stream_message(proto::FrameKind kind, BytesView payload) {
  const Bytes frame = proto::encode_frame(kind, payload);
  Bytes out;
  out.reserve(4 + frame.size());
  append_u32(out, static_cast<std::uint32_t>(frame.size()));
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

/// Upper bound on one stream message — a corrupt length prefix must not
/// look like a gigabyte allocation.
constexpr std::uint32_t kMaxStreamFrame = 16u << 20;

int make_socket(int type) {
  return ::socket(AF_UNIX, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PH_CHECK_MSG(path.size() < sizeof(addr.sun_path),
               "socket_dir path too long for sockaddr_un");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

std::string endpoint_path(const std::string& dir, DeviceId device,
                          net::Technology tech, const char* plane) {
  return dir + "/d" + std::to_string(device) + ".t" +
         std::to_string(static_cast<int>(tech)) + "." + plane;
}

/// Parses "d<id>.t<tech>.dgram" back into a device id; 0 when `name` is
/// something else (a stream socket, a stray file).
DeviceId parse_dgram_entry(const std::string& name, net::Technology tech) {
  const std::string suffix =
      ".t" + std::to_string(static_cast<int>(tech)) + ".dgram";
  if (name.size() <= 1 + suffix.size() || name[0] != 'd') return net::kInvalidNode;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return net::kInvalidNode;
  }
  const std::string digits = name.substr(1, name.size() - 1 - suffix.size());
  if (digits.empty()) return net::kInvalidNode;
  DeviceId id = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return net::kInvalidNode;
    id = id * 10 + static_cast<DeviceId>(c - '0');
  }
  return id;
}

}  // namespace

// ---------------------------------------------------------------------------
// WallScheduler — virtual microseconds over the wall clock + epoll pump.
// ---------------------------------------------------------------------------

class SocketTransport::WallScheduler final : public Scheduler {
 public:
  WallScheduler(SocketTransport& transport, double time_scale)
      : transport_(transport),
        scale_(time_scale > 0.0 ? time_scale : 1.0),
        start_(std::chrono::steady_clock::now()) {}

  sim::Time now() const override {
    const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    auto t = static_cast<sim::Time>(static_cast<double>(wall) * scale_);
    // Monotonic even under floating-point jitter.
    if (t < last_now_) t = last_now_;
    last_now_ = t;
    return t;
  }

  sim::EventId schedule(sim::Duration delay, sim::EventFn fn) override {
    const sim::EventId id = ++next_id_;
    const sim::Time due = now() + delay;
    // Same tag plumbing as the simulated kernels: a pending TagScope wins,
    // otherwise the timer inherits the tag of the timer being dispatched.
    timers_.emplace(std::make_pair(due, id),
                    Timer{std::move(fn), obs::prof::effective_tag(current_tag_)});
    due_.emplace(id, due);
    return id;
  }

  bool cancel(sim::EventId id) override {
    auto it = due_.find(id);
    if (it == due_.end()) return false;
    timers_.erase(std::make_pair(it->second, id));
    due_.erase(it);
    return true;
  }

  bool pending(sim::EventId id) const override { return due_.contains(id); }

  /// Alternates running due timers with epoll waits whose wall timeout is
  /// the earlier of `until` and the next timer, both mapped back through
  /// the time scale. Socket readiness wakes the wait early, so I/O is
  /// handled as the kernel delivers it, not on timer granularity.
  void run_until(sim::Time until) override {
    for (;;) {
      while (!timers_.empty() && timers_.begin()->first.first <= now()) {
        auto node = timers_.extract(timers_.begin());
        due_.erase(node.key().second);
        Timer timer = std::move(node.mapped());
        // Loop lag: how far past its due point the timer actually fired,
        // reported in WALL microseconds (virtual lag unscaled). A loaded
        // or stalled loop shows up here before anything times out.
        const sim::Time lag_virtual = now() - node.key().first;
        transport_.h_loop_lag_->observe(static_cast<double>(lag_virtual) /
                                        scale_);
        const std::uint64_t t0 = transport_.wall_clock_.now();
        current_tag_ = timer.tag;
        {
          const obs::prof::Scope span(timer.tag);
          timer.fn();
        }
        current_tag_ = 0;
        transport_.h_loop_dispatch_->observe(
            static_cast<double>(transport_.wall_clock_.now() - t0));
      }
      const sim::Time current = now();
      if (current >= until) return;
      sim::Time wake = until;
      if (!timers_.empty()) {
        wake = std::min(wake, timers_.begin()->first.first);
      }
      int timeout_ms = 0;
      if (wake > current) {
        const double wall_us = static_cast<double>(wake - current) / scale_;
        timeout_ms = static_cast<int>(wall_us / 1000.0) + 1;
        timeout_ms = std::clamp(timeout_ms, 1, 1000);
      }
      transport_.pump_epoll(timeout_ms);
    }
  }

 private:
  struct Timer {
    sim::EventFn fn;
    std::uint8_t tag = 0;
  };

  SocketTransport& transport_;
  double scale_;
  std::chrono::steady_clock::time_point start_;
  mutable sim::Time last_now_ = 0;
  sim::EventId next_id_ = 0;
  std::uint8_t current_tag_ = 0;  ///< tag of the timer being dispatched
  std::map<std::pair<sim::Time, sim::EventId>, Timer> timers_;
  std::map<sim::EventId, sim::Time> due_;
};

// ---------------------------------------------------------------------------
// SocketChannelState — one established SOCK_STREAM channel end.
// ---------------------------------------------------------------------------

namespace {

class SocketChannelState final
    : public detail::ChannelState,
      public std::enable_shared_from_this<SocketChannelState> {
 public:
  SocketChannelState(SocketTransport& transport, int fd, DeviceId remote,
                     net::Technology tech)
      : transport_(transport), fd_(fd), remote_(remote), tech_(tech) {}

  ~SocketChannelState() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool chan_open() const override { return open_; }
  DeviceId chan_remote() const override { return remote_; }
  net::Technology chan_technology() const override { return tech_; }
  void chan_on_receive(std::function<void(BytesView)> handler) override {
    on_receive_ = std::move(handler);
    // Frames may already be buffered (handshake leftover, or data that
    // arrived before the handler was installed) — drain them now that
    // someone can receive. Deferred so attaching a handler mid-dispatch
    // never re-enters the delivery loop.
    schedule_drain();
  }
  void chan_on_break(std::function<void()> handler) override {
    on_break_ = std::move(handler);
  }
  double chan_signal() const override { return open_ ? 1.0 : 0.0; }

  void chan_send(BytesView payload) override;
  void chan_close() override;

  /// Registers with the epoll loop. The fd handler keeps the state alive
  /// (shared_ptr capture) until the channel closes or breaks — like a
  /// simulated link, an established channel outlives dropped user handles.
  void start(Bytes leftover);

  /// Forced break from outside the I/O path (endpoint powered off).
  void force_break() { do_break(); }

  /// Queues a transport-internal RTT probe carrying the sender's wall
  /// clock; the peer echoes it back as channel_pong and the receive path
  /// observes (now - echo) into transport.channel_rtt_us. Invisible to
  /// the layers above — probes never reach the receive handler.
  void send_ping(std::uint64_t wall_us);

  /// Bytes queued but not yet written / received but not yet delivered —
  /// the periodic scrape sums these into the per-device queue gauges.
  std::size_t send_queue_bytes() const noexcept {
    return out_buf_.size() - out_pos_;
  }
  std::size_t recv_queue_bytes() const noexcept { return in_buf_.size(); }

 private:
  void handle_io(std::uint32_t events);
  void deliver_frames();
  void schedule_drain();
  void flush();
  void do_break();

  SocketTransport& transport_;
  int fd_;
  DeviceId remote_;
  net::Technology tech_;
  bool open_ = true;
  bool want_write_ = false;
  bool peer_gone_ = false;     // EOF/hard error seen; break after delivery
  bool drain_pending_ = false; // a schedule(0) drain is already queued
  Bytes in_buf_;
  Bytes out_buf_;
  std::size_t out_pos_ = 0;
  std::function<void(BytesView)> on_receive_;
  std::function<void()> on_break_;
};

void SocketChannelState::chan_send(BytesView payload) {
  // Silently discarded when closed, like a closed simulated link; after
  // EOF the peer is gone and a write would EPIPE-break the channel before
  // its buffered tail frames were delivered.
  if (!open_ || peer_gone_) return;
  const Bytes msg = make_stream_message(proto::FrameKind::channel_data, payload);
  out_buf_.insert(out_buf_.end(), msg.begin(), msg.end());
  transport_.note_channel_send(payload.size());
  flush();
}

void SocketChannelState::send_ping(std::uint64_t wall_us) {
  if (!open_ || peer_gone_) return;
  Bytes stamp;
  append_u64(stamp, wall_us);
  const Bytes msg = make_stream_message(proto::FrameKind::channel_ping, stamp);
  out_buf_.insert(out_buf_.end(), msg.begin(), msg.end());
  transport_.note_rtt_probe();
  flush();
}

void SocketChannelState::flush() {
  while (open_ && out_pos_ < out_buf_.size()) {
    const std::size_t remaining = out_buf_.size() - out_pos_;
    const ssize_t n =
        ::send(fd_, out_buf_.data() + out_pos_, remaining, MSG_NOSIGNAL);
    if (n > 0) {
      if (static_cast<std::size_t>(n) < remaining) {
        transport_.note_partial_write();
      }
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      transport_.note_backpressure();
      if (!want_write_) {
        want_write_ = true;
        transport_.rearm_fd(fd_, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    do_break();
    return;
  }
  if (out_pos_ >= out_buf_.size()) {
    out_buf_.clear();
    out_pos_ = 0;
    if (want_write_) {
      want_write_ = false;
      if (open_) transport_.rearm_fd(fd_, EPOLLIN);
    }
  }
}

void SocketChannelState::start(Bytes leftover) {
  in_buf_ = std::move(leftover);
  auto self = shared_from_this();
  transport_.watch_fd(fd_, EPOLLIN,
                      [self](std::uint32_t events) { self->handle_io(events); });
  // Bytes that rode in behind the handshake frame are already ours, but the
  // Channel has not reached the caller yet, so no receive handler can be
  // installed. deliver_frames never consumes data frames without one;
  // chan_on_receive schedules the drain once the caller attaches.
}

void SocketChannelState::handle_io(std::uint32_t events) {
  if (!open_) return;
  if (events & EPOLLOUT) flush();
  if (!open_) return;  // flush may have hit a hard error and broken us
  // EPOLLERR/EPOLLHUP also take the read path: recv drains whatever the
  // peer sent before resetting, then reports EOF, which breaks the channel.
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        in_buf_.insert(in_buf_.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or hard error — the peer is gone, but complete frames it sent
      // before closing are already in in_buf_ and must be delivered in
      // order before the break (a graceful send-then-close must not lose
      // its tail, nor surface as connection_lost).
      peer_gone_ = true;
      break;
    }
    deliver_frames();
    if (open_ && peer_gone_) {
      // Break deferred: data frames are buffered but no receive handler is
      // installed yet. Nothing further can arrive after EOF, and epoll
      // reports HUP unconditionally (level-triggered), so stop watching the
      // dead fd; chan_on_receive's drain delivers the tail and breaks.
      transport_.unwatch_fd(fd_);
    }
  }
}

/// Parses and delivers every complete length-prefixed frame, in order.
/// A data frame is never consumed while no receive handler is installed —
/// it stays buffered until chan_on_receive drains it — preserving the
/// exactly-once in-order contract. Once the peer is gone the channel
/// breaks only after everything deliverable has been delivered.
void SocketChannelState::deliver_frames() {
  std::size_t pos = 0;
  bool stalled = false;
  while (open_ && in_buf_.size() - pos >= 4) {
    const std::uint32_t len = read_u32(BytesView(in_buf_).subspan(pos, 4));
    if (len > kMaxStreamFrame) {
      do_break();
      return;
    }
    if (in_buf_.size() - pos - 4 < len) break;
    const BytesView frame_bytes = BytesView(in_buf_).subspan(pos + 4, len);
    auto frame = proto::decode_frame(frame_bytes);
    // RTT probes are transport-internal: consumed here, before the
    // no-handler stall check, never surfaced to the receive handler.
    if (frame && frame->kind == proto::FrameKind::channel_ping) {
      pos += 4 + len;
      if (frame->payload.size() >= 8 && !peer_gone_) {
        const Bytes pong = make_stream_message(proto::FrameKind::channel_pong,
                                               frame->payload.subspan(0, 8));
        out_buf_.insert(out_buf_.end(), pong.begin(), pong.end());
        flush();
      }
      continue;
    }
    if (frame && frame->kind == proto::FrameKind::channel_pong) {
      pos += 4 + len;
      if (frame->payload.size() >= 8) {
        const std::uint64_t echoed = read_u64(frame->payload.subspan(0, 8));
        const std::uint64_t now = transport_.wall_now_us();
        if (now >= echoed) transport_.note_rtt_sample(now - echoed);
      }
      continue;
    }
    if (frame && frame->kind == proto::FrameKind::channel_data &&
        !on_receive_) {
      stalled = true;  // keep buffered until a handler is installed
      break;
    }
    pos += 4 + len;
    if (!frame || frame->kind != proto::FrameKind::channel_data) {
      transport_.note_bad_frame();
      continue;
    }
    transport_.note_channel_receive(frame->payload.size());
    // Invoke a copy: the handler may replace on_receive_ from inside the
    // call (session handshake → attach_channel), which would otherwise
    // destroy the lambda mid-execution.
    auto handler = on_receive_;
    handler(frame->payload);
  }
  if (pos > 0) in_buf_.erase(in_buf_.begin(), in_buf_.begin() + pos);
  if (open_ && peer_gone_ && !stalled) do_break();
}

void SocketChannelState::schedule_drain() {
  if (!open_ || drain_pending_ || !on_receive_) return;
  if (in_buf_.empty() && !peer_gone_) return;
  drain_pending_ = true;
  auto self = shared_from_this();
  transport_.scheduler().schedule(0, [self]() {
    self->drain_pending_ = false;
    if (self->open_) self->deliver_frames();
  });
}

void SocketChannelState::chan_close() {
  if (!open_) return;
  open_ = false;
  // Push out whatever is queued without blocking; the peer then sees EOF.
  while (out_pos_ < out_buf_.size()) {
    const ssize_t n = ::send(fd_, out_buf_.data() + out_pos_,
                             out_buf_.size() - out_pos_, MSG_NOSIGNAL);
    if (n <= 0) break;
    out_pos_ += static_cast<std::size_t>(n);
  }
  transport_.unwatch_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  on_receive_ = nullptr;
  on_break_ = nullptr;  // local close is not a break
}

void SocketChannelState::do_break() {
  if (!open_) return;
  open_ = false;
  transport_.unwatch_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  transport_.note_channel_break();
  auto handler = std::move(on_break_);
  on_break_ = nullptr;
  on_receive_ = nullptr;
  if (handler) handler();
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketEndpoint — one device × technology attachment point.
// ---------------------------------------------------------------------------

class SocketTransport::SocketEndpoint final : public Endpoint {
 public:
  SocketEndpoint(SocketTransport& transport, DeviceId device,
                 net::TechProfile profile)
      : t_(transport), device_(device), profile_(std::move(profile)) {
    bring_up();
  }

  ~SocketEndpoint() override {
    tear_down(/*notify=*/false);  // silent, like tearing down a Medium
  }

  DeviceId device() const override { return device_; }
  const net::TechProfile& profile() const override { return profile_; }

  void set_powered(bool on) override {
    if (powered_ == on) return;
    powered_ = on;
    if (on) {
      bring_up();
    } else {
      tear_down(/*notify=*/true);
    }
  }
  bool powered() const override { return powered_; }

  void start_inquiry(InquiryHandler done) override;
  void bind(net::Port port, DatagramHandler handler) override {
    dgram_handlers_[port] = std::move(handler);
  }
  void unbind(net::Port port) override { dgram_handlers_.erase(port); }
  void send_datagram(DeviceId dst, net::Port port, BytesView payload) override;
  void broadcast_datagram(net::Port port, BytesView payload) override;
  void listen(net::Port port, AcceptHandler on_accept) override {
    listeners_[port] = std::move(on_accept);
  }
  void stop_listen(net::Port port) override { listeners_.erase(port); }
  void connect(DeviceId dst, net::Port port, ConnectHandler done) override;
  double signal_to(DeviceId dst) const override;

  std::size_t open_channel_count() const {
    std::size_t n = 0;
    for (const auto& weak : channels_) {
      if (auto ch = weak.lock(); ch && ch->chan_open()) ++n;
    }
    return n;
  }

  /// Telemetry scrape over every live channel: send an RTT probe and sum
  /// the queue depths into the caller's per-device accumulators. Channels
  /// are pinned first — a probe's flush may break a channel, whose break
  /// handler may open new ones and reshape channels_ under an iterator.
  void scrape_channels(std::uint64_t wall_us, std::size_t& send_bytes,
                       std::size_t& recv_bytes) {
    std::vector<std::shared_ptr<SocketChannelState>> live;
    live.reserve(channels_.size());
    for (const auto& weak : channels_) {
      if (auto ch = weak.lock(); ch && ch->chan_open()) {
        live.push_back(std::move(ch));
      }
    }
    for (const auto& ch : live) {
      ch->send_ping(wall_us);
      send_bytes += ch->send_queue_bytes();
      recv_bytes += ch->recv_queue_bytes();
    }
  }

 private:
  /// An outgoing connect between ::connect(2) and channel_accept/reject.
  struct PendingConn {
    int fd = -1;
    DeviceId dst = net::kInvalidNode;
    ConnectHandler done;
    Bytes buf;
    sim::EventId timeout = 0;
    std::uint64_t started_wall = 0;  ///< handshake latency start stamp
  };
  /// An accepted stream fd waiting for its channel_open frame.
  struct PendingAccept {
    int fd = -1;
    Bytes buf;
    sim::EventId timeout = 0;
    std::uint64_t started_wall = 0;
  };

  void bring_up();
  void tear_down(bool notify);
  void handle_dgram_readable();
  void handle_listen_readable();
  void settle_accept(int fd);
  void drop_accept(int fd);
  void settle_connect(int fd);
  void fail_connect(int fd, Error error);
  std::vector<DeviceId> scan_peers() const;
  std::shared_ptr<SocketChannelState> adopt(int fd, DeviceId remote,
                                            Bytes leftover);

  SocketTransport& t_;
  DeviceId device_;
  net::TechProfile profile_;
  bool powered_ = true;
  int dgram_fd_ = -1;
  int listen_fd_ = -1;
  std::map<net::Port, DatagramHandler> dgram_handlers_;
  std::map<net::Port, AcceptHandler> listeners_;
  std::map<int, PendingConn> pending_conns_;
  std::map<int, PendingAccept> pending_accepts_;
  std::vector<std::weak_ptr<SocketChannelState>> channels_;
};

void SocketTransport::SocketEndpoint::bring_up() {
  const std::string dpath = endpoint_path(t_.dir_, device_, profile_.tech, "dgram");
  const std::string spath = endpoint_path(t_.dir_, device_, profile_.tech, "stream");
  ::unlink(dpath.c_str());
  ::unlink(spath.c_str());

  dgram_fd_ = make_socket(SOCK_DGRAM);
  PH_CHECK_MSG(dgram_fd_ >= 0, "socket(AF_UNIX, SOCK_DGRAM) failed");
  sockaddr_un daddr = make_addr(dpath);
  PH_CHECK_MSG(::bind(dgram_fd_, reinterpret_cast<sockaddr*>(&daddr),
                      sizeof(daddr)) == 0,
               "bind() of datagram socket failed");
  t_.watch_fd(dgram_fd_, EPOLLIN,
              [this](std::uint32_t) { handle_dgram_readable(); });

  listen_fd_ = make_socket(SOCK_STREAM);
  PH_CHECK_MSG(listen_fd_ >= 0, "socket(AF_UNIX, SOCK_STREAM) failed");
  sockaddr_un saddr = make_addr(spath);
  PH_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&saddr),
                      sizeof(saddr)) == 0,
               "bind() of stream socket failed");
  PH_CHECK_MSG(::listen(listen_fd_, 64) == 0, "listen() failed");
  t_.watch_fd(listen_fd_, EPOLLIN,
              [this](std::uint32_t) { handle_listen_readable(); });
}

void SocketTransport::SocketEndpoint::tear_down(bool notify) {
  if (dgram_fd_ >= 0) {
    t_.unwatch_fd(dgram_fd_);
    ::close(dgram_fd_);
    dgram_fd_ = -1;
    ::unlink(endpoint_path(t_.dir_, device_, profile_.tech, "dgram").c_str());
  }
  if (listen_fd_ >= 0) {
    t_.unwatch_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(endpoint_path(t_.dir_, device_, profile_.tech, "stream").c_str());
  }
  while (!pending_accepts_.empty()) drop_accept(pending_accepts_.begin()->first);
  while (!pending_conns_.empty()) {
    fail_connect(pending_conns_.begin()->first,
                 Error{Errc::connect_failed, "local endpoint powered off"});
  }
  // Break (or silently drop) every live channel. force_break unregisters
  // the fd handler, releasing the loop's owning reference.
  auto channels = std::move(channels_);
  channels_.clear();
  for (auto& weak : channels) {
    if (auto ch = weak.lock()) {
      if (notify) {
        ch->force_break();
      } else {
        ch->chan_close();
      }
    }
  }
}

void SocketTransport::SocketEndpoint::handle_dgram_readable() {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(dgram_fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    auto frame = proto::decode_frame(BytesView(buf, static_cast<std::size_t>(n)));
    if (!frame || frame->kind != proto::FrameKind::datagram ||
        frame->payload.size() < 6) {
      t_.note_bad_frame();
      continue;
    }
    const DeviceId src = read_u32(frame->payload.subspan(0, 4));
    const net::Port port = read_u16(frame->payload.subspan(4, 2));
    t_.metrics_.datagrams_received->inc();
    auto it = dgram_handlers_.find(port);
    if (it == dgram_handlers_.end()) continue;
    // Copy the handler: it may rebind (or unbind) this very port.
    DatagramHandler handler = it->second;
    handler(src, frame->payload.subspan(6));
  }
}

void SocketTransport::SocketEndpoint::send_datagram(DeviceId dst, net::Port port,
                                                    BytesView payload) {
  if (!powered_) return;
  Bytes body;
  body.reserve(6 + payload.size());
  append_u32(body, device_);  // src
  append_u16(body, port);
  body.insert(body.end(), payload.begin(), payload.end());
  const Bytes frame = proto::encode_frame(proto::FrameKind::datagram, body);
  const std::string path = endpoint_path(t_.dir_, dst, profile_.tech, "dgram");
  sockaddr_un addr = make_addr(path);
  // Fire and forget: an absent or unpowered peer just loses the frame,
  // exactly the unreliable-datagram contract.
  (void)::sendto(dgram_fd_, frame.data(), frame.size(), MSG_NOSIGNAL,
                 reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  t_.metrics_.datagrams_sent->inc();
  t_.metrics_.datagram_bytes->inc(payload.size());
}

void SocketTransport::SocketEndpoint::broadcast_datagram(net::Port port,
                                                         BytesView payload) {
  if (!powered_ || !profile_.supports_broadcast) return;
  for (DeviceId peer : scan_peers()) {
    send_datagram(peer, port, payload);
  }
}

std::vector<DeviceId> SocketTransport::SocketEndpoint::scan_peers() const {
  std::vector<DeviceId> found;
  DIR* dir = ::opendir(t_.dir_.c_str());
  if (dir == nullptr) return found;
  while (dirent* entry = ::readdir(dir)) {
    const DeviceId id = parse_dgram_entry(entry->d_name, profile_.tech);
    if (id != net::kInvalidNode && id != device_) found.push_back(id);
  }
  ::closedir(dir);
  std::sort(found.begin(), found.end());
  return found;
}

void SocketTransport::SocketEndpoint::start_inquiry(InquiryHandler done) {
  // The scan takes the technology's inquiry duration (virtual time), then
  // reports whoever has a datagram socket in the rendezvous directory —
  // the socket substrate's "in radio range and answering".
  t_.scheduler_->schedule(
      profile_.inquiry_duration, [this, done = std::move(done)]() {
        if (!powered_) {
          done({});
          return;
        }
        std::vector<DeviceId> found;
        for (DeviceId peer : scan_peers()) {
          if (profile_.inquiry_detect_prob >= 1.0 ||
              t_.rng_.chance(profile_.inquiry_detect_prob)) {
            found.push_back(peer);
          }
        }
        done(std::move(found));
      });
}

double SocketTransport::SocketEndpoint::signal_to(DeviceId dst) const {
  if (!powered_) return 0.0;
  const std::string path = endpoint_path(t_.dir_, dst, profile_.tech, "dgram");
  return ::access(path.c_str(), F_OK) == 0 ? 1.0 : 0.0;
}

std::shared_ptr<SocketChannelState> SocketTransport::SocketEndpoint::adopt(
    int fd, DeviceId remote, Bytes leftover) {
  auto state =
      std::make_shared<SocketChannelState>(t_, fd, remote, profile_.tech);
  state->start(std::move(leftover));
  std::erase_if(channels_, [](const auto& weak) { return weak.expired(); });
  channels_.push_back(state);
  return state;
}

// --- accept side -----------------------------------------------------------

void SocketTransport::SocketEndpoint::handle_listen_readable() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error — epoll will re-notify
    }
    auto [it, inserted] = pending_accepts_.emplace(fd, PendingAccept{});
    it->second.fd = fd;
    it->second.started_wall = t_.wall_now_us();
    // A peer that connects but never sends channel_open must not pin the
    // fd forever.
    it->second.timeout = t_.scheduler_->schedule(
        sim::seconds(10), [this, fd]() { drop_accept(fd); });
    t_.watch_fd(fd, EPOLLIN, [this, fd](std::uint32_t) { settle_accept(fd); });
  }
}

void SocketTransport::SocketEndpoint::drop_accept(int fd) {
  auto it = pending_accepts_.find(fd);
  if (it == pending_accepts_.end()) return;
  t_.scheduler_->cancel(it->second.timeout);
  t_.unwatch_fd(fd);
  ::close(fd);
  pending_accepts_.erase(it);
}

void SocketTransport::SocketEndpoint::settle_accept(int fd) {
  auto it = pending_accepts_.find(fd);
  if (it == pending_accepts_.end()) return;
  PendingAccept& pa = it->second;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      pa.buf.insert(pa.buf.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    drop_accept(fd);  // peer vanished before the handshake
    return;
  }
  if (pa.buf.size() < 4) return;
  const std::uint32_t len = read_u32(BytesView(pa.buf).subspan(0, 4));
  if (len > kMaxStreamFrame) {
    drop_accept(fd);
    return;
  }
  if (pa.buf.size() - 4 < len) return;  // handshake frame still partial
  auto frame = proto::decode_frame(BytesView(pa.buf).subspan(4, len));
  Bytes leftover(pa.buf.begin() + 4 + len, pa.buf.end());
  if (!frame || frame->kind != proto::FrameKind::channel_open ||
      frame->payload.size() < 6) {
    t_.note_bad_frame();
    drop_accept(fd);
    return;
  }
  const DeviceId src = read_u32(frame->payload.subspan(0, 4));
  const net::Port port = read_u16(frame->payload.subspan(4, 2));
  auto listener = listeners_.find(port);
  if (!powered_ || listener == listeners_.end()) {
    Bytes body;
    body.push_back(static_cast<std::uint8_t>(Errc::connect_failed));
    const Bytes reply =
        make_stream_message(proto::FrameKind::channel_reject, body);
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    drop_accept(fd);
    return;
  }
  Bytes body;
  append_u32(body, device_);
  const Bytes reply = make_stream_message(proto::FrameKind::channel_accept, body);
  (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
  // Promote the fd: cancel bookkeeping first, then hand it to a channel.
  t_.scheduler_->cancel(pa.timeout);
  t_.unwatch_fd(fd);
  AcceptHandler handler = listener->second;  // copy — may stop_listen inside
  const std::uint64_t started = pa.started_wall;
  pending_accepts_.erase(it);
  auto state = adopt(fd, src, std::move(leftover));
  t_.metrics_.channels_accepted->inc();
  t_.metrics_.handshake_us->observe(
      static_cast<double>(t_.wall_now_us() - started));
  handler(Channel(state));
}

// --- connect side ----------------------------------------------------------

void SocketTransport::SocketEndpoint::connect(DeviceId dst, net::Port port,
                                              ConnectHandler done) {
  if (!powered_) {
    t_.scheduler_->schedule(0, [done = std::move(done)]() {
      done(Error{Errc::connect_failed, "local adapter powered off"});
    });
    return;
  }
  const int fd = make_socket(SOCK_STREAM);
  PH_CHECK_MSG(fd >= 0, "socket(AF_UNIX, SOCK_STREAM) failed");
  const std::string path = endpoint_path(t_.dir_, dst, profile_.tech, "stream");
  sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const Errc code = (errno == ENOENT || errno == ECONNREFUSED)
                          ? Errc::device_unreachable
                          : Errc::connect_failed;
    ::close(fd);
    t_.scheduler_->schedule(0, [done = std::move(done), code, dst]() {
      done(Error{code, "device " + std::to_string(dst) + ": " +
                           std::string(to_string(code))});
    });
    return;
  }
  Bytes body;
  append_u32(body, device_);
  append_u16(body, port);
  const Bytes open_msg =
      make_stream_message(proto::FrameKind::channel_open, body);
  (void)::send(fd, open_msg.data(), open_msg.size(), MSG_NOSIGNAL);

  auto [it, inserted] = pending_conns_.emplace(fd, PendingConn{});
  it->second.fd = fd;
  it->second.dst = dst;
  it->second.done = std::move(done);
  it->second.started_wall = t_.wall_now_us();
  it->second.timeout = t_.scheduler_->schedule(
      profile_.connect_latency + sim::seconds(10), [this, fd]() {
        fail_connect(fd, Error{Errc::timeout, "channel open timed out"});
      });
  t_.watch_fd(fd, EPOLLIN, [this, fd](std::uint32_t) { settle_connect(fd); });
}

void SocketTransport::SocketEndpoint::fail_connect(int fd, Error error) {
  auto it = pending_conns_.find(fd);
  if (it == pending_conns_.end()) return;
  ConnectHandler done = std::move(it->second.done);
  t_.scheduler_->cancel(it->second.timeout);
  t_.unwatch_fd(fd);
  ::close(fd);
  pending_conns_.erase(it);
  done(std::move(error));
}

void SocketTransport::SocketEndpoint::settle_connect(int fd) {
  auto it = pending_conns_.find(fd);
  if (it == pending_conns_.end()) return;
  PendingConn& pc = it->second;
  std::uint8_t buf[4096];
  // On EOF the peer may already have written a complete reject/accept frame
  // before closing (reject-then-close is the normal refusal shape), so parse
  // the buffered bytes first and only report unreachable if they are short.
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      pc.buf.insert(pc.buf.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    eof = true;
    break;
  }
  const auto incomplete = [&] {
    if (eof) {
      fail_connect(fd, Error{Errc::device_unreachable,
                             "peer closed during channel open"});
    }
  };
  if (pc.buf.size() < 4) return incomplete();
  const std::uint32_t len = read_u32(BytesView(pc.buf).subspan(0, 4));
  if (len > kMaxStreamFrame) {
    fail_connect(fd, Error{Errc::protocol_error, "oversized handshake reply"});
    return;
  }
  if (pc.buf.size() - 4 < len) return incomplete();
  auto frame = proto::decode_frame(BytesView(pc.buf).subspan(4, len));
  if (!frame) {
    t_.note_bad_frame();
    fail_connect(fd, Error{Errc::protocol_error, "bad handshake reply"});
    return;
  }
  if (frame->kind == proto::FrameKind::channel_reject) {
    const Errc code = frame->payload.empty()
                          ? Errc::connect_failed
                          : static_cast<Errc>(std::min<std::uint8_t>(
                                frame->payload[0],
                                static_cast<std::uint8_t>(kMaxErrc)));
    fail_connect(fd, Error{code == Errc::ok ? Errc::connect_failed : code,
                           "peer rejected channel open"});
    return;
  }
  if (frame->kind != proto::FrameKind::channel_accept) {
    fail_connect(fd, Error{Errc::protocol_error, "unexpected handshake reply"});
    return;
  }
  Bytes leftover(pc.buf.begin() + 4 + len, pc.buf.end());
  ConnectHandler done = std::move(pc.done);
  const DeviceId dst = pc.dst;
  const std::uint64_t started = pc.started_wall;
  t_.scheduler_->cancel(pc.timeout);
  t_.unwatch_fd(fd);
  pending_conns_.erase(it);
  auto state = adopt(fd, dst, std::move(leftover));
  t_.metrics_.channels_opened->inc();
  t_.metrics_.handshake_us->observe(
      static_cast<double>(t_.wall_now_us() - started));
  done(Channel(state));
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      next_device_(config_.first_device_id == net::kInvalidNode
                       ? 1
                       : config_.first_device_id) {
  if (config_.socket_dir.empty()) {
    char tmpl[] = "/tmp/ph_socket_XXXXXX";
    PH_CHECK_MSG(::mkdtemp(tmpl) != nullptr, "mkdtemp() failed");
    dir_ = tmpl;
    owns_dir_ = true;
  } else {
    dir_ = config_.socket_dir;
    ::mkdir(dir_.c_str(), 0700);  // EEXIST is fine — shared directories
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  PH_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1() failed");
  scheduler_ = std::make_unique<WallScheduler>(*this, config_.time_scale);
  device_names_.emplace_back();  // index 0 = kInvalidNode

  metrics_ = register_transport_metrics(registry_);
  h_loop_lag_ = &registry_.histogram("transport.socket.loop.lag_us");
  h_loop_dispatch_ = &registry_.histogram("transport.socket.loop.dispatch_us");
  g_wait_stall_ = &registry_.gauge("transport.socket.loop.wait_stall_us");
  c_partial_writes_ = &registry_.counter("transport.socket.partial_writes");
  c_backpressure_ = &registry_.counter("transport.socket.backpressure");
  c_rtt_probes_ = &registry_.counter("transport.socket.rtt_probes");

  // This backend's journal stamps are wall-derived (virtual µs = wall µs ×
  // time_scale); tag the domain so /flight and PH_TRACE_JSON exports are
  // never mistaken for simulated time.
  trace_.set_clock_domain("wall");

  if (config_.sample_interval_us > 0) enable_telemetry();
  if (config_.profiler) enable_profiler();  // before ops: /profile source
  if (config_.ops_server) {
    auto started = enable_ops_server();
    PH_CHECK_MSG(started.ok(), "ops server failed to start");
  }
}

SocketTransport::~SocketTransport() {
  if (profiler_ != nullptr) {
    profiler_->stop();
    profiler_->unregister_thread();  // fold the loop thread's samples
    obs::prof::dump_folded_if_requested(*profiler_);
  }
  endpoints_.clear();  // unlinks sockets, closes fds, silently drops channels
  ops_.reset();        // closes + unlinks the ops socket before any rmdir
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (owns_dir_) ::rmdir(dir_.c_str());  // best-effort; fails if shared
}

Scheduler& SocketTransport::scheduler() { return *scheduler_; }
const Scheduler& SocketTransport::scheduler() const { return *scheduler_; }

DeviceId SocketTransport::add_device(
    std::string name, std::unique_ptr<sim::MobilityModel> /*mobility*/) {
  device_names_.push_back(std::move(name));
  return next_device_++;
}

Endpoint& SocketTransport::add_endpoint(DeviceId device,
                                        net::TechProfile profile) {
  const auto key = std::make_pair(device, profile.tech);
  PH_CHECK_MSG(!endpoints_.contains(key),
               "one endpoint per (device, technology)");
  auto endpoint =
      std::make_unique<SocketEndpoint>(*this, device, std::move(profile));
  auto [it, inserted] = endpoints_.emplace(key, std::move(endpoint));
  return *it->second;
}

Endpoint* SocketTransport::endpoint(DeviceId device, net::Technology tech) {
  auto it = endpoints_.find(std::make_pair(device, tech));
  return it == endpoints_.end() ? nullptr : it->second.get();
}

std::size_t SocketTransport::open_channel_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [key, endpoint] : endpoints_) n += endpoint->open_channel_count();
  return n;
}

void SocketTransport::watch_fd(int fd, std::uint32_t events,
                               std::function<void(std::uint32_t)> handler) {
  const std::uint64_t token = next_watch_token_++;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token;
  PH_CHECK_MSG(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
               "epoll_ctl(ADD) failed");
  watch_handlers_[token] = std::move(handler);
  fd_tokens_[fd] = token;
}

void SocketTransport::rearm_fd(int fd, std::uint32_t events) {
  auto it = fd_tokens_.find(fd);
  if (it == fd_tokens_.end()) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = it->second;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void SocketTransport::unwatch_fd(int fd) {
  auto it = fd_tokens_.find(fd);
  if (it == fd_tokens_.end()) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  watch_handlers_.erase(it->second);
  fd_tokens_.erase(it);
}

void SocketTransport::pump_epoll(int timeout_ms) {
  epoll_event events[64];
  const std::uint64_t wait_start = wall_clock_.now();
  int n = 0;
  {
    // Mode 2 samples landing here attribute to transport.idle — the loop
    // is parked in the kernel, not burning CPU.
    const obs::prof::Scope idle(obs::prof::Center::transport_idle);
    n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  }
  // Wait stall: how far past the requested timeout the kernel actually
  // held us — scheduler jitter and ready-list storms, not our handlers.
  const std::uint64_t waited = wall_clock_.now() - wait_start;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(timeout_ms < 0 ? 0 : timeout_ms) * 1000;
  g_wait_stall_->set(waited > budget ? static_cast<double>(waited - budget)
                                     : 0.0);
  for (int i = 0; i < n; ++i) {
    // Look up by watch token, per event: an earlier handler in this batch
    // may have unregistered the watch (closed channel, settled handshake),
    // and the fd number may already belong to a newly opened socket — the
    // retired token makes the stale event drop instead of misrouting.
    auto it = watch_handlers_.find(events[i].data.u64);
    if (it == watch_handlers_.end()) continue;
    auto handler = it->second;  // copy — the handler may erase itself
    const std::uint64_t t0 = wall_clock_.now();
    {
      const obs::prof::Scope io(obs::prof::Center::transport_io);
      handler(events[i].events);
    }
    h_loop_dispatch_->observe(static_cast<double>(wall_clock_.now() - t0));
  }
}

void SocketTransport::note_channel_send(std::size_t bytes) {
  metrics_.channel_messages->inc();
  metrics_.channel_bytes->inc(bytes);
}

void SocketTransport::note_channel_receive(std::size_t bytes) {
  metrics_.channel_bytes->inc(bytes);
}

void SocketTransport::note_channel_break() {
  metrics_.channels_broken->inc();
}

void SocketTransport::note_bad_frame() { metrics_.bad_frames->inc(); }

void SocketTransport::note_partial_write() { c_partial_writes_->inc(); }

void SocketTransport::note_backpressure() { c_backpressure_->inc(); }

void SocketTransport::note_rtt_probe() { c_rtt_probes_->inc(); }

void SocketTransport::note_rtt_sample(std::uint64_t rtt_wall_us) {
  metrics_.channel_rtt_us->observe(static_cast<double>(rtt_wall_us));
}

void SocketTransport::enable_telemetry() {
  if (sampler_ != nullptr) return;
  if (config_.sample_interval_us == 0) {
    config_.sample_interval_us = 100'000;  // 100 ms wall default
  }
  obs::SamplerConfig sampler_config;
  sampler_config.interval_us = config_.sample_interval_us;
  sampler_ = std::make_unique<obs::Sampler>(registry_, wall_clock_,
                                            sampler_config);
  slo_ = std::make_unique<obs::SloEngine>(*sampler_, registry_, &trace_);
  scrape_telemetry();  // first scrape baselines the diff cursors
}

void SocketTransport::scrape_telemetry() {
  // Attribute the scrape itself (Mode 2 span) and its re-arm timer below
  // (pending schedule tag) to transport.telemetry.
  const obs::prof::TagScope tag(obs::prof::Center::transport_telemetry);
  const obs::prof::Scope span(obs::prof::Center::transport_telemetry);
  const std::uint64_t wall = wall_clock_.now();
  // Queue-depth gauges per device, summed across its endpoints' channels;
  // RTT probes ride the same pass.
  std::map<DeviceId, std::pair<std::size_t, std::size_t>> depths;
  for (auto& [key, endpoint] : endpoints_) {
    auto& [send_bytes, recv_bytes] = depths[key.first];
    endpoint->scrape_channels(wall, send_bytes, recv_bytes);
  }
  for (const auto& [device, queue] : depths) {
    const std::string prefix =
        "transport.socket.d" + std::to_string(device) + ".";
    registry_.gauge(prefix + "send_queue_bytes")
        .set(static_cast<double>(queue.first));
    registry_.gauge(prefix + "recv_queue_bytes")
        .set(static_cast<double>(queue.second));
  }
  sampler_->sample();
  slo_->evaluate();
  // Wall interval mapped into the scheduler's virtual microseconds.
  const double scale = config_.time_scale > 0.0 ? config_.time_scale : 1.0;
  const auto delay = static_cast<sim::Duration>(
      static_cast<double>(config_.sample_interval_us) * scale);
  scheduler_->schedule(delay > 0 ? delay : 1, [this]() { scrape_telemetry(); });
}

void SocketTransport::enable_profiler() {
  profiler_ = std::make_unique<obs::prof::WallProfiler>();
  // The transport is single-threaded: construction and run_until happen on
  // the same (loop) thread, so registering here binds the right stack.
  profiler_->register_thread("loop");
  profiler_->start();
}

Result<void> SocketTransport::enable_ops_server() {
  enable_telemetry();
  obs::OpsServerConfig ops_config;
  ops_config.socket_path =
      dir_ + "/d" + std::to_string(config_.first_device_id) + ".ops";
  ops_config.trace_ts_divisor =
      config_.time_scale > 0.0 ? config_.time_scale : 1.0;
  obs::OpsSources sources;
  sources.registry = &registry_;
  sources.trace = &trace_;
  sources.sampler = sampler_.get();
  sources.slo = slo_.get();
  sources.profiler = profiler_.get();
  sources.device_names = [this]() {
    std::map<std::uint64_t, std::string> names;
    for (DeviceId id = config_.first_device_id;
         id < config_.first_device_id + device_names_.size() - 1; ++id) {
      const auto& name = device_names_[id - config_.first_device_id + 1];
      if (!name.empty()) names[id] = name;
    }
    return names;
  };
  auto server =
      std::make_unique<obs::OpsServer>(std::move(ops_config),
                                       std::move(sources));
  if (auto started = server->start(); !started.ok()) {
    return started;
  }
  ops_ = std::move(server);
  watch_fd(ops_->fd(), EPOLLIN,
           [this](std::uint32_t) { ops_->handle_readable(); });
  return ok();
}

}  // namespace ph::transport
