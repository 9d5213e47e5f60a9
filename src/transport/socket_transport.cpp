#include "transport/socket_transport.hpp"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
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
#include <ctime>
#include <utility>

#include "obs/ops_server.hpp"
#include "obs/prof.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "proto/frame.hpp"
#include "sim/event_queue.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace ph::transport {

namespace {

/// Appends what the kernel holds for `fd` to `in`, counting each recv(2)
/// in `calls`. Stops after a read shorter than the buffer: every fd is
/// watched level-triggered, so bytes still queued (or an EOF) wake the
/// next epoll_wait. False once the peer is gone (EOF or a hard error); what
/// it sent before that is in `in`.
bool recv_into(int fd, proto::FrameStream& in, obs::Counter& calls) {
  std::uint8_t buf[16384];
  for (;;) {
    calls.inc();
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      in.append(BytesView(buf, static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

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

constexpr char kSocketDirParent[] = "/tmp";
constexpr char kSocketDirPrefix[] = "ph_socket_";
/// The file in an owned rendezvous directory that names its process.
constexpr char kPidFile[] = "pid";

/// Records this process's pid in its fresh rendezvous directory. It is
/// written under a temporary name and renamed into place, so a sweep never
/// reads a partial pid. Best effort: a directory without a pid file is
/// never swept.
void write_pid_file(const std::string& dir) {
  const std::string tmp = dir + "/" + kPidFile + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (fd < 0) return;
  const std::string pid = std::to_string(::getpid());
  const bool written = ::write(fd, pid.data(), pid.size()) ==
                       static_cast<ssize_t>(pid.size());
  ::close(fd);
  if (!written ||
      ::rename(tmp.c_str(), (dir + "/" + kPidFile).c_str()) != 0) {
    ::unlink(tmp.c_str());
  }
}

/// The pid recorded in the rendezvous directory `dir_fd`; 0 when it has no
/// well-formed pid file.
pid_t recorded_pid(int dir_fd) {
  const int fd = ::openat(dir_fd, kPidFile, O_RDONLY | O_NOFOLLOW | O_CLOEXEC);
  if (fd < 0) return 0;
  char digits[16];
  const ssize_t n = ::read(fd, digits, sizeof(digits));
  ::close(fd);
  if (n <= 0 || n > 9) return 0;
  pid_t pid = 0;
  for (ssize_t i = 0; i < n; ++i) {
    if (digits[i] < '0' || digits[i] > '9') return 0;
    pid = pid * 10 + (digits[i] - '0');
  }
  return pid;
}

/// Empties and removes the rendezvous directory `name` under `parent_fd`.
/// The pid file goes last, so a sweep cut short leaves a directory the
/// next sweep still recognises.
void remove_socket_dir(int parent_fd, const char* name, int dir_fd) {
  const int list_fd = ::dup(dir_fd);
  if (list_fd < 0) return;
  DIR* dir = ::fdopendir(list_fd);
  if (dir == nullptr) {
    ::close(list_fd);
    return;
  }
  ::rewinddir(dir);  // the dup shares dir_fd's offset with earlier reads
  while (dirent* entry = ::readdir(dir)) {
    const std::string file = entry->d_name;
    if (file == "." || file == ".." || file == kPidFile) continue;
    ::unlinkat(dir_fd, file.c_str(), 0);
  }
  ::closedir(dir);
  ::unlinkat(dir_fd, kPidFile, 0);
  ::unlinkat(parent_fd, name, AT_REMOVEDIR);
}

/// A pid-less rendezvous directory is debris only once it is this old: a
/// live transport writes its pid right after making the directory, and
/// older builds never wrote one.
constexpr time_t kPidlessGraceS = 10 * 60;

/// True when the directory `path` (open as `dir_fd`) holds at least one
/// socket file and every one refuses connect() with ECONNREFUSED, which
/// means nothing is bound to it any more. A live socket of the other type
/// answers EPROTOTYPE and a full listener EAGAIN; both count as alive.
bool holds_only_dead_sockets(const std::string& path, int dir_fd) {
  const int list_fd = ::dup(dir_fd);
  if (list_fd < 0) return false;
  DIR* dir = ::fdopendir(list_fd);
  if (dir == nullptr) {
    ::close(list_fd);
    return false;
  }
  ::rewinddir(dir);
  std::size_t sockets = 0;
  bool all_dead = true;
  while (dirent* entry = ::readdir(dir)) {
    struct stat st {};
    if (::fstatat(dir_fd, entry->d_name, &st, AT_SYMLINK_NOFOLLOW) != 0 ||
        !S_ISSOCK(st.st_mode)) {
      continue;
    }
    ++sockets;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string file = path + "/" + entry->d_name;
    const int fd =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (file.size() >= sizeof(addr.sun_path) || fd < 0) {
      if (fd >= 0) ::close(fd);
      all_dead = false;
      break;
    }
    std::memcpy(addr.sun_path, file.c_str(), file.size() + 1);
    const int rc =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    const int err = errno;
    ::close(fd);
    if (rc == 0 || err != ECONNREFUSED) {
      all_dead = false;
      break;
    }
  }
  ::closedir(dir);
  return sockets > 0 && all_dead;
}

/// Removes the rendezvous directories this user's killed runs left behind,
/// among the /tmp/ph_socket_* directories owned by this uid:
///  - one whose recorded pid is gone (kill(pid, 0) fails with ESRCH);
///  - one with no pid file at all, more than kPidlessGraceS old, that
///    holds at least one socket file and only dead ones.
/// Any other directory (a live or unsignalable process, a malformed pid
/// file, another owner, a fresh or socketless pid-less one) is left
/// alone. Pids are looked up in this process's pid namespace, so
/// processes that share /tmp across pid namespaces should each set
/// socket_dir.
void sweep_dead_socket_dirs() {
  DIR* parent = ::opendir(kSocketDirParent);
  if (parent == nullptr) return;
  const uid_t uid = ::geteuid();
  const time_t now = ::time(nullptr);
  while (dirent* entry = ::readdir(parent)) {
    if (std::strncmp(entry->d_name, kSocketDirPrefix,
                     sizeof(kSocketDirPrefix) - 1) != 0) {
      continue;
    }
    const int dir_fd =
        ::openat(::dirfd(parent), entry->d_name,
                 O_RDONLY | O_DIRECTORY | O_NOFOLLOW | O_CLOEXEC);
    if (dir_fd < 0) continue;
    struct stat st {};
    if (::fstat(dir_fd, &st) != 0 || st.st_uid != uid) {
      ::close(dir_fd);
      continue;
    }
    bool dead = false;
    if (const pid_t pid = recorded_pid(dir_fd); pid > 0) {
      dead = ::kill(pid, 0) != 0 && errno == ESRCH;
    } else if (struct stat pid_st {};
               ::fstatat(dir_fd, kPidFile, &pid_st, AT_SYMLINK_NOFOLLOW) !=
                   0 &&
               errno == ENOENT) {
      dead = now - st.st_mtime > kPidlessGraceS &&
             holds_only_dead_sockets(std::string(kSocketDirParent) + "/" +
                                         entry->d_name,
                                     dir_fd);
    }
    if (dead) remove_socket_dir(::dirfd(parent), entry->d_name, dir_fd);
    ::close(dir_fd);
  }
  ::closedir(parent);
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

template <typename Fn>
void SocketTransport::dispatch(Fn&& handler) {
  ++dispatch_depth_;
  handler();
  --dispatch_depth_;
  flush_unflushed();
}

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
    // Same tag plumbing as the simulated kernels: a pending TagScope wins,
    // otherwise the timer inherits the tag of the timer being dispatched.
    return queue_.push(now() + delay, std::move(fn),
                       obs::prof::effective_tag(current_tag_));
  }

  bool cancel(sim::EventId id) override { return queue_.cancel(id); }

  bool pending(sim::EventId id) const override { return queue_.pending(id); }

  /// Alternates rounds of due timers with epoll waits whose wall timeout
  /// is the earlier of `until` and the next timer, both mapped back
  /// through the time scale. Socket readiness wakes the wait early, so I/O
  /// is handled as the kernel delivers it, not on timer granularity. A
  /// round runs only the timers that were due, and already scheduled, when
  /// it started, and the sockets are polled after every round that ran
  /// one: timers that stay due (a host slower than the time scale) cannot
  /// starve the sockets or keep run_until from returning.
  void run_until(sim::Time until) override {
    for (;;) {
      const bool fired = run_due_round();
      const sim::Time current = now();
      if (current >= until) {
        if (fired) transport_.pump_epoll(0);
        return;
      }
      // A lower bound on the next timer: waking early for a cancelled
      // one, or at its wheel slot's start, costs one empty round.
      const sim::Time wake = std::min(until, queue_.next_due_bound());
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
  /// Fires the timers due at the round's start, in (due, seq) order. A
  /// timer scheduled during the round is due no earlier than the round's
  /// start and sorts after every older timer with the same due point, so
  /// the first one reached ends the round. True if any fired.
  bool run_due_round() {
    const sim::Time round_start = now();
    const std::uint64_t last_scheduled = queue_.last_seq();
    bool fired = false;
    for (;;) {
      sim::QueueEntry timer;
      if (!queue_.pop_next(round_start, timer, last_scheduled)) break;
      // Loop lag: how far past its due point the timer actually fired,
      // reported in WALL microseconds (virtual lag unscaled). A loaded
      // or stalled loop shows up here before anything times out.
      const sim::Time lag_virtual = now() - timer.when;
      transport_.h_loop_lag_->observe(static_cast<double>(lag_virtual) /
                                      scale_);
      const std::uint64_t t0 = transport_.wall_clock_.now();
      current_tag_ = timer.tag;
      {
        const obs::prof::Scope span(timer.tag);
        transport_.dispatch(timer.fn);
      }
      current_tag_ = 0;
      transport_.h_loop_dispatch_->observe(
          static_cast<double>(transport_.wall_clock_.now() - t0));
      fired = true;
    }
    return fired;
  }

  SocketTransport& transport_;
  double scale_;
  std::chrono::steady_clock::time_point start_;
  mutable sim::Time last_now_ = 0;
  std::uint8_t current_tag_ = 0;  ///< tag of the timer being dispatched
  sim::TimerWheelQueue queue_;  ///< the simulator's queue, over wall time
};

// ---------------------------------------------------------------------------
// SocketChannelState — one established SOCK_STREAM channel end.
// ---------------------------------------------------------------------------

class SocketTransport::SocketChannelState final
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
    on_receive_ = std::make_shared<const ReceiveHandler>(std::move(handler));
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

  /// Writes queued frames; called for each channel the dispatch queued.
  void flush_queued() {
    flush_queued_ = false;
    flush();
  }

  /// Registers with the epoll loop, taking over the stream the handshake
  /// was read from. The fd handler keeps the state alive (shared_ptr
  /// capture) until the channel closes or breaks — like a simulated link,
  /// an established channel outlives dropped user handles.
  void start(proto::FrameStream in);

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
    return out_.data().size() - out_pos_;
  }
  std::size_t recv_queue_bytes() const noexcept { return in_.buffered(); }

 private:
  void handle_io(std::uint32_t events);
  void deliver_frames();
  void schedule_drain();
  /// Frames were appended to out_: inside a dispatch, queue the channel
  /// for the write when it returns; outside one, write now.
  void frames_queued();
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
  bool flush_queued_ = false;  // on the transport's unflushed list
  proto::FrameStream in_;
  proto::Writer out_;          // frames are written here once, then sent
  std::size_t out_pos_ = 0;
  using ReceiveHandler = std::function<void(BytesView)>;
  /// Shared so a delivery holds the handler it runs (the handler may
  /// replace it, session handshake → attach_channel) without copying it.
  std::shared_ptr<const ReceiveHandler> on_receive_;
  std::function<void()> on_break_;
};

void SocketTransport::SocketChannelState::chan_send(BytesView payload) {
  // Silently discarded when closed, like a closed simulated link; after
  // EOF the peer is gone and a write would EPIPE-break the channel before
  // its buffered tail frames were delivered.
  if (!open_ || peer_gone_) return;
  proto::begin_stream_frame(out_, proto::FrameKind::channel_data,
                            payload.size());
  out_.raw(payload);
  transport_.metrics_.channel_messages->inc();
  transport_.metrics_.channel_bytes->inc(payload.size());
  frames_queued();
}

void SocketTransport::SocketChannelState::send_ping(std::uint64_t wall_us) {
  if (!open_ || peer_gone_) return;
  proto::begin_stream_frame(out_, proto::FrameKind::channel_ping, 8);
  out_.u64(wall_us);
  transport_.c_rtt_probes_->inc();
  frames_queued();
}

void SocketTransport::SocketChannelState::frames_queued() {
  if (transport_.dispatch_depth_ == 0) {
    flush();
    return;
  }
  if (flush_queued_) return;
  flush_queued_ = true;
  transport_.unflushed_.push_back(shared_from_this());
}

void SocketTransport::SocketChannelState::flush() {
  const Bytes& out = out_.data();
  while (open_ && out_pos_ < out.size()) {
    const std::size_t remaining = out.size() - out_pos_;
    transport_.c_send_calls_->inc();
    const ssize_t n =
        ::send(fd_, out.data() + out_pos_, remaining, MSG_NOSIGNAL);
    if (n > 0) {
      if (static_cast<std::size_t>(n) < remaining) {
        transport_.c_partial_writes_->inc();
      }
      out_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      transport_.c_backpressure_->inc();
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
  if (out_pos_ >= out.size()) {
    out_.clear();
    out_pos_ = 0;
    if (want_write_) {
      want_write_ = false;
      if (open_) transport_.rearm_fd(fd_, EPOLLIN);
    }
  }
}

void SocketTransport::SocketChannelState::start(proto::FrameStream in) {
  in_ = std::move(in);
  auto self = shared_from_this();
  transport_.watch_fd(fd_, EPOLLIN,
              [self](std::uint32_t events) { self->handle_io(events); });
  // Bytes that rode in behind the handshake frame are already ours, but the
  // Channel has not reached the caller yet, so no receive handler can be
  // installed. deliver_frames never consumes data frames without one;
  // chan_on_receive schedules the drain once the caller attaches.
}

void SocketTransport::SocketChannelState::handle_io(std::uint32_t events) {
  if (!open_) return;
  if (events & EPOLLOUT) flush();
  if (!open_) return;  // flush may have hit a hard error and broken us
  // EPOLLERR/EPOLLHUP also take the read path: recv drains whatever the
  // peer sent before resetting, then reports EOF, which breaks the channel.
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
    // On EOF or a hard error the peer is gone, but complete frames it sent
    // before closing are already in in_ and must be delivered in order
    // before the break (a graceful send-then-close must not lose its tail,
    // nor surface as connection_lost).
    if (!recv_into(fd_, in_, *transport_.c_recv_calls_)) peer_gone_ = true;
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

/// Delivers every complete frame, in order. A data frame is never consumed
/// while no receive handler is installed — it stays buffered until
/// chan_on_receive drains it — preserving the exactly-once in-order
/// contract. Once the peer is gone the channel breaks only after everything
/// deliverable has been delivered; a poisoned stream breaks it at once.
void SocketTransport::SocketChannelState::deliver_frames() {
  bool stalled = false;
  while (open_) {
    const auto next = in_.peek();
    if (!next) break;
    if (!*next) {
      transport_.metrics_.bad_frames->inc();
      if (in_.poisoned()) {
        do_break();
        return;
      }
      in_.pop();
      continue;
    }
    const proto::FrameView& frame = **next;
    // RTT probes are transport-internal: consumed here, before the
    // no-handler stall check, never surfaced to the receive handler.
    if (frame.kind == proto::FrameKind::channel_ping) {
      in_.pop();
      if (frame.payload.size() >= 8 && !peer_gone_) {
        proto::begin_stream_frame(out_, proto::FrameKind::channel_pong, 8);
        out_.raw(frame.payload.first(8));
        frames_queued();
      }
      continue;
    }
    if (frame.kind == proto::FrameKind::channel_pong) {
      in_.pop();
      if (auto echoed = proto::Reader(frame.payload).u64()) {
        const std::uint64_t now = transport_.wall_now_us();
        if (now >= *echoed) {
          transport_.metrics_.channel_rtt_us->observe(
              static_cast<double>(now - *echoed));
        }
      }
      continue;
    }
    if (frame.kind == proto::FrameKind::channel_data &&
        !(on_receive_ && *on_receive_)) {
      stalled = true;  // keep buffered until a handler is installed
      break;
    }
    in_.pop();
    if (frame.kind != proto::FrameKind::channel_data) {
      transport_.metrics_.bad_frames->inc();
      continue;
    }
    transport_.metrics_.channel_bytes->inc(frame.payload.size());
    // Hold the handler: it may replace on_receive_ from inside the call
    // (session handshake → attach_channel), which would otherwise destroy
    // the lambda mid-execution.
    const std::shared_ptr<const ReceiveHandler> handler = on_receive_;
    (*handler)(frame.payload);
  }
  if (open_ && peer_gone_ && !stalled) do_break();
}

void SocketTransport::SocketChannelState::schedule_drain() {
  if (!open_ || drain_pending_ || !(on_receive_ && *on_receive_)) return;
  if (in_.buffered() == 0 && !peer_gone_) return;
  drain_pending_ = true;
  auto self = shared_from_this();
  transport_.scheduler().schedule(0, [self]() {
    self->drain_pending_ = false;
    if (self->open_) self->deliver_frames();
  });
}

void SocketTransport::SocketChannelState::chan_close() {
  if (!open_) return;
  open_ = false;
  // Push out whatever is queued without blocking; the peer then sees EOF.
  const Bytes& out = out_.data();
  while (out_pos_ < out.size()) {
    transport_.c_send_calls_->inc();
    const ssize_t n = ::send(fd_, out.data() + out_pos_,
                             out.size() - out_pos_, MSG_NOSIGNAL);
    if (n <= 0) break;
    out_pos_ += static_cast<std::size_t>(n);
  }
  transport_.unwatch_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  on_receive_ = nullptr;
  on_break_ = nullptr;  // local close is not a break
}

void SocketTransport::SocketChannelState::do_break() {
  if (!open_) return;
  open_ = false;
  transport_.unwatch_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  transport_.metrics_.channels_broken->inc();
  auto handler = std::move(on_break_);
  on_break_ = nullptr;
  on_receive_ = nullptr;
  if (handler) handler();
}

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
    dgram_handlers_[port] =
        std::make_shared<const DatagramHandler>(std::move(handler));
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
  /// A stream fd until its handshake frame settles it: the bytes read so
  /// far, the timeout and the latency stamp. An accepted fd waiting for
  /// channel_open is just this.
  struct Handshake {
    proto::FrameStream in;
    sim::EventId timeout = 0;
    std::uint64_t started_wall = 0;  ///< handshake latency start stamp
  };
  /// An outgoing connect between ::connect(2) and channel_accept/reject.
  struct PendingConn : Handshake {
    DeviceId dst = net::kInvalidNode;
    ConnectHandler done;
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
  /// Writes the handshake frame built in out_ to `fd`, best effort.
  void send_handshake(int fd) {
    t_.c_send_calls_->inc();
    (void)::send(fd, out_.data().data(), out_.data().size(), MSG_NOSIGNAL);
  }
  /// Turns a settled handshake into a channel that takes over its fd and
  /// stream, and records the handshake latency.
  std::shared_ptr<SocketChannelState> adopt(int fd, DeviceId remote,
                                            Handshake& handshake);

  SocketTransport& t_;
  DeviceId device_;
  net::TechProfile profile_;
  bool powered_ = true;
  int dgram_fd_ = -1;
  int listen_fd_ = -1;
  /// Shared so a delivery holds the handler it runs (it may rebind its
  /// own port) without copying the std::function.
  std::map<net::Port, std::shared_ptr<const DatagramHandler>> dgram_handlers_;
  std::map<net::Port, AcceptHandler> listeners_;
  std::map<int, PendingConn> pending_conns_;
  std::map<int, Handshake> pending_accepts_;
  std::vector<std::weak_ptr<SocketChannelState>> channels_;
  proto::Writer out_;  ///< reused for every datagram and handshake frame
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
    const bool is_datagram = frame && frame->kind == proto::FrameKind::datagram;
    proto::Reader body(is_datagram ? frame->payload : BytesView{});
    const auto src = body.u32();
    const auto port = body.u16();
    if (!src || !port) {  // not a well-formed datagram frame
      t_.metrics_.bad_frames->inc();
      continue;
    }
    t_.metrics_.datagrams_received->inc();
    auto it = dgram_handlers_.find(*port);
    if (it == dgram_handlers_.end()) continue;
    // Hold the handler: it may rebind (or unbind) this very port.
    const std::shared_ptr<const DatagramHandler> handler = it->second;
    (*handler)(*src, frame->payload.subspan(6));
  }
}

void SocketTransport::SocketEndpoint::send_datagram(DeviceId dst, net::Port port,
                                                    BytesView payload) {
  if (!powered_) return;
  out_.clear();
  proto::begin_frame(out_, proto::FrameKind::datagram);
  out_.u32(device_);  // src
  out_.u16(port);
  out_.raw(payload);
  const Bytes& frame = out_.data();
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

std::shared_ptr<SocketTransport::SocketChannelState>
SocketTransport::SocketEndpoint::adopt(int fd, DeviceId remote,
                                       Handshake& handshake) {
  t_.scheduler_->cancel(handshake.timeout);
  t_.unwatch_fd(fd);
  t_.metrics_.handshake_us->observe(
      static_cast<double>(t_.wall_now_us() - handshake.started_wall));
  auto state =
      std::make_shared<SocketChannelState>(t_, fd, remote, profile_.tech);
  state->start(std::move(handshake.in));
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
    auto [it, inserted] = pending_accepts_.emplace(fd, Handshake{});
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
  Handshake& pa = it->second;
  if (!recv_into(fd, pa.in, *t_.c_recv_calls_)) {
    drop_accept(fd);  // peer vanished before the handshake
    return;
  }
  const auto next = pa.in.peek();
  if (!next) return;  // handshake frame still partial
  const bool is_open =
      *next && (*next)->kind == proto::FrameKind::channel_open;
  proto::Reader body(is_open ? (*next)->payload : BytesView{});
  const auto src = body.u32();
  const auto port = body.u16();
  if (!src || !port) {  // not a well-formed channel_open
    t_.metrics_.bad_frames->inc();
    drop_accept(fd);
    return;
  }
  pa.in.pop();
  auto listener = listeners_.find(*port);
  out_.clear();
  if (!powered_ || listener == listeners_.end()) {
    proto::begin_stream_frame(out_, proto::FrameKind::channel_reject, 1);
    out_.u8(static_cast<std::uint8_t>(Errc::connect_failed));
    send_handshake(fd);
    drop_accept(fd);
    return;
  }
  proto::begin_stream_frame(out_, proto::FrameKind::channel_accept, 4);
  out_.u32(device_);
  send_handshake(fd);
  AcceptHandler handler = listener->second;  // copy — may stop_listen inside
  auto settled = pending_accepts_.extract(it);
  auto state = adopt(fd, *src, settled.mapped());
  t_.metrics_.channels_accepted->inc();
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
  out_.clear();
  proto::begin_stream_frame(out_, proto::FrameKind::channel_open, 6);
  out_.u32(device_);
  out_.u16(port);
  send_handshake(fd);

  auto [it, inserted] = pending_conns_.emplace(fd, PendingConn{});
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
  // On EOF the peer may already have written a complete reject/accept frame
  // before closing (reject-then-close is the normal refusal shape), so parse
  // the buffered bytes first and only report unreachable if they are short.
  const bool peer_gone = !recv_into(fd, pc.in, *t_.c_recv_calls_);
  const auto next = pc.in.peek();
  if (!next) {
    if (peer_gone) {
      fail_connect(fd, Error{Errc::device_unreachable,
                             "peer closed during channel open"});
    }
    return;
  }
  if (!*next) {
    t_.metrics_.bad_frames->inc();
    fail_connect(fd, Error{Errc::protocol_error,
                           "bad handshake reply: " + next->error().message});
    return;
  }
  const proto::FrameView& frame = **next;
  if (frame.kind == proto::FrameKind::channel_reject) {
    const Errc code = frame.payload.empty()
                          ? Errc::connect_failed
                          : static_cast<Errc>(std::min<std::uint8_t>(
                                frame.payload[0],
                                static_cast<std::uint8_t>(kMaxErrc)));
    fail_connect(fd, Error{code == Errc::ok ? Errc::connect_failed : code,
                           "peer rejected channel open"});
    return;
  }
  if (frame.kind != proto::FrameKind::channel_accept) {
    fail_connect(fd, Error{Errc::protocol_error, "unexpected handshake reply"});
    return;
  }
  pc.in.pop();
  auto settled = pending_conns_.extract(it);
  PendingConn& conn = settled.mapped();
  auto state = adopt(fd, conn.dst, conn);
  t_.metrics_.channels_opened->inc();
  conn.done(Channel(state));
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
    sweep_dead_socket_dirs();
    std::string tmpl =
        std::string(kSocketDirParent) + "/" + kSocketDirPrefix + "XXXXXX";
    PH_CHECK_MSG(::mkdtemp(tmpl.data()) != nullptr, "mkdtemp() failed");
    dir_ = std::move(tmpl);
    owns_dir_ = true;
    write_pid_file(dir_);
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
  c_send_calls_ = &registry_.counter("transport.socket.send_calls");
  c_recv_calls_ = &registry_.counter("transport.socket.recv_calls");
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
  if (owns_dir_) {
    ::unlink((dir_ + "/" + kPidFile).c_str());
    ::rmdir(dir_.c_str());  // best-effort; fails if shared
  }
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
  watch_handlers_[token] =
      std::make_shared<const WatchHandler>(std::move(handler));
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
    // Held, not copied: the handler may erase itself.
    const std::shared_ptr<const WatchHandler> handler = it->second;
    const std::uint64_t t0 = wall_clock_.now();
    {
      const obs::prof::Scope io(obs::prof::Center::transport_io);
      dispatch([&] { (*handler)(events[i].events); });
    }
    h_loop_dispatch_->observe(static_cast<double>(wall_clock_.now() - t0));
  }
}

void SocketTransport::flush_unflushed() {
  // Indexed, and the list holds its channels: a flush may break a channel,
  // and its break handler may drop or close any other channel.
  for (std::size_t i = 0; i < unflushed_.size(); ++i) {
    unflushed_[i]->flush_queued();
  }
  unflushed_.clear();
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
