// ph::obs::prof — continuous profiling & per-event cost attribution.
//
// Metrics count *what* happened and traces show *when*; this plane answers
// "where does the CPU go". Two modes with very different determinism
// stories share one cost-center taxonomy:
//
//   Mode 1 — deterministic event-cost attribution. Every scheduled event
//   carries a one-byte cost-center tag (layer × event kind). The kernel's
//   dispatch loop bumps a per-center dispatch counter in an attached
//   EventProfiler — a pure function of the event stream, so the resulting
//   `prof.<center>.events` counters live INSIDE the byte-identity gate
//   (ph_chaos_determinism compares them across seeds and thread counts).
//   With the wall plane enabled the same hook also times each event into
//   fixed-bucket wall-cost histograms (`prof.<center>.wall_us`) and runs a
//   slow-event watchdog; wall data is never deterministic and must stay
//   out of byte-compared dumps — the publisher keeps it behind an opt-in
//   flag, exactly like ParallelWorld's `publish_wall_stats` stall gauges.
//
//   Mode 2 — wall-clock sampling profiler for code that runs on real
//   threads (the socket transport's epoll loop, ShardedKernel workers).
//   RAII `Scope` guards push cost centers onto a shallow thread-local
//   span stack (plain atomics, no libunwind); a WallProfiler's sampler
//   thread periodically snapshots every registered thread's stack into a
//   fixed-size ring. The rings render as collapsed-stack ("folded") lines
//   — `thread;center;center count` — the input format of every flamegraph
//   tool, served live on the ops plane's /profile route and merged across
//   a fleet by `ph_ops_dump --profile`.
//
// Tags travel with no scheduler-interface changes: `TagScope` sets a
// thread-local "pending schedule tag" that the kernel reads when an event
// is pushed; events scheduled without a TagScope inherit the tag of the
// event currently executing, so a tagged root (a ping round, an inquiry,
// a fault window) attributes its whole causal chain until a more specific
// scope overrides it.
//
// The attribution hot path — count(), observe_wall(), Scope push/pop and
// WallProfiler ring writes — performs zero heap allocations; the sim
// alloc interposer test pins that.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/result.hpp"

namespace ph::obs {

class Registry;

namespace prof {

/// The static cost-center taxonomy: layer × event kind. A center is one
/// byte so it rides in every queue entry for free; keep the list short
/// and stable — dashboards and EXPERIMENTS tables key on the names.
enum class Center : std::uint8_t {
  unattributed = 0,     // scheduled outside any TagScope / event context
  sim_kernel,           // kernel housekeeping (test drivers, misc timers)
  obs_sample,           // telemetry scrapes (obs::Sampler cadence)
  parallel_window,      // shard phase A: running a window's events
  parallel_merge,       // shard phase B: draining cross-shard mailboxes
  parallel_barrier,     // serial barrier hook (world maintenance)
  net_delivery,         // medium frame/datagram flight + delivery
  net_inquiry,          // inquiry scan completion
  net_link,             // link open / close flush
  net_fault,            // fault plane windows (ISSUE 2 schedules)
  peerhood_discovery,   // daemon inquiry rounds
  peerhood_query,       // remote queries + retry ladder
  peerhood_ping,        // ping rounds and reply timeouts
  peerhood_session,     // session transfer / resume timers
  community_rpc,        // community server/client operations
  sns_task,             // SNS background tasks
  world_scan,           // ParallelWorld scan timers
  world_frame,          // ParallelWorld frame deliveries
  transport_io,         // socket transport: epoll handler dispatch
  transport_idle,       // socket transport: blocked in epoll_wait
  transport_telemetry,  // socket transport: stats scrape
  kCount
};

constexpr std::size_t kCenterCount = static_cast<std::size_t>(Center::kCount);

/// Dotted lowercase name ("net.delivery"); stable across PRs.
const char* center_name(Center c) noexcept;
inline const char* center_name(std::uint8_t tag) noexcept {
  return center_name(tag < kCenterCount ? static_cast<Center>(tag)
                                        : Center::unattributed);
}

namespace detail {
/// Pending schedule tag for the current thread (see TagScope).
inline thread_local std::uint8_t t_pending_tag = 0;
}  // namespace detail

/// Sets the pending schedule tag for the current thread: events scheduled
/// while a TagScope is alive carry its center. Nest freely; the innermost
/// scope wins and the previous tag is restored on destruction.
class TagScope {
 public:
  explicit TagScope(Center c) noexcept : prev_(detail::t_pending_tag) {
    detail::t_pending_tag = static_cast<std::uint8_t>(c);
  }
  ~TagScope() { detail::t_pending_tag = prev_; }
  TagScope(const TagScope&) = delete;
  TagScope& operator=(const TagScope&) = delete;

 private:
  std::uint8_t prev_;
};

/// The tag a schedule call should carry: the pending TagScope tag if one
/// is active, otherwise `inherited` (the tag of the event currently
/// executing — kernels pass their current dispatch tag).
inline std::uint8_t effective_tag(std::uint8_t inherited) noexcept {
  const std::uint8_t pending = detail::t_pending_tag;
  return pending != 0 ? pending : inherited;
}

// ---------------------------------------------------------------------------
// Mode 2 span stack: what the sampler sees.

/// Shallow per-thread stack of active cost centers. Writers (the owning
/// thread, via Scope) store with release order; the sampler thread reads
/// with acquire and tolerates benign races — a sample taken mid-push may
/// see the old depth, which is fine for a statistical profiler.
struct SpanStack {
  static constexpr std::size_t kMaxDepth = 16;
  std::atomic<std::uint32_t> depth{0};
  std::array<std::atomic<std::uint8_t>, kMaxDepth> frames{};
};

namespace detail {
inline thread_local SpanStack t_span_stack;
}  // namespace detail

inline SpanStack& thread_span_stack() noexcept { return detail::t_span_stack; }

/// RAII frame on the current thread's span stack. Pushes beyond kMaxDepth
/// are dropped (the sample just loses leaf detail). Allocation-free.
class Scope {
 public:
  explicit Scope(Center c) noexcept : Scope(static_cast<std::uint8_t>(c)) {}
  explicit Scope(std::uint8_t tag) noexcept {
    SpanStack& s = detail::t_span_stack;
    const std::uint32_t d = s.depth.load(std::memory_order_relaxed);
    if (d < SpanStack::kMaxDepth) {
      s.frames[d].store(tag, std::memory_order_relaxed);
      s.depth.store(d + 1, std::memory_order_release);
      pushed_ = true;
    }
  }
  ~Scope() {
    if (pushed_) {
      SpanStack& s = detail::t_span_stack;
      s.depth.store(s.depth.load(std::memory_order_relaxed) - 1,
                    std::memory_order_release);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool pushed_ = false;
};

// ---------------------------------------------------------------------------
// Mode 1: per-event attribution.

/// Wall-cost bucket upper bounds in MICROSECONDS (event dispatch scale:
/// sub-µs protocol callbacks up to 100 ms stragglers, overflow beyond).
constexpr std::array<std::uint64_t, 15> kWallBoundsUs = {
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10'000, 50'000,
    100'000};

/// kWallBoundsUs as doubles, for Registry::histogram construction.
const std::vector<double>& wall_cost_bounds_us();

/// Per-dispatch cost attribution for one sequential kernel (a Simulator /
/// one kernel shard). Not thread-safe — one profiler per shard, drained
/// single-threaded at barriers, mirroring the Registry ownership rules.
///
/// The deterministic part (per-center dispatch counts) is always on; wall
/// costing and the slow-event watchdog arm via enable_wall(). The hot
/// methods are inline, branch-light and allocation-free.
class EventProfiler {
 public:
  static constexpr std::size_t kBuckets = kWallBoundsUs.size() + 1;

  struct CenterCost {
    std::uint64_t events = 0;      // dispatches (deterministic)
    std::uint64_t wall_count = 0;  // dispatches timed while wall was on
    std::uint64_t wall_us = 0;     // summed wall cost
    std::uint64_t min_us = ~0ull;
    std::uint64_t max_us = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };

  EventProfiler();

  // -- hot path (kernel dispatch) --------------------------------------

  void count(std::uint8_t tag) noexcept { ++cost_at(tag).events; }

  bool wall_enabled() const noexcept { return wall_enabled_; }

  /// Monotonic µs since construction (steady clock).
  std::uint64_t now_us() const noexcept;

  void observe_wall(std::uint8_t tag, std::uint64_t us) noexcept {
    CenterCost& c = cost_at(tag);
    ++c.wall_count;
    c.wall_us += us;
    if (us < c.min_us) c.min_us = us;
    if (us > c.max_us) c.max_us = us;
    ++c.buckets[bucket_of(us)];
    if (us >= budget_us_) {
      ++slow_events_;
      if (on_slow_) {
        on_slow_(tag < kCenterCount ? static_cast<Center>(tag)
                                    : Center::unattributed,
                 us);
      }
    }
  }

  // -- configuration ----------------------------------------------------

  void enable_wall(bool on = true) noexcept { wall_enabled_ = on; }
  /// Slow-event watchdog budget; events at or beyond it bump
  /// `slow_events` and invoke the handler (wall plane only).
  void set_slow_budget_us(std::uint64_t us) noexcept { budget_us_ = us; }
  std::uint64_t slow_budget_us() const noexcept { return budget_us_; }
  /// Called inline from the dispatching thread for every slow event —
  /// keep it cheap and shard-safe (in sharded worlds it runs on worker
  /// threads; only attach one where the profiled kernel is single-
  /// threaded, e.g. chaos_soak's trace-event + flight-recorder hook).
  void set_on_slow(std::function<void(Center, std::uint64_t)> fn) {
    on_slow_ = std::move(fn);
  }

  // -- readout ----------------------------------------------------------

  const CenterCost& cost(Center c) const noexcept {
    return cost_[static_cast<std::size_t>(c)];
  }
  std::uint64_t events_total() const noexcept;
  std::uint64_t slow_events() const noexcept { return slow_events_; }

  /// Adds another profiler's attribution (associative + commutative —
  /// cross-shard merges are order-independent). Published cursors are
  /// untouched; merge into a fresh profiler for reports.
  void merge_from(const EventProfiler& other) noexcept;

  /// Publishes per-center dispatch counts as `prof.<center>.events`
  /// counters, as deltas since the last publish (so several shards'
  /// profilers publish into one registry and the counters sum). Only
  /// centers that have seen events register — deterministic, since the
  /// counts themselves are. Safe inside byte-compared dumps.
  void publish_events(Registry& registry);

  /// Publishes wall-cost histograms `prof.<center>.wall_us` and the
  /// `prof.slow_events` counter, as deltas. Wall-clock data: callers own
  /// keeping this OUT of byte-compared dumps (opt-in wall plane only).
  void publish_wall(Registry& registry);

 private:
  CenterCost& cost_at(std::uint8_t tag) noexcept {
    return cost_[tag < kCenterCount ? tag : 0];
  }
  static std::size_t bucket_of(std::uint64_t us) noexcept {
    std::size_t b = 0;
    while (b < kWallBoundsUs.size() && us > kWallBoundsUs[b]) ++b;
    return b;
  }

  struct Published {
    std::uint64_t events = 0;
    std::uint64_t wall_count = 0;
    std::uint64_t wall_us = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };

  std::array<CenterCost, kCenterCount> cost_{};
  std::array<Published, kCenterCount> published_{};
  std::uint64_t slow_events_ = 0;
  std::uint64_t published_slow_ = 0;
  std::uint64_t budget_us_ = 50'000;
  bool wall_enabled_ = false;
  std::function<void(Center, std::uint64_t)> on_slow_;
  std::chrono::steady_clock::time_point epoch_;
};

// ---------------------------------------------------------------------------
// Folded (collapsed-stack) profiles.

/// stack -> sample count; stack is "thread;center;center". A std::map so
/// rendering is canonically ordered — equal profiles render byte-equal.
using FoldedProfile = std::map<std::string, std::uint64_t>;

/// Parses folded text (one "stack count" line each; blank lines ignored).
/// Duplicate stacks accumulate. Malformed lines, and counts that do not
/// fit 64 bits, are an error.
Result<FoldedProfile> parse_folded(const std::string& text);

/// Adds `more`'s counts into `into` — the fleet/cross-shard merge.
/// Associative and commutative, so scrape order never matters; `more` may
/// be `into` itself. Sums saturate at 2^64-1 rather than wrap.
void merge_folded(FoldedProfile& into, const FoldedProfile& more);

/// Renders one "stack count\n" line per entry, in map (stack) order.
std::string render_folded(const FoldedProfile& profile);

// ---------------------------------------------------------------------------
// Mode 2: the sampling profiler.

struct WallProfilerConfig {
  /// Sampling period. 10 ms ≈ 100 Hz — cheap enough to leave on.
  std::uint64_t interval_us = 10'000;
  /// Samples retained per thread (ring; oldest overwritten). 8192 at
  /// 100 Hz ≈ the last 82 s per thread.
  std::size_t ring_capacity = 8192;
};

/// Samples registered threads' span stacks into per-thread rings.
///
/// Threads register themselves (register_thread binds the CALLING
/// thread's span stack) and must either outlive the profiler or
/// unregister before exiting — unregister folds the thread's ring into a
/// retired aggregate so its samples survive (ShardedKernel workers do
/// this on shutdown). sample_once() is the deterministic test hook; in
/// production start() runs it from a background thread every interval.
class WallProfiler {
 public:
  explicit WallProfiler(WallProfilerConfig config = {});
  ~WallProfiler();
  WallProfiler(const WallProfiler&) = delete;
  WallProfiler& operator=(const WallProfiler&) = delete;

  /// Registers the calling thread under `name` (the folded stack root).
  void register_thread(std::string name);
  /// Unregisters the calling thread, folding its samples into the
  /// retired aggregate. No-op if it never registered.
  void unregister_thread();

  /// Starts/stops the sampler thread. Idempotent.
  void start();
  void stop();
  bool running() const noexcept { return sampler_.joinable(); }

  /// Takes one sample of every registered thread now. Allocation-free.
  void sample_once();

  std::uint64_t samples_taken() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }
  std::size_t threads_registered() const;

  /// Collapses every ring (plus retired threads) into a folded profile.
  FoldedProfile folded() const;
  std::string to_folded() const { return render_folded(folded()); }

 private:
  struct Sample {
    std::uint8_t depth = 0;
    std::array<std::uint8_t, SpanStack::kMaxDepth> frames{};
  };
  struct ThreadRec {
    std::string name;
    std::thread::id tid;
    SpanStack* stack = nullptr;
    std::vector<Sample> ring;  // capacity fixed at registration
    std::size_t pos = 0;
    std::uint64_t taken = 0;
  };

  void fold_ring(const ThreadRec& rec, FoldedProfile& into) const;
  void sampler_loop();
  void sample_locked();

  WallProfilerConfig config_;
  mutable std::mutex mu_;  // guards threads_, retired_ and the rings
  std::vector<std::unique_ptr<ThreadRec>> threads_;
  FoldedProfile retired_;
  std::atomic<std::uint64_t> samples_{0};
  std::thread sampler_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
};

/// Appends `profiler`'s folded profile to the file named by the
/// PH_PROF_FOLDED environment variable, if set (append: several daemons
/// or runs may share one output; flamegraph tools sum duplicate stacks).
void dump_folded_if_requested(const WallProfiler& profiler);

}  // namespace prof
}  // namespace ph::obs
