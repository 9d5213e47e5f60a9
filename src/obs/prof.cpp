#include "obs/prof.hpp"

#include <cstdlib>
#include <fstream>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace ph::obs::prof {

const char* center_name(Center c) noexcept {
  switch (c) {
    case Center::unattributed: return "unattributed";
    case Center::sim_kernel: return "sim.kernel";
    case Center::obs_sample: return "obs.sample";
    case Center::parallel_window: return "parallel.window";
    case Center::parallel_merge: return "parallel.merge";
    case Center::parallel_barrier: return "parallel.barrier";
    case Center::net_delivery: return "net.delivery";
    case Center::net_inquiry: return "net.inquiry";
    case Center::net_link: return "net.link";
    case Center::net_fault: return "net.fault";
    case Center::peerhood_discovery: return "peerhood.discovery";
    case Center::peerhood_query: return "peerhood.query";
    case Center::peerhood_ping: return "peerhood.ping";
    case Center::peerhood_session: return "peerhood.session";
    case Center::community_rpc: return "community.rpc";
    case Center::sns_task: return "sns.task";
    case Center::world_scan: return "world.scan";
    case Center::world_frame: return "world.frame";
    case Center::transport_io: return "transport.io";
    case Center::transport_idle: return "transport.idle";
    case Center::transport_telemetry: return "transport.telemetry";
    case Center::kCount: break;
  }
  return "unattributed";
}

const std::vector<double>& wall_cost_bounds_us() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    b.reserve(kWallBoundsUs.size());
    for (const std::uint64_t u : kWallBoundsUs) {
      b.push_back(static_cast<double>(u));
    }
    return b;
  }();
  return bounds;
}

// ---------------------------------------------------------------------------
// EventProfiler

EventProfiler::EventProfiler() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t EventProfiler::now_us() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint64_t EventProfiler::events_total() const noexcept {
  std::uint64_t total = 0;
  for (const CenterCost& c : cost_) total += c.events;
  return total;
}

void EventProfiler::merge_from(const EventProfiler& other) noexcept {
  for (std::size_t i = 0; i < kCenterCount; ++i) {
    CenterCost& into = cost_[i];
    const CenterCost& from = other.cost_[i];
    into.events += from.events;
    into.wall_count += from.wall_count;
    into.wall_us += from.wall_us;
    if (from.wall_count > 0) {
      if (from.min_us < into.min_us) into.min_us = from.min_us;
      if (from.max_us > into.max_us) into.max_us = from.max_us;
    }
    for (std::size_t b = 0; b < kBuckets; ++b) {
      into.buckets[b] += from.buckets[b];
    }
  }
  slow_events_ += other.slow_events_;
}

void EventProfiler::publish_events(Registry& registry) {
  for (std::size_t i = 0; i < kCenterCount; ++i) {
    const std::uint64_t events = cost_[i].events;
    if (events == 0) continue;  // never dispatched: stay unregistered
    registry
        .counter(std::string("prof.") +
                 center_name(static_cast<Center>(i)) + ".events")
        .inc(events - published_[i].events);
    published_[i].events = events;
  }
}

void EventProfiler::publish_wall(Registry& registry) {
  for (std::size_t i = 0; i < kCenterCount; ++i) {
    const CenterCost& c = cost_[i];
    Published& pub = published_[i];
    if (c.wall_count == pub.wall_count) continue;
    Histogram& hist = registry.histogram(
        std::string("prof.") + center_name(static_cast<Center>(i)) +
            ".wall_us",
        wall_cost_bounds_us());
    std::array<std::uint64_t, kBuckets> delta{};
    for (std::size_t b = 0; b < kBuckets; ++b) {
      delta[b] = c.buckets[b] - pub.buckets[b];
    }
    hist.merge_buckets(delta.data(), kBuckets, c.wall_count - pub.wall_count,
                       static_cast<double>(c.wall_us - pub.wall_us),
                       static_cast<double>(c.min_us),
                       static_cast<double>(c.max_us));
    pub.wall_count = c.wall_count;
    pub.wall_us = c.wall_us;
    pub.buckets = c.buckets;
  }
  registry.counter("prof.slow_events").inc(slow_events_ - published_slow_);
  published_slow_ = slow_events_;
}

// ---------------------------------------------------------------------------
// Folded profiles

namespace {

/// Adds sample counts without wrapping: a sum past 2^64-1 stays there.
std::uint64_t add_counts(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  return a > kMax - b ? kMax : a + b;
}

}  // namespace

Result<FoldedProfile> parse_folded(const std::string& text) {
  FoldedProfile profile;
  std::size_t pos = 0;
  std::size_t lineno = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    ++lineno;
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t space = line.find_last_of(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 == line.size()) {
      return Error{Errc::invalid_argument,
                   "folded line " + std::to_string(lineno) +
                       ": expected 'stack count', got '" + line + "'"};
    }
    const std::string stack = line.substr(0, space);
    const std::string digits = line.substr(space + 1);
    std::uint64_t count = 0;
    for (const char ch : digits) {
      if (ch < '0' || ch > '9') {
        return Error{Errc::invalid_argument,
                     "folded line " + std::to_string(lineno) +
                         ": count is not a number: '" + digits + "'"};
      }
      const auto digit = static_cast<std::uint64_t>(ch - '0');
      if (count > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        return Error{Errc::invalid_argument,
                     "folded line " + std::to_string(lineno) +
                         ": count overflows 64 bits: '" + digits + "'"};
      }
      count = count * 10 + digit;
    }
    if (count == 0) {
      return Error{Errc::invalid_argument,
                   "folded line " + std::to_string(lineno) +
                       ": zero sample count"};
    }
    if (stack.front() == ';' || stack.back() == ';' ||
        stack.find(";;") != std::string::npos ||
        stack.find(' ') != std::string::npos) {
      return Error{Errc::invalid_argument,
                   "folded line " + std::to_string(lineno) +
                       ": malformed stack '" + stack + "'"};
    }
    std::uint64_t& total = profile[stack];
    total = add_counts(total, count);
  }
  return profile;
}

void merge_folded(FoldedProfile& into, const FoldedProfile& more) {
  for (const auto& [stack, count] : more) {
    std::uint64_t& total = into[stack];
    total = add_counts(total, count);
  }
}

std::string render_folded(const FoldedProfile& profile) {
  std::string out;
  for (const auto& [stack, count] : profile) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// WallProfiler

WallProfiler::WallProfiler(WallProfilerConfig config) : config_(config) {
  PH_CHECK(config_.ring_capacity > 0);
  if (config_.interval_us == 0) config_.interval_us = 1;
}

WallProfiler::~WallProfiler() { stop(); }

void WallProfiler::register_thread(std::string name) {
  auto rec = std::make_unique<ThreadRec>();
  rec->name = std::move(name);
  rec->tid = std::this_thread::get_id();
  rec->stack = &thread_span_stack();
  rec->ring.resize(config_.ring_capacity);
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::move(rec));
}

void WallProfiler::unregister_thread() {
  const std::thread::id tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = threads_.begin(); it != threads_.end(); ++it) {
    if ((*it)->tid == tid) {
      fold_ring(**it, retired_);
      threads_.erase(it);
      return;
    }
  }
}

void WallProfiler::start() {
  if (sampler_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }
  sampler_ = std::thread([this] { sampler_loop(); });
}

void WallProfiler::stop() {
  if (!sampler_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  sampler_.join();
}

void WallProfiler::sampler_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::microseconds(config_.interval_us),
                     [this] { return stop_; })) {
      return;
    }
    // Holding mu_ here is by design: registration and folded() are rare
    // and cheap, and the sample itself is a bounded memcpy per thread.
    sample_locked();
  }
}

void WallProfiler::sample_locked() {
  for (const auto& rec : threads_) {
    Sample& sample = rec->ring[rec->pos];
    std::uint32_t depth = rec->stack->depth.load(std::memory_order_acquire);
    if (depth > SpanStack::kMaxDepth) depth = SpanStack::kMaxDepth;
    sample.depth = static_cast<std::uint8_t>(depth);
    for (std::uint32_t d = 0; d < depth; ++d) {
      sample.frames[d] = rec->stack->frames[d].load(std::memory_order_relaxed);
    }
    rec->pos = (rec->pos + 1) % rec->ring.size();
    ++rec->taken;
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
}

void WallProfiler::sample_once() {
  std::lock_guard<std::mutex> lock(mu_);
  sample_locked();
}

std::size_t WallProfiler::threads_registered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

void WallProfiler::fold_ring(const ThreadRec& rec, FoldedProfile& into) const {
  const std::size_t n =
      rec.taken < rec.ring.size() ? static_cast<std::size_t>(rec.taken)
                                  : rec.ring.size();
  std::string key;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& sample = rec.ring[i];
    key = rec.name;
    for (std::uint8_t d = 0; d < sample.depth; ++d) {
      key += ';';
      key += center_name(sample.frames[d]);
    }
    ++into[key];
  }
}

FoldedProfile WallProfiler::folded() const {
  std::lock_guard<std::mutex> lock(mu_);
  FoldedProfile profile = retired_;
  for (const auto& rec : threads_) fold_ring(*rec, profile);
  return profile;
}

void dump_folded_if_requested(const WallProfiler& profiler) {
  const char* path = std::getenv("PH_PROF_FOLDED");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path, std::ios::app);
  out << profiler.to_folded();
}

}  // namespace ph::obs::prof
