// Virtual-time metric sampling — the time-series half of ph::obs.
//
// A Registry snapshot is a single end-of-run number per instrument; a run
// that degrades half-way through (a fault-plane outage, a congested radio)
// looks identical to a healthy one. The Sampler closes that gap: scraped at
// a fixed *virtual* interval (schedule it with sim::Simulator::
// schedule_periodic), it diffs successive instrument states into
// ring-buffered per-metric TimeSeries —
//
//   counters   -> `<name>.rate`  events/second over the interval
//   gauges     -> `<name>`       last value at the sample instant
//   histograms -> `<name>.rate`  observations/second over the interval
//                 `<name>.p50/.p95/.p99`
//                                per-interval quantiles from the bucket
//                                diff (only when the interval saw samples)
//
// The design borrows Monarch's windowed in-memory series and Dapper's
// always-on/low-overhead discipline: every ring is allocated once when its
// metric first appears (O(series) allocation for a whole run, never
// O(samples x metrics) — tests assert this via allocations()), a sample
// does no allocation at steady state, and a Sampler that is disabled or
// simply never constructed costs the instrumented code nothing (sampling
// is pull-based; layers never see the sampler).
//
// A scrape does each piece of work once. Cursors are bound to instruments
// in flat name-ordered vectors and rebound only when the Registry's
// generation() moves, so a steady-state scrape looks up no name. Rate and
// gauge series, pushed on every scrape, store values only and share one
// stamp ring; quantile series skip empty intervals and keep their own
// stamps. The allocation guarantee stays allocations() == series().size().
//
// Like the Trace, the Sampler takes explicit TimePoint stamps so obs does
// not depend on the simulator. All state is deterministic: same seed, same
// scrape schedule => byte-identical series dumps. A Sampler may instead be
// constructed over an obs::Clock (virtual FnClock or monotonic WallClock)
// and scraped with the argless sample() — the stamps then come from the
// clock, and nothing else about the diffing changes, so a FnClock over the
// simulator reproduces the explicit-stamp path byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"  // TimePoint
#include "util/arena.hpp"
#include "util/check.hpp"

namespace ph::obs {

class Clock;

/// One sample of one series, stamped with virtual time.
struct SeriesPoint {
  TimePoint at = 0;
  double value = 0.0;
};

/// What a series' values mean (serialized into the JSON dump).
enum class SeriesKind {
  counter_rate,  ///< counter delta / interval, per second
  gauge,         ///< gauge value at the sample instant
  hist_rate,     ///< histogram count delta / interval, per second
  hist_p50,      ///< per-interval quantiles of the bucket diff
  hist_p95,
  hist_p99,
};

const char* to_string(SeriesKind kind);

namespace detail {

/// Slot arithmetic of a fixed-capacity ring, oldest first. Wraps with a
/// compare, not `%`.
struct RingIndex {
  std::size_t cap = 0;
  std::size_t head = 0;  ///< slot of the oldest element
  std::size_t size = 0;
  std::uint64_t total = 0;  ///< elements ever pushed

  /// Slot of the i-th oldest element; i <= size.
  std::size_t slot(std::size_t i) const noexcept {
    const std::size_t s = head + i;
    return s < cap ? s : s - cap;
  }
  /// Claims the slot of a new newest element, evicting the oldest when
  /// the ring is full.
  std::size_t push() noexcept {
    const std::size_t s = slot(size);
    if (size < cap) {
      ++size;
    } else {
      head = head + 1 < cap ? head + 1 : 0;
    }
    ++total;
    return s;
  }
};

/// The stamps of every scrape a Sampler took, in a ring of the same
/// capacity as its series. A series pushed on every scrape since it was
/// born stores only values, each in the slot of its scrape's stamp.
struct StampRing {
  RingIndex index;
  TimePoint* at = nullptr;
};

}  // namespace detail

/// Fixed-capacity ring of SeriesPoints, oldest evicted first. The backing
/// store is fixed at construction and never grows — either a vector the
/// series owns (standalone use, tests) or a caller-provided slab (the
/// Sampler carves all its rings out of one epoch arena, so a whole run's
/// series storage is a handful of chunk allocations instead of one heap
/// block per metric). A Sampler's every-scrape series (counter and
/// histogram rates, gauges) hold values only and read their stamps from
/// the Sampler's stamp ring; quantile series skip empty intervals and
/// keep their own stamps. Readers see the same points either way.
class TimeSeries {
 public:
  /// Self-owning ring (allocates its own storage).
  TimeSeries(SeriesKind kind, std::size_t capacity);
  /// External storage: `storage[0..capacity)` must outlive the series.
  TimeSeries(SeriesKind kind, SeriesPoint* storage, std::size_t capacity);

  TimeSeries(TimeSeries&& other) noexcept;
  TimeSeries& operator=(TimeSeries&& other) noexcept;

  SeriesKind kind() const noexcept { return kind_; }
  std::size_t capacity() const noexcept { return ring_.cap; }
  /// Points currently retained (<= capacity).
  std::size_t size() const noexcept { return ring_.size; }
  bool empty() const noexcept { return ring_.size == 0; }
  /// Oldest-first access; i must be < size().
  SeriesPoint at(std::size_t i) const {
    PH_CHECK_MSG(i < ring_.size, "time series index out of range");
    if (stamps_ == nullptr) return points_[ring_.slot(i)];
    // A shared-stamp series' points are the newest size() scrapes.
    const std::size_t s =
        stamps_->index.slot(stamps_->index.size - ring_.size + i);
    return SeriesPoint{stamps_->at[s], values_[s]};
  }
  SeriesPoint back() const { return at(ring_.size - 1); }
  /// Points ever pushed (evicted ones included).
  std::uint64_t total_points() const noexcept { return ring_.total; }
  std::uint64_t evicted() const noexcept { return ring_.total - ring_.size; }

  /// Own-stamp series only (aborts on a Sampler's shared-stamp series).
  void push(TimePoint at, double value);

 private:
  friend class Sampler;
  /// Shared-stamp series: `values[0..stamps.index.cap)` must outlive it.
  TimeSeries(SeriesKind kind, double* values, const detail::StampRing& stamps);
  /// Stores `value` in the slot of the newest stamp, which the Sampler
  /// pushed for this scrape.
  void push_value(double value) {
    values_[stamps_->index.slot(stamps_->index.size - 1)] = value;
    if (ring_.size < ring_.cap) ++ring_.size;
    ++ring_.total;
  }

  SeriesKind kind_;
  std::vector<SeriesPoint> own_;  // empty when the storage is external
  SeriesPoint* points_ = nullptr;  // own-stamp storage
  double* values_ = nullptr;       // shared-stamp storage
  const detail::StampRing* stamps_ = nullptr;
  /// Own-stamp series use every field; shared-stamp ones only size/total
  /// (their slots are the stamp ring's).
  detail::RingIndex ring_;
};

/// Per-interval quantile over a bucket-count *delta*: linear interpolation
/// inside the bucket containing the requested rank. The first bucket spans
/// (0, bounds[0]]; the overflow bucket clamps to the last bound (its true
/// extent is unknown from a diff). Returns 0 when `total` is 0.
double quantile_from_bucket_delta(const std::vector<double>& bounds,
                                  const std::vector<std::uint64_t>& delta,
                                  std::uint64_t total, double q);

struct SamplerConfig {
  /// Nominal scrape interval in virtual microseconds. Informational (the
  /// caller owns the actual schedule); serialized into dumps and used as
  /// the fallback elapsed time for the very first sample.
  std::uint64_t interval_us = 100'000;
  /// Ring capacity per series, in points.
  std::size_t capacity = 1024;
};

/// Scrapes a Registry into per-metric TimeSeries. Call sample(now) at a
/// fixed virtual interval; metrics registered after sampling started are
/// picked up on their first scrape (their series simply start later).
///
/// A scrape is a linear walk: the sampler binds one cursor per instrument
/// into flat vectors in name order, and binds again only when the
/// registry's generation() shows that instruments were created since.
class Sampler {
 public:
  explicit Sampler(const Registry& registry, SamplerConfig config = {});
  /// Clockful form: sample() with no argument stamps from `clock`, which
  /// must outlive the sampler. The explicit sample(now) overload remains
  /// available and behaves identically.
  Sampler(const Registry& registry, const Clock& clock,
          SamplerConfig config = {});
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// A disabled sampler's sample() is a no-op (cheap soak-mode switch).
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  const SamplerConfig& config() const noexcept { return config_; }

  /// Scrapes every instrument once. `now` must be monotonically
  /// non-decreasing across calls; a repeated timestamp is ignored (the
  /// interval would be empty).
  void sample(TimePoint now);

  /// Clockful scrape: stamps from the attached Clock. Aborts when the
  /// sampler was constructed without one.
  void sample();

  /// The attached clock, or nullptr for an explicit-stamp sampler.
  const Clock* clock() const noexcept { return clock_; }

  /// All series, sorted by name. A series' address is stable for the
  /// sampler's lifetime.
  const std::map<std::string, TimeSeries>& series() const noexcept {
    return series_;
  }
  const TimeSeries* find(const std::string& name) const;

  std::uint64_t samples_taken() const noexcept { return samples_; }
  /// Ring buffers ever allocated == series ever created. The O(series)
  /// allocation guarantee is `allocations() == series().size()` no matter
  /// how many samples were taken (the one shared stamp ring, made on the
  /// first scrape, is not a series and is not counted).
  std::uint64_t allocations() const noexcept { return allocations_; }
  TimePoint last_sample_at() const noexcept { return last_at_; }

 private:
  /// Diff state for one counter/histogram between scrapes; a gauge's
  /// cursor only names its series (last-value semantics). `source` is the
  /// bound instrument.
  struct CounterCursor {
    const Counter* source = nullptr;
    std::uint64_t last = 0;
    TimeSeries* rate = nullptr;
  };
  struct GaugeCursor {
    const Gauge* source = nullptr;
    TimeSeries* series = nullptr;
  };
  struct HistCursor {
    const Histogram* source = nullptr;
    std::vector<std::uint64_t> last_buckets;  // sized once, overwritten
    std::vector<std::uint64_t> delta;         // scratch, sized once
    TimeSeries* rate = nullptr;
    TimeSeries* p50 = nullptr;
    TimeSeries* p95 = nullptr;
    TimeSeries* p99 = nullptr;
  };

  /// Brings the cursor vectors up to the registry's generation.
  void bind();
  TimeSeries* make_series(const std::string& name, SeriesKind kind);

  const Registry& registry_;
  const Clock* clock_ = nullptr;
  SamplerConfig config_;
  /// Backing store for every series ring; must be declared before series_
  /// so the rings' storage outlives them on destruction.
  util::Arena arena_;
  bool enabled_ = true;
  std::uint64_t samples_ = 0;
  std::uint64_t allocations_ = 0;
  TimePoint last_at_ = 0;
  bool sampled_once_ = false;
  detail::StampRing stamps_;
  std::map<std::string, TimeSeries> series_;
  /// Registry generation the cursors were bound at; an empty registry is
  /// generation 0 and needs no cursors.
  std::uint64_t bound_generation_ = 0;
  std::vector<CounterCursor> counters_;
  std::vector<GaugeCursor> gauges_;
  std::vector<HistCursor> hists_;
};

}  // namespace ph::obs
