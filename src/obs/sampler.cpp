#include "obs/sampler.hpp"

#include <algorithm>

#include "obs/clock.hpp"
#include "util/check.hpp"

namespace ph::obs {

const char* to_string(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::counter_rate: return "counter_rate";
    case SeriesKind::gauge: return "gauge";
    case SeriesKind::hist_rate: return "hist_rate";
    case SeriesKind::hist_p50: return "hist_p50";
    case SeriesKind::hist_p95: return "hist_p95";
    case SeriesKind::hist_p99: return "hist_p99";
  }
  return "unknown";
}

TimeSeries::TimeSeries(SeriesKind kind, std::size_t capacity) : kind_(kind) {
  PH_CHECK_MSG(capacity > 0, "time series needs a non-zero ring capacity");
  own_.resize(capacity);  // the one allocation this series ever makes
  points_ = own_.data();
  ring_.cap = capacity;
}

TimeSeries::TimeSeries(SeriesKind kind, SeriesPoint* storage,
                       std::size_t capacity)
    : kind_(kind), points_(storage) {
  PH_CHECK_MSG(capacity > 0, "time series needs a non-zero ring capacity");
  PH_CHECK_MSG(storage != nullptr, "external time-series storage is null");
  ring_.cap = capacity;
}

TimeSeries::TimeSeries(SeriesKind kind, double* values,
                       const detail::StampRing& stamps)
    : kind_(kind), values_(values), stamps_(&stamps) {
  ring_.cap = stamps.index.cap;
}

TimeSeries::TimeSeries(TimeSeries&& other) noexcept
    : kind_(other.kind_),
      own_(std::move(other.own_)),
      // A moved vector keeps its buffer address, but points_ must
      // re-anchor to *this* object's vector in the self-owning case.
      points_(own_.empty() ? other.points_ : own_.data()),
      values_(other.values_),
      stamps_(other.stamps_),
      ring_(other.ring_) {}

TimeSeries& TimeSeries::operator=(TimeSeries&& other) noexcept {
  if (this != &other) {
    kind_ = other.kind_;
    own_ = std::move(other.own_);
    points_ = own_.empty() ? other.points_ : own_.data();
    values_ = other.values_;
    stamps_ = other.stamps_;
    ring_ = other.ring_;
  }
  return *this;
}

void TimeSeries::push(TimePoint at, double value) {
  PH_CHECK_MSG(stamps_ == nullptr,
               "a shared-stamp series is pushed only by its Sampler");
  points_[ring_.push()] = SeriesPoint{at, value};
}

double quantile_from_bucket_delta(const std::vector<double>& bounds,
                                  const std::vector<std::uint64_t>& delta,
                                  std::uint64_t total, double q) {
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    const double below = static_cast<double>(cumulative);
    cumulative += delta[i];
    if (static_cast<double>(cumulative) < rank) continue;
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    const double fraction = (rank - below) / static_cast<double>(delta[i]);
    return lo + fraction * (hi - lo);
  }
  // Every occupied bucket was below the rank (can't happen when the delta
  // sums to `total`, but stay defensive): the distribution's upper edge.
  return bounds.back();
}

Sampler::Sampler(const Registry& registry, SamplerConfig config)
    : registry_(registry), config_(config) {
  PH_CHECK_MSG(config_.interval_us > 0, "sampler interval must be positive");
  PH_CHECK_MSG(config_.capacity > 0, "sampler ring capacity must be positive");
}

Sampler::Sampler(const Registry& registry, const Clock& clock,
                 SamplerConfig config)
    : Sampler(registry, config) {
  clock_ = &clock;
}

void Sampler::sample() {
  PH_CHECK_MSG(clock_ != nullptr,
               "argless sample() needs a clockful Sampler (Clock ctor)");
  sample(clock_->now());
}

TimeSeries* Sampler::make_series(const std::string& name, SeriesKind kind) {
  // Rings live in the sampler's arena: one bump per series, a handful of
  // chunk mallocs per run, and the points sit contiguously — dump code
  // walks them cache-linearly. Quantile series skip empty intervals, so
  // they keep their own stamps; every other series is pushed on every
  // scrape and reads its stamps from the shared ring.
  const bool own_stamps = kind == SeriesKind::hist_p50 ||
                          kind == SeriesKind::hist_p95 ||
                          kind == SeriesKind::hist_p99;
  const auto [it, inserted] =
      own_stamps
          ? series_.try_emplace(
                name, kind,
                arena_.allocate_array<SeriesPoint>(config_.capacity),
                config_.capacity)
          : series_.try_emplace(name,
                                TimeSeries(kind,
                                           arena_.allocate_array<double>(
                                               config_.capacity),
                                           stamps_));
  // Two instruments whose series names collide (a counter `x` and a gauge
  // `x.rate`) would push one ring twice per scrape.
  PH_CHECK_MSG(inserted, name.c_str());
  ++allocations_;
  return &it->second;
}

const TimeSeries* Sampler::find(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

namespace {

/// Rebinds `cursors` to `instruments`. Instruments are never removed and
/// both sequences are in name order, so the bound cursors are a
/// subsequence of the registry's map: one merge keeps every bound cursor's
/// diff state and makes a cursor for each new instrument.
template <class Cursor, class Instruments, class Make>
void rebind(std::vector<Cursor>& cursors, const Instruments& instruments,
            Make make) {
  if (cursors.size() == instruments.size()) return;
  std::vector<Cursor> bound;
  bound.reserve(instruments.size());
  std::size_t next = 0;
  for (const auto& [name, instrument] : instruments) {
    if (next < cursors.size() && cursors[next].source == instrument.get()) {
      bound.push_back(std::move(cursors[next++]));
    } else {
      bound.push_back(make(name, *instrument));
    }
  }
  cursors = std::move(bound);
}

}  // namespace

void Sampler::bind() {
  rebind(counters_, registry_.counters(),
         [this](const std::string& name, const Counter& counter) {
           return CounterCursor{
               &counter, 0, make_series(name + ".rate",
                                        SeriesKind::counter_rate)};
         });
  rebind(gauges_, registry_.gauges(),
         [this](const std::string& name, const Gauge& gauge) {
           return GaugeCursor{&gauge, make_series(name, SeriesKind::gauge)};
         });
  rebind(hists_, registry_.histograms(),
         [this](const std::string& name, const Histogram& hist) {
           HistCursor fresh;
           fresh.source = &hist;
           fresh.last_buckets.assign(hist.bucket_counts().size(), 0);
           fresh.delta.assign(hist.bucket_counts().size(), 0);
           fresh.rate = make_series(name + ".rate", SeriesKind::hist_rate);
           fresh.p50 = make_series(name + ".p50", SeriesKind::hist_p50);
           fresh.p95 = make_series(name + ".p95", SeriesKind::hist_p95);
           fresh.p99 = make_series(name + ".p99", SeriesKind::hist_p99);
           return fresh;
         });
  bound_generation_ = registry_.generation();
}

void Sampler::sample(TimePoint now) {
  if (!enabled_) return;
  if (sampled_once_ && now <= last_at_) return;  // empty or reversed interval
  // Elapsed virtual time the deltas cover. Registry counters start at zero
  // when created, so the first scrape's delta-from-zero is the metric's
  // true activity since it appeared — late-registered metrics need no
  // special case beyond the elapsed fallback.
  std::uint64_t elapsed = sampled_once_ ? now - last_at_ : now;
  if (elapsed == 0) elapsed = config_.interval_us;
  const double per_second = 1e6 / static_cast<double>(elapsed);

  // The stamp goes first: every-scrape series store this scrape's value
  // in its slot.
  if (stamps_.at == nullptr) {
    stamps_.at = arena_.allocate_array<TimePoint>(config_.capacity);
    stamps_.index.cap = config_.capacity;
  }
  stamps_.at[stamps_.index.push()] = now;
  if (registry_.generation() != bound_generation_) bind();

  for (CounterCursor& cursor : counters_) {
    const std::uint64_t value = cursor.source->value();
    // Counters are monotonic by contract; clamp defensively so a wrapped
    // or externally reset counter yields a zero rate, not a huge one.
    const std::uint64_t delta = value >= cursor.last ? value - cursor.last : 0;
    cursor.last = value;
    cursor.rate->push_value(static_cast<double>(delta) * per_second);
  }

  for (GaugeCursor& cursor : gauges_) {
    cursor.series->push_value(cursor.source->value());
  }

  for (HistCursor& cursor : hists_) {
    const std::vector<std::uint64_t>& buckets = cursor.source->bucket_counts();
    std::uint64_t delta_count = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const std::uint64_t d = buckets[i] >= cursor.last_buckets[i]
                                  ? buckets[i] - cursor.last_buckets[i]
                                  : 0;
      cursor.delta[i] = d;
      cursor.last_buckets[i] = buckets[i];
      delta_count += d;
    }
    cursor.rate->push_value(static_cast<double>(delta_count) * per_second);
    // Quantile points only for intervals that saw observations: an empty
    // interval has no distribution, and a synthetic zero would poison
    // windowed SLO aggregates.
    if (delta_count > 0) {
      const std::vector<double>& bounds = cursor.source->bounds();
      cursor.p50->push(now, quantile_from_bucket_delta(bounds, cursor.delta,
                                                       delta_count, 0.50));
      cursor.p95->push(now, quantile_from_bucket_delta(bounds, cursor.delta,
                                                       delta_count, 0.95));
      cursor.p99->push(now, quantile_from_bucket_delta(bounds, cursor.delta,
                                                       delta_count, 0.99));
    }
  }

  last_at_ = now;
  sampled_once_ = true;
  ++samples_;
}

}  // namespace ph::obs
