// Test-only oracle for obs::Sampler: the scrape as it was before the
// Sampler bound its cursors. Every scrape walks the registry's maps and
// finds each instrument's cursor and series by name, and every series is a
// plain deque of stamped points capped at the ring capacity. A bound
// Sampler driven in lockstep with it must hold the same series, point for
// point and stamp for stamp.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace ph::obs::testing {

class ReferenceSampler {
 public:
  struct Series {
    SeriesKind kind = SeriesKind::gauge;
    std::deque<SeriesPoint> points;  // oldest first, at most capacity
    std::uint64_t total = 0;         // points ever pushed
  };

  ReferenceSampler(const Registry& registry, SamplerConfig config)
      : registry_(registry), config_(config) {}

  const std::map<std::string, Series>& series() const { return series_; }

  void sample(TimePoint now) {
    if (sampled_once_ && now <= last_at_) return;
    std::uint64_t elapsed = sampled_once_ ? now - last_at_ : now;
    if (elapsed == 0) elapsed = config_.interval_us;
    const double per_second = 1e6 / static_cast<double>(elapsed);

    for (const auto& [name, counter] : registry_.counters()) {
      auto it = counter_last_.find(name);
      if (it == counter_last_.end()) {
        it = counter_last_.emplace(name, 0).first;
      }
      const std::uint64_t value = counter->value();
      const std::uint64_t delta = value >= it->second ? value - it->second : 0;
      it->second = value;
      push(name + ".rate", SeriesKind::counter_rate, now,
           static_cast<double>(delta) * per_second);
    }
    for (const auto& [name, gauge] : registry_.gauges()) {
      push(name, SeriesKind::gauge, now, gauge->value());
    }
    for (const auto& [name, hist] : registry_.histograms()) {
      auto it = hist_last_.find(name);
      if (it == hist_last_.end()) {
        it = hist_last_
                 .emplace(name, std::vector<std::uint64_t>(
                                    hist->bucket_counts().size(), 0))
                 .first;
      }
      std::vector<std::uint64_t>& last = it->second;
      std::vector<std::uint64_t> delta(last.size(), 0);
      std::uint64_t delta_count = 0;
      for (std::size_t i = 0; i < last.size(); ++i) {
        const std::uint64_t b = hist->bucket_counts()[i];
        delta[i] = b >= last[i] ? b - last[i] : 0;
        last[i] = b;
        delta_count += delta[i];
      }
      push(name + ".rate", SeriesKind::hist_rate, now,
           static_cast<double>(delta_count) * per_second);
      // The quantile series exist from the histogram's first scrape on,
      // empty until an interval sees observations.
      const std::vector<double>& bounds = hist->bounds();
      const struct {
        const char* suffix;
        SeriesKind kind;
        double q;
      } quantiles[] = {{".p50", SeriesKind::hist_p50, 0.50},
                       {".p95", SeriesKind::hist_p95, 0.95},
                       {".p99", SeriesKind::hist_p99, 0.99}};
      for (const auto& quantile : quantiles) {
        Series& series = series_[name + quantile.suffix];
        series.kind = quantile.kind;
        if (delta_count > 0) {
          push(name + quantile.suffix, quantile.kind, now,
               quantile_from_bucket_delta(bounds, delta, delta_count,
                                          quantile.q));
        }
      }
    }
    last_at_ = now;
    sampled_once_ = true;
  }

 private:
  void push(const std::string& name, SeriesKind kind, TimePoint at,
            double value) {
    Series& series = series_[name];
    series.kind = kind;
    series.points.push_back(SeriesPoint{at, value});
    if (series.points.size() > config_.capacity) series.points.pop_front();
    ++series.total;
  }

  const Registry& registry_;
  SamplerConfig config_;
  TimePoint last_at_ = 0;
  bool sampled_once_ = false;
  std::map<std::string, Series> series_;
  std::map<std::string, std::uint64_t> counter_last_;
  std::map<std::string, std::vector<std::uint64_t>> hist_last_;
};

}  // namespace ph::obs::testing
