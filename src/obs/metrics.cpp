#include "obs/metrics.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ph::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  PH_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  PH_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                   std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                       bounds_.end(),
               "histogram bounds must be strictly increasing");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested observation (1-based, fractional).
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double below = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // The rank falls inside bucket i spanning (lo, hi]; interpolate.
    double lo = i == 0 ? min_ : bounds_[i - 1];
    double hi = i < bounds_.size() ? bounds_[i] : max_;
    lo = std::clamp(lo, min_, max_);
    hi = std::clamp(hi, min_, max_);
    const double fraction =
        (rank - below) / static_cast<double>(counts_[i]);
    return lo + fraction * (hi - lo);
  }
  return max_;
}

void Histogram::merge_from(const Histogram& other) {
  PH_CHECK_MSG(bounds_ == other.bounds_,
               "histogram merge requires identical bucket bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::merge_buckets(const std::uint64_t* counts, std::size_t n,
                              std::uint64_t count, double sum, double min,
                              double max) {
  PH_CHECK_MSG(n == counts_.size(),
               "bucket merge requires identical bucket layout");
  for (std::size_t i = 0; i < n; ++i) counts_[i] += counts[i];
  if (count > 0) {
    min_ = count_ == 0 ? min : std::min(min_, min);
    max_ = count_ == 0 ? max : std::max(max_, max);
  }
  count_ += count;
  sum_ += sum;
}

const std::vector<double>& default_latency_bounds_us() {
  static const std::vector<double> bounds = {
      10,    30,    100,    300,    1e3,   3e3,   1e4,   3e4,
      1e5,   3e5,   1e6,    3e6,    1e7,   3e7,   1e8,   3e8};
  return bounds;
}

const std::vector<double>& operation_bounds_s() {
  static const std::vector<double> bounds = {0.5, 1,  2,  5,   10,  15, 20,
                                             30,  45, 60, 120, 300, 600};
  return bounds;
}

std::uint64_t Snapshot::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Snapshot::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram* Snapshot::histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

namespace {
bool same_histogram(const Histogram& a, const Histogram& b) {
  return a.bounds() == b.bounds() && a.bucket_counts() == b.bucket_counts() &&
         a.count() == b.count() && a.sum() == b.sum() && a.min() == b.min() &&
         a.max() == b.max();
}
}  // namespace

bool operator==(const Snapshot& a, const Snapshot& b) {
  if (a.counters_ != b.counters_ || a.gauges_ != b.gauges_) return false;
  if (a.histograms_.size() != b.histograms_.size()) return false;
  auto ia = a.histograms_.begin();
  auto ib = b.histograms_.begin();
  for (; ia != a.histograms_.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !same_histogram(ia->second, ib->second)) {
      return false;
    }
  }
  return true;
}

Snapshot Registry::snapshot(const std::string& prefix) const {
  Snapshot out;
  out.prefix_ = prefix;
  // The maps are name-ordered, so every prefix match lives in the
  // contiguous range [lower_bound(prefix), first name not starting with
  // prefix) — scan just that range instead of the whole registry. A
  // per-device snapshot in an N-device world is O(own metrics), not
  // O(N * metrics); per-round stats() calls in big crowds stay cheap.
  const auto scan = [&prefix](const auto& instruments, auto emit) {
    for (auto it = instruments.lower_bound(prefix);
         it != instruments.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      emit(it->first.substr(prefix.size()), *it->second);
    }
  };
  scan(counters_, [&out](std::string name, const Counter& c) {
    out.counters_.emplace(std::move(name), c.value());
  });
  scan(gauges_, [&out](std::string name, const Gauge& g) {
    out.gauges_.emplace(std::move(name), g.value());
  });
  scan(histograms_, [&out](std::string name, const Histogram& h) {
    out.histograms_.emplace(std::move(name), h);
  });
  return out;
}

Counter& Registry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    check_kind(name, "counter");
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    ++generation_;
  }
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    check_kind(name, "gauge");
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    ++generation_;
  }
  return *it->second;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::vector<double>& bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    check_kind(name, "histogram");
    it = histograms_.emplace(name, std::make_unique<Histogram>(bounds)).first;
    ++generation_;
  }
  return *it->second;
}

const Counter* Registry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).inc(c->value());
  for (const auto& [name, g] : other.gauges_) gauge(name).set(g->value());
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h->bounds()).merge_from(*h);
  }
}

void Registry::check_kind(const std::string& name, const char* wanted) const {
  (void)wanted;
  PH_CHECK_MSG(!counters_.contains(name) && !gauges_.contains(name) &&
                   !histograms_.contains(name),
               name.c_str());
}

}  // namespace ph::obs
