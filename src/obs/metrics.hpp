// ph::obs — the unified observability core.
//
// Every layer of the stack (net, peerhood, sns, community, eval) publishes
// its telemetry through one Registry of named instruments instead of a
// private `struct Stats`. The paper's whole evaluation is a measurement
// story (Table 8 operation times, discovery latency, the §5.1 cost-per-byte
// argument); a single instrumentation spine is what makes those numbers —
// and every later performance claim — comparable across layers and PRs.
//
// Three instrument kinds:
//   Counter   — monotonically increasing uint64 (datagrams sent, joins).
//   Gauge     — a settable double (queue depth, neighbour count).
//   Histogram — fixed-bucket latency distribution with p50/p95/p99 readout.
//
// Naming convention: `layer.component.metric`, lower_snake metric names,
// with an optional `d<id>` instance segment for per-device components —
// e.g. `net.medium.datagrams_sent`, `peerhood.daemon.d3.pings_sent`,
// `community.client.d2.rpc_us`. The exporter (obs/export.hpp) dumps a
// whole registry as JSON or CSV.
//
// A Registry is deliberately NOT a process-wide singleton: tests and
// benches run many independent simulated worlds in one process, and their
// counters must not bleed into each other. The convention is one Registry
// per world, owned by net::Medium (the root every layer already reaches);
// standalone components fall back to a private registry so their counters
// are always registry-backed. Registries from several runs can be combined
// with merge_from() for cross-run reports.
//
// Everything here is single-threaded, like the simulator it instruments.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ph::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Buckets are defined by strictly increasing
/// upper bounds; an implicit overflow bucket catches everything beyond the
/// last bound. Percentile readout interpolates linearly inside the bucket
/// containing the requested rank (clamped to the observed min/max), which
/// is deterministic and accurate to one bucket width.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// q in [0, 1]; returns 0 for an empty histogram.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Upper bounds (without the implicit overflow bucket).
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return counts_;
  }

  /// Adds another histogram's observations. Bucket bounds must match.
  void merge_from(const Histogram& other);

  /// Adds raw bucket deltas — profiling publishers drain per-shard fixed
  /// arrays at barriers (obs::prof). `counts` must have
  /// bounds().size() + 1 entries (last = overflow); `min`/`max` are the
  /// source's observed extremes and are ignored when `count` is 0.
  void merge_buckets(const std::uint64_t* counts, std::size_t n,
                     std::uint64_t count, double sum, double min, double max);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Default bucket bounds for virtual-time latencies in MICROSECONDS:
/// 10 µs up to 300 s in roughly 1-3-10 steps. Covers everything from a
/// WLAN frame flight to a full Bluetooth inquiry scan.
const std::vector<double>& default_latency_bounds_us();

/// Bucket bounds for user-visible operation times in SECONDS (Table 8
/// scale): 0.5 s up to 600 s.
const std::vector<double>& operation_bounds_s();

/// A prefix-scoped, materialized view of a Registry — the one generic
/// replacement for the per-layer `struct Stats` each component used to
/// hand-mirror. Instrument names are stored relative to the prefix
/// (`snapshot("peerhood.daemon.d3.").counter("pings_sent")`), lookups of
/// absent names return zero/empty, and snapshots compare with == — two
/// runs of the same seeded scenario are deterministic exactly when their
/// snapshots are equal.
class Snapshot {
 public:
  Snapshot() = default;

  const std::string& prefix() const noexcept { return prefix_; }
  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Counter value relative to the prefix; 0 when absent.
  std::uint64_t counter(const std::string& name) const;
  /// Gauge value relative to the prefix; 0.0 when absent.
  double gauge(const std::string& name) const;
  /// Histogram copy relative to the prefix; nullptr when absent.
  const Histogram* histogram(const std::string& name) const;

  const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Value equality over every instrument (prefix excluded so views of
  /// different devices/worlds can be compared metric-for-metric).
  friend bool operator==(const Snapshot& a, const Snapshot& b);
  friend bool operator!=(const Snapshot& a, const Snapshot& b) {
    return !(a == b);
  }

 private:
  friend class Registry;
  std::string prefix_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// A named collection of instruments. Handles returned by counter() /
/// gauge() / histogram() are stable for the registry's lifetime; asking
/// for an existing name returns the same instrument (so independent code
/// paths may share a metric). Registering one name as two different kinds
/// is a programming error and aborts (PH_CHECK). Instruments are never
/// removed, and generation() counts every creation, so a reader that
/// bound handles at one generation knows its binding is complete for as
/// long as the generation stays the same.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is used only when the histogram does not exist yet.
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds =
                           default_latency_bounds_us());

  /// Materializes every instrument whose name starts with `prefix` into a
  /// typed view, names stripped of the prefix. An empty prefix snapshots
  /// the whole registry.
  Snapshot snapshot(const std::string& prefix = {}) const;

  /// Read-only lookups; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Folds another registry into this one: counters add, gauges take the
  /// other's value, histograms merge bucket-wise (creating missing ones
  /// with the other's bounds). Used by benches that run several simulated
  /// worlds and want one combined snapshot.
  void merge_from(const Registry& other);

  /// Instruments created so far, of all kinds; looking up an existing
  /// name does not change it.
  std::uint64_t generation() const noexcept { return generation_; }

  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

 private:
  /// Aborts when `name` already exists as a different instrument kind.
  void check_kind(const std::string& name, const char* wanted) const;

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::uint64_t generation_ = 0;
};

}  // namespace ph::obs
