// SLO health rules over sampled time series.
//
// A Rule is a declarative windowed predicate on one Sampler series:
// "the mean of net.medium.datagrams_lost.rate over the last 30 s is above
// 2/s", "the last value of community.groups.d1.formed_groups is below 1
// for 20 s straight". The engine evaluates every rule after each scrape
// and turns threshold crossings into first-class telemetry:
//
//   obs.slo.<rule>.breaches   counter — healthy -> breached transitions
//   obs.slo.<rule>.breached   gauge   — 1 while the rule is breached
//   obs.slo.breach / obs.slo.recovered
//                             trace events on the world's journal
//
// plus a BreachWindow list ([start, end] in virtual time) that benches
// print and dumps embed, and an on_breach callback with which a soak arms
// the flight recorder — the trace ring around the moment an SLO went
// unhealthy is snapshotted automatically, Dapper-style, with no human in
// the loop.
//
// Determinism: evaluation is pure arithmetic over the sampler's rings at
// virtual timestamps; same seed => identical breach windows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace ph::obs {

/// How the points inside a rule's window are folded into one value.
enum class SloAggregate { last, mean, max, min, sum };

/// Which side of the threshold is unhealthy.
enum class SloComparison { above, below };

const char* to_string(SloAggregate agg);
const char* to_string(SloComparison cmp);

struct SloRule {
  /// Short identifier, used in metric names: lower_snake, no dots.
  std::string name;
  /// Exact Sampler series name to watch (e.g.
  /// "peerhood.daemon.d1.discovery_us.p95").
  std::string series;
  SloAggregate aggregate = SloAggregate::last;
  SloComparison comparison = SloComparison::above;
  double threshold = 0.0;
  /// Window width in virtual microseconds; points with at > now - window
  /// participate. 0 = only the newest point.
  std::uint64_t window_us = 0;
  /// Fewer in-window points than this and the rule abstains (keeps its
  /// previous health) — protects quantile series that skip empty
  /// intervals from flapping.
  std::size_t min_points = 1;
};

/// One contiguous unhealthy window of one rule, in virtual time.
struct BreachWindow {
  std::string rule;
  TimePoint start = 0;
  TimePoint end = 0;  ///< == start while still open
  bool open = false;
};

class SloEngine {
 public:
  /// Breach counters/gauges are published into `registry` (normally the
  /// same per-world registry the sampler scrapes — the breach counters
  /// then show up as series themselves on the next scrape). `trace` may be
  /// null; when set, breaches/recoveries become instant trace events.
  SloEngine(const Sampler& sampler, Registry& registry,
            Trace* trace = nullptr);
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  void add_rule(SloRule rule);
  const std::vector<SloRule>& rules() const noexcept { return rules_; }

  /// Fired on every healthy -> breached transition (after the counters
  /// and trace event). The chaos soak uses this to dump the flight
  /// recorder with reason "slo:<rule>".
  using BreachHandler =
      std::function<void(const SloRule& rule, TimePoint at, double value)>;
  void set_on_breach(BreachHandler handler) { on_breach_ = std::move(handler); }

  /// Evaluates every rule against the sampler's current rings. Call after
  /// each Sampler::sample with the same timestamp.
  void evaluate(TimePoint now);

  /// Clockful form: stamps from the sampler's attached Clock (the engine
  /// and the scrape must share a time domain). Aborts when the sampler was
  /// constructed without one.
  void evaluate();

  /// All breach windows so far, in order of opening; the last may be open.
  const std::vector<BreachWindow>& windows() const noexcept { return windows_; }
  /// Healthy -> breached transitions across all rules.
  std::uint64_t total_breaches() const noexcept { return total_breaches_; }
  /// True if `rule` is currently unhealthy.
  bool breached(const std::string& rule) const;

 private:
  struct RuleState {
    /// The rule's series, bound on the first evaluation after it exists.
    const TimeSeries* series = nullptr;
    Counter* breaches = nullptr;
    Gauge* breached = nullptr;
    bool unhealthy = false;
    std::size_t open_window = 0;  // index into windows_ while unhealthy
  };

  const Sampler& sampler_;
  Registry& registry_;
  Trace* trace_ = nullptr;
  BreachHandler on_breach_;
  std::vector<SloRule> rules_;
  std::vector<RuleState> states_;
  std::vector<BreachWindow> windows_;
  std::uint64_t total_breaches_ = 0;
};

}  // namespace ph::obs
