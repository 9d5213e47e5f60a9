#include "obs/slo.hpp"

#include <algorithm>

#include "obs/clock.hpp"
#include "util/check.hpp"

namespace ph::obs {

const char* to_string(SloAggregate agg) {
  switch (agg) {
    case SloAggregate::last: return "last";
    case SloAggregate::mean: return "mean";
    case SloAggregate::max: return "max";
    case SloAggregate::min: return "min";
    case SloAggregate::sum: return "sum";
  }
  return "unknown";
}

const char* to_string(SloComparison cmp) {
  return cmp == SloComparison::above ? "above" : "below";
}

SloEngine::SloEngine(const Sampler& sampler, Registry& registry, Trace* trace)
    : sampler_(sampler), registry_(registry), trace_(trace) {}

void SloEngine::add_rule(SloRule rule) {
  PH_CHECK_MSG(!rule.name.empty(), "SLO rule needs a name");
  PH_CHECK_MSG(!rule.series.empty(), "SLO rule needs a series");
  RuleState state;
  state.breaches = &registry_.counter("obs.slo." + rule.name + ".breaches");
  state.breached = &registry_.gauge("obs.slo." + rule.name + ".breached");
  state.breached->set(0.0);
  rules_.push_back(std::move(rule));
  states_.push_back(state);
}

bool SloEngine::breached(const std::string& rule) const {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].name == rule) return states_[i].unhealthy;
  }
  return false;
}

void SloEngine::evaluate() {
  PH_CHECK_MSG(sampler_.clock() != nullptr,
               "argless evaluate() needs a clockful Sampler");
  evaluate(sampler_.clock()->now());
}

void SloEngine::evaluate(TimePoint now) {
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const SloRule& rule = rules_[r];
    RuleState& state = states_[r];
    if (state.series == nullptr) {
      state.series = sampler_.find(rule.series);  // stable once born
      if (state.series == nullptr) continue;      // not born yet
    }
    const TimeSeries* series = state.series;
    if (series->empty()) continue;

    // Fold the in-window points, newest last. Rings are time-ordered, so
    // walk backwards and stop at the window edge.
    const TimePoint cutoff = now >= rule.window_us ? now - rule.window_us : 0;
    double folded = 0.0;
    std::size_t points = 0;
    for (std::size_t i = series->size(); i-- > 0;) {
      const SeriesPoint point = series->at(i);
      if (point.at < cutoff) break;
      if (points == 0) {
        folded = point.value;
      } else {
        switch (rule.aggregate) {
          case SloAggregate::last: break;  // first visited point is newest
          case SloAggregate::mean:
          case SloAggregate::sum: folded += point.value; break;
          case SloAggregate::max: folded = std::max(folded, point.value); break;
          case SloAggregate::min: folded = std::min(folded, point.value); break;
        }
      }
      ++points;
      if (rule.aggregate == SloAggregate::last) break;
    }
    if (points < rule.min_points) continue;  // abstain, keep current health
    if (rule.aggregate == SloAggregate::mean) {
      folded /= static_cast<double>(points);
    }

    const bool unhealthy = rule.comparison == SloComparison::above
                               ? folded > rule.threshold
                               : folded < rule.threshold;
    if (unhealthy && !state.unhealthy) {
      state.unhealthy = true;
      state.breaches->inc();
      state.breached->set(1.0);
      ++total_breaches_;
      state.open_window = windows_.size();
      windows_.push_back(BreachWindow{rule.name, now, now, true});
      if (trace_ != nullptr) {
        trace_->add_event("obs.slo.breach", now, 0, rule.name);
      }
      if (on_breach_) on_breach_(rule, now, folded);
    } else if (!unhealthy && state.unhealthy) {
      state.unhealthy = false;
      state.breached->set(0.0);
      BreachWindow& window = windows_[state.open_window];
      window.end = now;
      window.open = false;
      if (trace_ != nullptr) {
        trace_->add_event("obs.slo.recovered", now, 0, rule.name);
      }
    } else if (unhealthy) {
      windows_[state.open_window].end = now;  // extend the open window
    }
  }
}

}  // namespace ph::obs
