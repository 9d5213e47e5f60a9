#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace ph::obs {

namespace {

bool contains(std::string_view haystack, const char* needle) {
  return haystack.find(needle) != std::string_view::npos;
}

/// Higher wins when phase spans overlap; processing never competes (it
/// is the residual, not a span class).
int priority(Phase phase) {
  switch (phase) {
    case Phase::queueing: return 5;
    case Phase::backoff: return 4;
    case Phase::transfer: return 3;
    case Phase::handshake: return 2;
    case Phase::inquiry: return 1;
    case Phase::processing: return 0;
  }
  return 0;
}

struct Interval {
  TimePoint a = 0;
  TimePoint b = 0;
  Phase phase = Phase::processing;
};

/// Sweep-line over [t0, t1): every elementary segment between interval
/// boundaries is charged to the highest-priority covering phase, the
/// rest to processing. Exact by construction: the charges sum to t1-t0.
Attribution sweep(const std::vector<Interval>& intervals, TimePoint t0,
                  TimePoint t1) {
  Attribution result;
  if (t1 <= t0) return result;
  result.window_us = t1 - t0;
  std::vector<TimePoint> bounds;
  bounds.reserve(intervals.size() * 2 + 2);
  bounds.push_back(t0);
  bounds.push_back(t1);
  for (const Interval& iv : intervals) {
    bounds.push_back(iv.a);
    bounds.push_back(iv.b);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const TimePoint x = bounds[i];
    const TimePoint y = bounds[i + 1];
    // Boundaries include every interval endpoint, so an interval covers
    // the whole segment iff it covers its start.
    const Interval* best = nullptr;
    for (const Interval& iv : intervals) {
      if (iv.a <= x && iv.b >= y &&
          (best == nullptr || priority(iv.phase) > priority(best->phase))) {
        best = &iv;
      }
    }
    const Phase phase = best != nullptr ? best->phase : Phase::processing;
    result.phase_us[static_cast<std::size_t>(phase)] += y - x;
  }
  return result;
}

/// Clips a closed phase span to [t0, t1); false when outside or empty.
bool clip(const Span& span, TimePoint t0, TimePoint t1, Interval& out) {
  if (!span.closed) return false;
  const auto phase = classify(span);
  if (!phase) return false;
  const TimePoint a = std::max(span.start, t0);
  const TimePoint b = std::min(span.end, t1);
  if (b <= a) return false;
  out = Interval{a, b, *phase};
  return true;
}

}  // namespace

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::inquiry: return "inquiry";
    case Phase::handshake: return "handshake";
    case Phase::transfer: return "transfer";
    case Phase::backoff: return "backoff";
    case Phase::queueing: return "queueing";
    case Phase::processing: return "processing";
  }
  return "?";
}

std::optional<Phase> classify(const Span& span) {
  const std::string_view name = span.name;
  if (contains(name, "queue")) return Phase::queueing;
  if (contains(name, "backoff")) return Phase::backoff;
  if (name == "net.datagram" || name == "net.link.send") {
    return Phase::transfer;
  }
  if (name == "net.link.open" || contains(name, "session.accept") ||
      contains(name, "session.resume")) {
    return Phase::handshake;
  }
  if (contains(name, "inquiry")) return Phase::inquiry;
  return std::nullopt;
}

void Attribution::add(const Attribution& other) {
  window_us += other.window_us;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phase_us[i] += other.phase_us[i];
  }
}

Attribution attribute_window(const Trace& trace, TimePoint t0, TimePoint t1) {
  std::vector<Interval> intervals;
  Interval iv;
  for (const Span& span : trace.spans()) {
    if (clip(span, t0, t1, iv)) intervals.push_back(iv);
  }
  return sweep(intervals, t0, t1);
}

Attribution attribute_tree(const Trace& trace, SpanId root) {
  const Span* root_span = trace.find_span(root);
  if (root_span == nullptr || !root_span->closed) return {};
  // Parent links only go upward; build the downward index once.
  std::map<SpanId, std::vector<const Span*>> children;
  for (const Span& span : trace.spans()) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::vector<Interval> intervals;
  std::vector<SpanId> frontier{root};
  Interval iv;
  while (!frontier.empty()) {
    const SpanId id = frontier.back();
    frontier.pop_back();
    auto it = children.find(id);
    if (it == children.end()) continue;
    for (const Span* child : it->second) {
      frontier.push_back(child->id);
      if (clip(*child, root_span->start, root_span->end, iv)) {
        intervals.push_back(iv);
      }
    }
  }
  return sweep(intervals, root_span->start, root_span->end);
}

std::string format_attribution_table(
    const std::vector<std::pair<std::string, Attribution>>& rows) {
  std::string out;
  char buf[64];
  std::size_t label_width = 24;
  for (const auto& [label, attribution] : rows) {
    (void)attribution;
    label_width = std::max(label_width, label.size());
  }
  std::snprintf(buf, sizeof(buf), "%-*s %10s", static_cast<int>(label_width),
                "operation", "total_s");
  out += buf;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    std::snprintf(buf, sizeof(buf), " %10s",
                  to_string(static_cast<Phase>(i)));
    out += buf;
  }
  out += '\n';
  for (const auto& [label, attribution] : rows) {
    std::snprintf(buf, sizeof(buf), "%-*s %10.3f",
                  static_cast<int>(label_width), label.c_str(),
                  static_cast<double>(attribution.window_us) / 1e6);
    out += buf;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      std::snprintf(buf, sizeof(buf), " %10.3f",
                    static_cast<double>(attribution.phase_us[i]) / 1e6);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace ph::obs
