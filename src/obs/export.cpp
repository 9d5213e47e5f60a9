#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "obs/json.hpp"

namespace ph::obs {

namespace {

using json::append_number;
using json::append_string;

void append_field(std::string& out, const char* name, double value,
                  bool trailing_comma = true) {
  append_string(out, name);
  out += ':';
  append_number(out, value);
  if (trailing_comma) out += ',';
}

/// The "series" object body: {"name":{"kind":..,"points":[[at,v],...]},..}.
void append_series_object(std::string& out, const Sampler& sampler) {
  out += '{';
  bool first = true;
  for (const auto& [name, series] : sampler.series()) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    append_string(out, name);
    out += ":{\"kind\":";
    append_string(out, to_string(series.kind()));
    out += ',';
    append_field(out, "evicted", static_cast<double>(series.evicted()));
    out += "\"points\":[";
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (i > 0) out += ',';
      const SeriesPoint point = series.at(i);
      out += '[';
      append_number(out, static_cast<double>(point.at));
      out += ',';
      append_number(out, point.value);
      out += ']';
    }
    out += "]}";
  }
  out += "\n}";
}

/// The "slo" object body: rules with current health plus breach windows.
void append_slo_object(std::string& out, const SloEngine& slo) {
  out += "{";
  append_field(out, "total_breaches",
               static_cast<double>(slo.total_breaches()));
  out += "\"rules\":[";
  bool first = true;
  for (const SloRule& rule : slo.rules()) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":";
    append_string(out, rule.name);
    out += ",\"series\":";
    append_string(out, rule.series);
    out += ",\"aggregate\":";
    append_string(out, to_string(rule.aggregate));
    out += ",\"comparison\":";
    append_string(out, to_string(rule.comparison));
    out += ',';
    append_field(out, "threshold", rule.threshold);
    append_field(out, "window_us", static_cast<double>(rule.window_us));
    append_field(out, "min_points", static_cast<double>(rule.min_points));
    out += "\"breached\":";
    out += slo.breached(rule.name) ? "true" : "false";
    out += '}';
  }
  out += "\n],\"windows\":[";
  first = true;
  for (const BreachWindow& window : slo.windows()) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"rule\":";
    append_string(out, window.rule);
    out += ',';
    append_field(out, "start_us", static_cast<double>(window.start));
    append_field(out, "end_us", static_cast<double>(window.end));
    out += "\"open\":";
    out += window.open ? "true" : "false";
    out += '}';
  }
  out += "\n]}";
}

}  // namespace

std::uint64_t device_from_metric_name(const std::string& name) {
  for (std::size_t pos = name.find(".d"); pos != std::string::npos;
       pos = name.find(".d", pos + 1)) {
    std::size_t i = pos + 2;
    std::uint64_t id = 0;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
      id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
      ++i;
    }
    if (i > pos + 2 && i < name.size() && name[i] == '.') return id;
  }
  return 0;
}

std::string to_json(const Registry& registry, const Trace* trace,
                    const Sampler* sampler, const SloEngine* slo) {
  std::string out;
  out.reserve(4096);
  out += "{\n\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : registry.counters()) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    append_string(out, name);
    out += ':';
    append_number(out, static_cast<double>(counter->value()));
  }
  out += "\n},\n\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : registry.gauges()) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    append_string(out, name);
    out += ':';
    append_number(out, gauge->value());
  }
  out += "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : registry.histograms()) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    append_string(out, name);
    out += ":{";
    append_field(out, "count", static_cast<double>(histogram->count()));
    append_field(out, "sum", histogram->sum());
    append_field(out, "min", histogram->min());
    append_field(out, "max", histogram->max());
    append_field(out, "mean", histogram->mean());
    append_field(out, "p50", histogram->p50());
    append_field(out, "p95", histogram->p95());
    append_field(out, "p99", histogram->p99());
    out += "\"buckets\":[";
    const auto& bounds = histogram->bounds();
    const auto& counts = histogram->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"le\":";
      if (i < bounds.size()) {
        append_number(out, bounds[i]);
      } else {
        out += "\"inf\"";
      }
      out += ",\"count\":";
      append_number(out, static_cast<double>(counts[i]));
      out += '}';
    }
    out += "]}";
  }
  out += "\n}";
  if (sampler != nullptr) {
    out += ",\n\"series\":";
    append_series_object(out, *sampler);
  }
  if (slo != nullptr) {
    out += ",\n\"slo\":";
    append_slo_object(out, *slo);
  }
  if (trace != nullptr) {
    out += ",\n\"clock_domain\":";
    append_string(out, trace->clock_domain());
    out += ",\n\"spans\":[";
    first = true;
    for (const Span& span : trace->spans()) {
      if (!first) out += ',';
      first = false;
      out += "\n{";
      append_field(out, "id", static_cast<double>(span.id));
      append_field(out, "parent", static_cast<double>(span.parent));
      out += "\"name\":";
      append_string(out, span.name);
      out += ",\"kind\":";
      append_string(out, span.kind);
      out += ',';
      append_field(out, "device", static_cast<double>(span.device));
      append_field(out, "start_us", static_cast<double>(span.start));
      append_field(out, "end_us", static_cast<double>(span.end));
      out += "\"closed\":";
      out += span.closed ? "true" : "false";
      out += '}';
    }
    out += "\n],\n\"events\":[";
    first = true;
    for (const TraceEvent& event : trace->events()) {
      if (!first) out += ',';
      first = false;
      out += "\n{";
      append_field(out, "span", static_cast<double>(event.span));
      out += "\"name\":";
      append_string(out, event.name);
      out += ",\"kind\":";
      append_string(out, event.kind);
      out += ',';
      append_field(out, "device", static_cast<double>(event.device));
      append_field(out, "at_us", static_cast<double>(event.at), false);
      out += '}';
    }
    out += "\n]";
  }
  out += "\n}\n";
  return out;
}

namespace {

Error malformed_metrics(const std::string& what) {
  return Error{Errc::protocol_error, "metrics JSON: " + what};
}

/// A counter or bucket count: a non-negative integral number.
bool read_count(const json::Value* v, std::uint64_t& out) {
  if (v == nullptr || !v->is_number() || !(v->number >= 0.0) ||
      v->number != std::floor(v->number) || v->number >= 0x1p64) {
    return false;
  }
  out = static_cast<std::uint64_t>(v->number);
  return true;
}

Result<ExpoDoc::Hist> read_histogram(const std::string& name,
                                     const json::Value& h) {
  if (!h.is_object()) {
    return malformed_metrics("histogram '" + name + "' is not an object");
  }
  ExpoDoc::Hist hist;
  if (!read_count(h.get("count"), hist.count)) {
    return malformed_metrics("histogram '" + name + "' has no valid 'count'");
  }
  for (auto [field, out] : {std::pair{"sum", &hist.sum}, {"p50", &hist.p50},
                            {"p95", &hist.p95}, {"p99", &hist.p99}}) {
    const json::Value* v = h.get(field);
    if (v == nullptr || !v->is_number()) {
      return malformed_metrics("histogram '" + name +
                               "' missing numeric field '" + field + "'");
    }
    *out = v->number;
  }
  const json::Value* buckets = h.get("buckets");
  if (buckets == nullptr || !buckets->is_array() || buckets->array->empty()) {
    return malformed_metrics("histogram '" + name + "' has no buckets");
  }
  for (std::size_t i = 0; i < buckets->array->size(); ++i) {
    const json::Value& bucket = (*buckets->array)[i];
    const json::Value* le = bucket.get("le");
    const bool last = i + 1 == buckets->array->size();
    // Finite bounds first, then the one "inf" overflow bucket.
    const bool le_ok =
        le != nullptr &&
        (last ? le->is_string() && le->string == "inf" : le->is_number());
    std::uint64_t count = 0;
    if (!le_ok || !read_count(bucket.get("count"), count)) {
      return malformed_metrics("histogram '" + name + "' bucket " +
                               std::to_string(i) + " is malformed");
    }
    if (!last) hist.bounds.push_back(le->number);
    hist.bucket_counts.push_back(count);
  }
  return hist;
}

}  // namespace

Result<ExpoDoc> metrics_from_json(const json::Value& root) {
  if (!root.is_object()) return malformed_metrics("top level is not an object");
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const json::Value* table = root.get(section);
    if (table == nullptr || !table->is_object()) {
      return malformed_metrics(std::string("missing '") + section +
                               "' object");
    }
  }
  // Every name must be one the exposition can carry: legal, and in one
  // section only (the exposition declares one TYPE per name).
  std::set<std::string> names;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    for (const auto& [name, value] : *root.get(section)->object) {
      if (!valid_metric_name(name)) {
        return malformed_metrics("illegal metric name '" + name + "'");
      }
      if (!names.insert(name).second) {
        return malformed_metrics("metric '" + name +
                                 "' appears in more than one section");
      }
    }
  }
  ExpoDoc doc;
  for (const auto& [name, value] : *root.get("counters")->object) {
    if (!read_count(&value, doc.counters[name])) {
      return malformed_metrics("counter '" + name +
                               "' is not a non-negative integer");
    }
  }
  for (const auto& [name, value] : *root.get("gauges")->object) {
    if (!value.is_number()) {
      return malformed_metrics("gauge '" + name + "' is not a number");
    }
    doc.gauges[name] = value.number;
  }
  for (const auto& [name, value] : *root.get("histograms")->object) {
    auto hist = read_histogram(name, value);
    if (!hist.ok()) return std::move(hist).error();
    doc.histograms.emplace(name, std::move(hist).value());
  }
  return doc;
}

std::string series_to_json(const Sampler& sampler, const SloEngine* slo) {
  std::string out;
  out.reserve(4096);
  out += "{";
  append_field(out, "interval_us",
               static_cast<double>(sampler.config().interval_us));
  append_field(out, "capacity", static_cast<double>(sampler.config().capacity));
  append_field(out, "samples", static_cast<double>(sampler.samples_taken()));
  append_field(out, "last_sample_us",
               static_cast<double>(sampler.last_sample_at()));
  out += "\"series\":";
  append_series_object(out, sampler);
  if (slo != nullptr) {
    out += ",\n\"slo\":";
    append_slo_object(out, *slo);
  }
  out += "\n}\n";
  return out;
}

std::string to_chrome_trace(
    const Trace& trace,
    const std::map<std::uint64_t, std::string>& device_names,
    const Sampler* sampler, double ts_divisor) {
  if (!(ts_divisor > 0.0)) ts_divisor = 1.0;
  const auto ts = [ts_divisor](TimePoint at) {
    return static_cast<double>(at) / ts_divisor;
  };
  std::string out;
  out.reserve(4096);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto begin_event = [&] {
    if (!first) out += ',';
    first = false;
    out += "\n{";
  };
  // Which clock stamped this journal — "virtual" simulated microseconds or
  // real "wall" time. Perfetto shows metadata args in the track panel.
  begin_event();
  out += "\"ph\":\"M\",\"name\":\"clock_domain\",";
  append_field(out, "pid", 0.0);
  append_field(out, "tid", 0.0);
  out += "\"args\":{\"name\":";
  append_string(out, trace.clock_domain());
  out += "}}";
  // One track per device: pid=tid=device id, labelled via metadata.
  std::map<std::uint64_t, bool> devices;
  for (const Span& span : trace.spans()) devices[span.device] = true;
  for (const TraceEvent& event : trace.events()) devices[event.device] = true;
  if (sampler != nullptr) {
    for (const auto& [name, series] : sampler->series()) {
      if (!series.empty()) devices[device_from_metric_name(name)] = true;
    }
  }
  for (const auto& [device, seen] : devices) {
    (void)seen;
    begin_event();
    out += "\"ph\":\"M\",\"name\":\"process_name\",";
    append_field(out, "pid", static_cast<double>(device));
    append_field(out, "tid", static_cast<double>(device));
    out += "\"args\":{\"name\":";
    auto it = device_names.find(device);
    append_string(out, it != device_names.end()
                            ? it->second
                            : "device " + std::to_string(device));
    out += "}}";
  }
  for (const Span& span : trace.spans()) {
    begin_event();
    // Closed spans are complete ("X") events; still-open ones emit a
    // begin ("B") so truncated operations remain visible in the viewer.
    out += span.closed ? "\"ph\":\"X\"," : "\"ph\":\"B\",";
    out += "\"name\":";
    append_string(out, span.name);
    out += ",\"cat\":";
    append_string(out, span.kind.empty() ? "span" : span.kind);
    out += ',';
    append_field(out, "pid", static_cast<double>(span.device));
    append_field(out, "tid", static_cast<double>(span.device));
    append_field(out, "ts", ts(span.start));
    if (span.closed) {
      append_field(out, "dur", ts(span.end - span.start));
    }
    out += "\"args\":{";
    append_field(out, "id", static_cast<double>(span.id));
    append_field(out, "parent", static_cast<double>(span.parent), false);
    out += "}}";
    // A parent on another device is a causal hop across the radio: draw
    // it as a flow arrow from the parent's start to this span's start.
    const Span* parent = trace.find_span(span.parent);
    if (parent != nullptr && parent->device != span.device) {
      begin_event();
      out += "\"ph\":\"s\",\"name\":\"causal\",\"cat\":\"flow\",";
      append_field(out, "id", static_cast<double>(span.id));
      append_field(out, "pid", static_cast<double>(parent->device));
      append_field(out, "tid", static_cast<double>(parent->device));
      append_field(out, "ts", ts(parent->start), false);
      out += '}';
      begin_event();
      out += "\"ph\":\"f\",\"bp\":\"e\",\"name\":\"causal\",\"cat\":\"flow\",";
      append_field(out, "id", static_cast<double>(span.id));
      append_field(out, "pid", static_cast<double>(span.device));
      append_field(out, "tid", static_cast<double>(span.device));
      append_field(out, "ts", ts(span.start), false);
      out += '}';
    }
  }
  for (const TraceEvent& event : trace.events()) {
    begin_event();
    out += "\"ph\":\"i\",\"s\":\"t\",\"name\":";
    append_string(out, event.name);
    out += ",\"cat\":";
    append_string(out, event.kind.empty() ? "event" : event.kind);
    out += ',';
    append_field(out, "pid", static_cast<double>(event.device));
    append_field(out, "tid", static_cast<double>(event.device));
    append_field(out, "ts", ts(event.at), false);
    out += '}';
  }
  // Sampled series replay as "C" counter events on their device's track:
  // Perfetto draws each as a little area chart under the device's spans,
  // so a latency spike lines up visually with the outage that caused it.
  if (sampler != nullptr) {
    for (const auto& [name, series] : sampler->series()) {
      const std::uint64_t device = device_from_metric_name(name);
      for (std::size_t i = 0; i < series.size(); ++i) {
        const SeriesPoint point = series.at(i);
        begin_event();
        out += "\"ph\":\"C\",\"name\":";
        append_string(out, name);
        out += ",\"cat\":\"series\",";
        append_field(out, "pid", static_cast<double>(device));
        append_field(out, "tid", static_cast<double>(device));
        append_field(out, "ts", ts(point.at));
        out += "\"args\":{\"value\":";
        append_number(out, point.value);
        out += "}}";
      }
    }
  }
  out += "\n]}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "obs: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "obs: short write to '%s'\n", path.c_str());
    return false;
  }
  return true;
}

bool dump_if_requested(const Registry& registry, const Trace* trace,
                       const std::map<std::uint64_t, std::string>&
                           device_names,
                       const Sampler* sampler, const SloEngine* slo) {
  bool ok = true;
  if (trace != nullptr && trace->dropped() > 0) {
    std::fprintf(stderr,
                 "obs: warning: trace journal dropped %llu records at "
                 "capacity; the dump is incomplete (raise "
                 "Trace::set_capacity or use ring mode)\n",
                 static_cast<unsigned long long>(trace->dropped()));
  }
  if (const char* path = std::getenv("PH_METRICS_JSON");
      path != nullptr && *path != '\0') {
    if (write_file(path, to_json(registry, trace, sampler, slo))) {
      std::fprintf(stderr, "obs: metrics JSON written to %s\n", path);
    } else {
      ok = false;
    }
  }
  if (const char* path = std::getenv("PH_SERIES_JSON");
      path != nullptr && *path != '\0') {
    if (sampler == nullptr) {
      std::fprintf(stderr,
                   "obs: PH_SERIES_JSON set but this tool records no series\n");
    } else if (write_file(path, series_to_json(*sampler, slo))) {
      std::fprintf(stderr, "obs: series JSON written to %s\n", path);
    } else {
      ok = false;
    }
  }
  if (const char* path = std::getenv("PH_TRACE_JSON");
      path != nullptr && *path != '\0') {
    if (trace == nullptr) {
      std::fprintf(stderr,
                   "obs: PH_TRACE_JSON set but this tool records no trace\n");
    } else if (write_file(path,
                          to_chrome_trace(*trace, device_names, sampler))) {
      std::fprintf(stderr, "obs: Chrome trace JSON written to %s\n", path);
    } else {
      ok = false;
    }
  }
  return ok;
}

bool trace_dump_requested() {
  const char* path = std::getenv("PH_TRACE_JSON");
  return path != nullptr && *path != '\0';
}

bool dump_trace_if_requested(const Trace& trace,
                             const std::map<std::uint64_t, std::string>&
                                 device_names) {
  if (!trace_dump_requested()) return false;
  const char* path = std::getenv("PH_TRACE_JSON");
  if (!write_file(path, to_chrome_trace(trace, device_names))) return false;
  std::fprintf(stderr, "obs: Chrome trace JSON written to %s\n", path);
  return true;
}

bool dump_flight_recording(const Trace& trace, const std::string& reason,
                           const std::string& fallback_path) {
  const char* env = std::getenv("PH_FLIGHT_JSON");
  const std::string path =
      env != nullptr && *env != '\0' ? std::string(env) : fallback_path;
  if (path.empty()) return false;
  std::string body = to_chrome_trace(trace);
  // Tag the dump with why it fired; Perfetto surfaces otherData verbatim.
  const std::string prefix = "{\"displayTimeUnit\":\"ms\",";
  if (body.compare(0, prefix.size(), prefix) == 0) {
    std::string tagged = prefix + "\"otherData\":{\"reason\":";
    append_string(tagged, reason);
    tagged += "},";
    body = tagged + body.substr(prefix.size());
  }
  if (!write_file(path, body)) return false;
  std::fprintf(stderr, "obs: flight recording (%s) written to %s\n",
               reason.c_str(), path.c_str());
  return true;
}

}  // namespace ph::obs
