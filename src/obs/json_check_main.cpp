// ph_obs_json_check — validates a dump and checks requirements against it.
// The file is read in one of four formats:
//   (default)  metrics JSON from obs::to_json()
//   --chrome   Chrome trace-event JSON from obs::to_chrome_trace()
//   --expo     text exposition from obs::to_exposition() / OpsServer /metrics
//   --folded   collapsed-stack profile from OpsServer /profile / PH_PROF_FOLDED
// Used by the ph_bench_smoke, ph_trace_check, ph_ops_scrape_smoke and
// ph_prof_smoke CTest targets to fail the build when a bench or daemon
// emits malformed or incomplete dumps.
//
// Usage:
//   ph_obs_json_check [--chrome|--expo|--folded] FILE [requirement...]
//
// Each format's own parser decides what is well-formed:
// obs::metrics_from_json() for the metric sections of the JSON (plus the
// optional spans/events/series/slo sections checked below),
// obs::parse_exposition(), obs::prof::parse_folded(), and the trace-event
// shape checked below for --chrome.
//
// Requirements are KIND:PREFIX and each holds when some record of that
// kind has a name starting with PREFIX (an empty PREFIX matches any name):
//   counter:PREFIX          a counter                      (JSON, --expo)
//   counter_nonzero:PREFIX  a counter > 0; a present-but-zero instrument
//                           means the code path it observes never ran
//                                                          (JSON, --expo)
//   gauge:PREFIX            a gauge                        (JSON, --expo)
//   histogram:PREFIX        a histogram                    (JSON, --expo)
//   span:PREFIX             a record of "spans"            (JSON)
//   event:PREFIX            a record of "events"           (JSON)
//   series:PREFIX           a sampled series with >= 1 [at_us, value]
//                           point; a matching series must carry a string
//                           "kind" and a "points" array    (JSON)
//   slo_breach:PREFIX       an SLO breach window for that rule; the
//                           windows before it must be well-formed (JSON)
//   frame:PREFIX            a stack with such a frame; "frame:" asks for a
//                           non-empty profile              (--folded)
// The one exception is --chrome, where a requirement is a bare NAME-PREFIX:
// some trace event's "name" starts with it.
//
// Exits 0 when the file parses and every requirement is met; 1 otherwise.
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/expo.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace {

using ph::obs::ExpoDoc;
using ph::obs::json::Value;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

/// Prints "json_check: <message>" to stderr; returns false for chaining.
[[gnu::format(printf, 1, 2)]] bool fail(const char* format, ...) {
  std::fputs("json_check: ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  return false;
}

/// Every element of a record array must be an object with these fields,
/// correctly typed.
bool record_well_formed(const char* section, std::size_t index,
                        const Value& record,
                        const std::vector<const char*>& number_fields,
                        const std::vector<const char*>& string_fields,
                        const std::vector<const char*>& bool_fields) {
  if (!record.is_object()) {
    return fail("%s[%zu] is not an object", section, index);
  }
  for (const char* field : number_fields) {
    const Value* v = record.get(field);
    if (v == nullptr || !v->is_number()) {
      return fail("%s[%zu] missing numeric '%s'", section, index, field);
    }
  }
  for (const char* field : string_fields) {
    const Value* v = record.get(field);
    if (v == nullptr || !v->is_string()) {
      return fail("%s[%zu] missing string '%s'", section, index, field);
    }
  }
  for (const char* field : bool_fields) {
    const Value* v = record.get(field);
    if (v == nullptr || v->kind != Value::Kind::boolean) {
      return fail("%s[%zu] missing boolean '%s'", section, index, field);
    }
  }
  return true;
}

/// The optional sections to_json() writes next to the metric ones must be
/// well-typed whenever present.
bool optional_sections_well_formed(const Value& root) {
  struct Section {
    const char* name;
    std::vector<const char*> numbers, strings, bools;
  };
  for (const Section& s :
       {Section{"spans",
                {"id", "parent", "device", "start_us", "end_us"},
                {"name", "kind"},
                {"closed"}},
        Section{"events", {"span", "device", "at_us"}, {"name", "kind"}, {}}}) {
    const Value* records = root.get(s.name);
    if (records == nullptr) continue;
    if (!records->is_array()) return fail("'%s' is not an array", s.name);
    for (std::size_t i = 0; i < records->array->size(); ++i) {
      if (!record_well_formed(s.name, i, (*records->array)[i], s.numbers,
                              s.strings, s.bools)) {
        return false;
      }
    }
  }
  if (const Value* series = root.get("series");
      series != nullptr && !series->is_object()) {
    return fail("'series' is not an object");
  }
  if (const Value* slo = root.get("slo"); slo != nullptr) {
    const Value* windows = slo->get("windows");
    const Value* rules = slo->get("rules");
    if (windows == nullptr || !windows->is_array() || rules == nullptr ||
        !rules->is_array()) {
      return fail("'slo' needs 'rules' and 'windows' arrays");
    }
  }
  return true;
}

/// --chrome: the dump must be {"traceEvents":[...]} where every element
/// carries a string "ph" plus the fields its phase implies. Returns the
/// events, or nullptr when malformed.
const ph::obs::json::Array* chrome_events(const Value& root) {
  const Value* events = root.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    fail("missing 'traceEvents' array");
    return nullptr;
  }
  for (std::size_t i = 0; i < events->array->size(); ++i) {
    const Value& event = (*events->array)[i];
    if (!event.is_object()) {
      fail("traceEvents[%zu] is not an object", i);
      return nullptr;
    }
    const Value* ph = event.get("ph");
    if (ph == nullptr || !ph->is_string() || ph->string.empty()) {
      fail("traceEvents[%zu] has no 'ph'", i);
      return nullptr;
    }
    const std::string& phase = ph->string;
    std::vector<const char*> number_fields = {"pid", "tid"};
    std::vector<const char*> string_fields;
    if (phase != "M") number_fields.push_back("ts");
    if (phase == "X") number_fields.push_back("dur");
    if (phase == "X" || phase == "B" || phase == "i" || phase == "C") {
      string_fields.push_back("name");
    }
    if (!record_well_formed("traceEvents", i, event, number_fields,
                            string_fields, {})) {
      return nullptr;
    }
    // Counter samples carry their value in args — that is what the trace
    // viewer plots on the per-device counter track.
    const Value* args = event.get("args");
    const Value* value = args != nullptr ? args->get("value") : nullptr;
    if (phase == "C" && (value == nullptr || !value->is_number())) {
      fail("traceEvents[%zu] 'C' event has no numeric args.value", i);
      return nullptr;
    }
  }
  return events->array.get();
}

/// The parsed document, or nullptr after printing why it failed to parse.
template <typename T>
const T* parsed(const ph::Result<T>& result, const char* path) {
  if (result.ok()) return &result.value();
  fail("%s: %s", path, result.error().to_string().c_str());
  return nullptr;
}

/// What a requirement is checked against; which members are set depends
/// on the mode.
struct Inputs {
  const Value* json = nullptr;       // metrics JSON
  const ExpoDoc* metrics = nullptr;  // metrics JSON, --expo
  const ph::obs::prof::FoldedProfile* profile = nullptr;  // --folded
  const ph::obs::json::Array* trace_events = nullptr;     // --chrome
};

bool any_name(const ph::obs::json::Array& records, const std::string& prefix) {
  for (const Value& record : records) {
    const Value* name = record.get("name");
    if (name != nullptr && name->is_string() &&
        starts_with(name->string, prefix)) {
      return true;
    }
  }
  return false;
}

template <typename Table, typename Accept>
bool any_metric(const Table& table, const std::string& prefix, Accept accept) {
  for (const auto& [name, value] : table) {
    if (starts_with(name, prefix) && accept(value)) return true;
  }
  return false;
}

bool series_met(const Value& root, const std::string& prefix) {
  const Value* series = root.get("series");
  if (series == nullptr) return fail("missing 'series' object");
  for (const auto& [name, record] : *series->object) {
    if (!starts_with(name, prefix)) continue;
    const Value* kind = record.get("kind");
    const Value* points = record.get("points");
    if (kind == nullptr || !kind->is_string() || points == nullptr ||
        !points->is_array()) {
      return fail("series '%s' is malformed", name.c_str());
    }
    if (points->array->empty()) continue;  // registered but never sampled
    for (const Value& point : *points->array) {
      if (!point.is_array() || point.array->size() != 2 ||
          !(*point.array)[0].is_number() || !(*point.array)[1].is_number()) {
        return fail("series '%s' has a non-[at,value] point", name.c_str());
      }
    }
    return true;
  }
  return false;
}

bool slo_breach_met(const Value& root, const std::string& prefix) {
  const Value* slo = root.get("slo");
  if (slo == nullptr) return fail("missing 'slo' object");
  const ph::obs::json::Array& windows = *slo->get("windows")->array;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (!record_well_formed("slo.windows", i, windows[i],
                            {"start_us", "end_us"}, {"rule"}, {"open"})) {
      return false;
    }
    if (starts_with(windows[i].get("rule")->string, prefix)) return true;
  }
  return false;
}

bool frame_met(const ph::obs::prof::FoldedProfile& profile,
               const std::string& prefix) {
  for (const auto& entry : profile) {
    const std::string& stack = entry.first;
    for (std::size_t begin = 0; begin <= stack.size();) {
      const std::size_t end = stack.find(';', begin);
      if (starts_with(stack.substr(begin, end - begin), prefix)) return true;
      if (end == std::string::npos) break;
      begin = end + 1;
    }
  }
  return false;
}

/// The one requirement matcher: true when `text` holds for `in`; prints
/// why and returns false otherwise.
bool requirement_met(const Inputs& in, const std::string& text) {
  if (in.trace_events != nullptr) {
    return any_name(*in.trace_events, text) ||
           fail("no trace event named '%s...'", text.c_str());
  }
  const std::string::size_type colon = text.find(':');
  if (colon == std::string::npos) {
    return fail("bad requirement '%s'", text.c_str());
  }
  const std::string kind = text.substr(0, colon);
  const std::string prefix = text.substr(colon + 1);
  const Value* json = in.json;
  const ExpoDoc* doc = in.metrics;
  bool met = false;
  if (doc != nullptr && kind == "counter") {
    met = any_metric(doc->counters, prefix, [](auto) { return true; });
  } else if (doc != nullptr && kind == "counter_nonzero") {
    met = any_metric(doc->counters, prefix, [](auto v) { return v > 0; });
  } else if (doc != nullptr && kind == "gauge") {
    met = any_metric(doc->gauges, prefix, [](auto) { return true; });
  } else if (doc != nullptr && kind == "histogram") {
    met = any_metric(doc->histograms, prefix, [](auto&) { return true; });
  } else if (json != nullptr && (kind == "span" || kind == "event")) {
    const Value* records = json->get(kind == "span" ? "spans" : "events");
    if (records == nullptr) {
      return fail("missing '%ss' array (requirement %s)", kind.c_str(),
                  text.c_str());
    }
    met = any_name(*records->array, prefix);
  } else if (json != nullptr && kind == "series") {
    met = series_met(*json, prefix);
  } else if (json != nullptr && kind == "slo_breach") {
    met = slo_breach_met(*json, prefix);
  } else if (in.profile != nullptr && kind == "frame") {
    met = frame_met(*in.profile, prefix);
  } else {
    return fail("requirement kind '%s' does not apply to this file",
                kind.c_str());
  }
  return met || fail("requirement %s not met", text.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  int file_arg = 1;
  if (argc >= 2 && (std::string(argv[1]) == "--chrome" ||
                    std::string(argv[1]) == "--expo" ||
                    std::string(argv[1]) == "--folded")) {
    mode = argv[1];
    file_arg = 2;
  }
  if (argc < file_arg + 1) {
    std::fprintf(stderr,
                 "usage: %s [--chrome|--expo|--folded] FILE "
                 "[counter:PREFIX|counter_nonzero:PREFIX|gauge:PREFIX"
                 "|histogram:PREFIX|span:PREFIX|event:PREFIX"
                 "|series:PREFIX|slo_breach:PREFIX|frame:PREFIX"
                 "|NAME-PREFIX]...\n",
                 argv[0]);
    return 1;
  }
  const char* path = argv[file_arg];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail("cannot open '%s'", path);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  Inputs inputs;
  Value root;
  ph::Result<ExpoDoc> metrics = ExpoDoc{};
  ph::Result<ph::obs::prof::FoldedProfile> profile =
      ph::obs::prof::FoldedProfile{};
  if (mode == "--expo") {
    metrics = ph::obs::parse_exposition(text);
    inputs.metrics = parsed(metrics, path);
    if (inputs.metrics == nullptr) return 1;
  } else if (mode == "--folded") {
    profile = ph::obs::prof::parse_folded(text);
    inputs.profile = parsed(profile, path);
    if (inputs.profile == nullptr) return 1;
  } else {
    std::string error;
    if (!ph::obs::json::parse(text, root, &error)) {
      fail("%s: parse error: %s", path, error.c_str());
      return 1;
    }
    if (mode == "--chrome") {
      inputs.trace_events = chrome_events(root);
      if (inputs.trace_events == nullptr) return 1;
    } else {
      metrics = ph::obs::metrics_from_json(root);
      inputs.metrics = parsed(metrics, path);
      if (inputs.metrics == nullptr || !optional_sections_well_formed(root)) {
        return 1;
      }
      inputs.json = &root;
    }
  }

  bool ok = true;
  for (int i = file_arg + 1; i < argc; ++i) {
    if (!requirement_met(inputs, argv[i])) ok = false;
  }
  if (!ok) return 1;
  std::fprintf(stderr, "json_check: %s OK (%s%d requirement%s)\n", path,
               mode.empty() ? "" : (mode.substr(2) + ", ").c_str(),
               argc - file_arg - 1, argc - file_arg - 1 == 1 ? "" : "s");
  return 0;
}
