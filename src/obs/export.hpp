// Exporters for the observability core: registry (+ optional trace) to
// JSON and back, the trace journal to Chrome trace-event JSON (openable
// in Perfetto / chrome://tracing), plus the env-var hooks every bench
// main calls at exit.
//
// JSON shape:
//   {
//     "counters":   { "net.medium.datagrams_sent": 123, ... },
//     "gauges":     { ... },
//     "histograms": { "community.client.d2.rpc_us": {
//                       "count": 9, "sum": ..., "min": ..., "max": ...,
//                       "p50": ..., "p95": ..., "p99": ...,
//                       "buckets": [ {"le": 10.0, "count": 0}, ...,
//                                    {"le": "inf", "count": 1} ] }, ... },
//     "series": { "net.medium.datagrams_sent.rate": {
//                   "kind": "counter_rate", "points": [[at_us, value], ...]
//                 }, ... },
//     "slo":    { "total_breaches": 2,
//                 "rules": [ {"name":..,"series":..,"aggregate":..,
//                             "comparison":..,"threshold":..,"window_us":..,
//                             "min_points":..,"breached":false}, ... ],
//                 "windows": [ {"rule":..,"start_us":..,"end_us":..,
//                               "open":false}, ... ] },
//     "spans":  [ {"id":1,"parent":0,"name":..,"kind":..,"device":..,
//                  "start_us":..,"end_us":..,"closed":true}, ... ],
//     "events": [ {"span":1,"name":..,"kind":..,"device":..,"at_us":..}, ... ]
//   }
// ("series"/"slo" appear only when a sampler / SLO engine is supplied,
// "spans"/"events" only when a trace is.)
//
// Chrome trace shape: {"traceEvents":[...]} with one track (pid=tid=
// device id) per device, "X" complete events for closed spans, "B" for
// still-open ones, "i" instants for point events, "s"/"f" flow arrows
// for parent links that cross devices — the causal hops — and, when a
// sampler is supplied, "C" counter events replaying each sampled series
// on the track of the device its `.d<id>.` name segment points at
// (device-less series land on track 0).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/expo.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "util/result.hpp"

namespace ph::obs {

namespace json {
class Value;
}

std::string to_json(const Registry& registry, const Trace* trace = nullptr,
                    const Sampler* sampler = nullptr,
                    const SloEngine* slo = nullptr);

/// Reads the "counters", "gauges" and "histograms" sections of a parsed
/// to_json() document into the exposition's document type, so both wire
/// formats are checked and queried the same way. Fails
/// (Errc::protocol_error) when the top level is not an object, a section
/// is missing or not an object, a metric name is not one the exposition
/// can carry ([a-z0-9._]+, in one section only), a counter is not a
/// non-negative integer, a gauge is not a number, or a histogram is not
/// an object carrying numeric count/sum/p50/p95/p99 and a non-empty
/// "buckets" array of {"le": BOUND, "count": N} entries whose last, and
/// only last, "le" is "inf". Other sections are not read.
Result<ExpoDoc> metrics_from_json(const json::Value& root);

/// Standalone dump of the sampler's rings (+ SLO breach windows): the
/// "series"/"slo" sections of to_json as a self-contained document, with
/// the scrape interval and sample count at top level. This is what
/// $PH_SERIES_JSON receives, and what the determinism gate byte-compares.
std::string series_to_json(const Sampler& sampler,
                           const SloEngine* slo = nullptr);

/// Device id encoded in a metric name's `.d<id>.` segment (the repo-wide
/// naming convention, e.g. "peerhood.daemon.d3.pings_sent" -> 3).
/// Returns 0 when no such segment exists.
std::uint64_t device_from_metric_name(const std::string& name);

/// Renders the journal as Chrome trace-event JSON. `device_names` labels
/// the per-device tracks (unnamed devices show as "device <id>"). With a
/// sampler, every series becomes a "C" counter track on its device.
/// `ts_divisor` divides every timestamp/duration on the way out: the
/// socket backend's journal is stamped in virtual microseconds that are
/// wall microseconds × time_scale, so exporting with ts_divisor ==
/// time_scale yields a Perfetto timeline in true wall-clock time. The
/// trace's clock_domain() tag rides along as a metadata event.
std::string to_chrome_trace(
    const Trace& trace,
    const std::map<std::uint64_t, std::string>& device_names = {},
    const Sampler* sampler = nullptr, double ts_divisor = 1.0);

/// Writes `content` to `path`; returns false (and logs to stderr) on error.
bool write_file(const std::string& path, const std::string& content);

/// The bench-exit hook: when the environment sets PH_METRICS_JSON to a
/// path, dumps a snapshot there; PH_TRACE_JSON
/// dumps the trace as Chrome trace-event JSON (needs a trace);
/// PH_SERIES_JSON dumps the sampler's rings via series_to_json (needs a
/// sampler). Series/SLO sections ride along inside the metrics JSON and
/// the Chrome trace too when those objects are supplied. Warns on
/// stderr when the journal silently dropped records. Returns true when
/// every requested dump succeeded (vacuously true when none requested).
bool dump_if_requested(const Registry& registry, const Trace* trace = nullptr,
                       const std::map<std::uint64_t, std::string>&
                           device_names = {},
                       const Sampler* sampler = nullptr,
                       const SloEngine* slo = nullptr);

/// Trace-only variant of dump_if_requested: writes the Chrome trace JSON
/// to $PH_TRACE_JSON when set. For call sites (per-run eval worlds) whose
/// registry aggregate is dumped elsewhere. Returns true if a file was
/// written.
bool dump_trace_if_requested(const Trace& trace,
                             const std::map<std::uint64_t, std::string>&
                                 device_names = {});

/// True when $PH_TRACE_JSON names a path, i.e. dump_trace_if_requested
/// would write: lets a run enable its trace only when it will be read.
bool trace_dump_requested();

/// Flight-recorder dump: writes the (ring) trace as Chrome trace JSON to
/// $PH_FLIGHT_JSON, or to `fallback_path` when the env var is unset.
/// With neither set this is a no-op (so fault-plane dumps stay opt-in).
/// `reason` ("blackout", "outage", "test_failure") is logged and embedded
/// in the file. Returns true when a dump was written.
bool dump_flight_recording(const Trace& trace, const std::string& reason,
                           const std::string& fallback_path = {});

}  // namespace ph::obs
