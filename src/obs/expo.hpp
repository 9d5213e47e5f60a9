// Prometheus-style text exposition for a Registry — the wire format of
// the ops plane (obs::OpsServer `/metrics`, the ph_ops_dump scraper).
//
// Format, one instrument per stanza:
//
//   # TYPE transport.datagrams_sent counter
//   transport.datagrams_sent 42
//   # TYPE transport.handshake_us histogram
//   transport.handshake_us.count 3
//   transport.handshake_us.sum 1234
//   transport.handshake_us.p50 400
//   transport.handshake_us.p95 610
//   transport.handshake_us.p99 622
//   transport.handshake_us.bucket{le="10"} 0
//   ...
//   transport.handshake_us.bucket{le="+Inf"} 3
//
// Deliberate simplifications against full Prometheus exposition: metric
// names keep the repo's dotted `layer.component.metric` convention
// (lint: [a-z0-9._]+), there are no HELP lines, and quantiles are
// exported as plain `.p50/.p95/.p99` suffixed samples (they are readouts
// of the fixed-bucket histogram, not summaries). Every consumer in-repo
// is ph_ops_dump / ph_obs_json_check --expo; the format stays trivially
// greppable from a shell.
//
// ExpoDoc is the parsed form, built for fleet aggregation: scrape N
// daemons, merge_expositions() them (counters and histogram buckets add,
// gauges sum — a fleet's queue depth is the sum of its members'), and
// render the combined document. Histogram quantiles are recomputed from
// the merged buckets, so the aggregate p95 is the fleet-wide p95, not an
// average of per-daemon quantiles.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/result.hpp"

namespace ph::obs {

/// True iff `name` is a legal exposition metric name: non-empty, only
/// [a-z0-9._] characters.
bool valid_metric_name(const std::string& name);

/// Renders every instrument of `registry` in exposition text format,
/// sorted by name within each kind (counters, then gauges, then
/// histograms — the registry maps are already sorted).
std::string to_exposition(const Registry& registry);

/// A parsed exposition document — the merge/aggregation primitive.
struct ExpoDoc {
  struct Hist {
    std::uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    /// Bucket upper bounds as written (the "+Inf" bucket is implicit:
    /// bucket_counts.size() == bounds.size() + 1).
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_counts;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Hist> histograms;
};

/// Parses exposition text back into a document. Fails with
/// Errc::protocol_error, naming the line where there is one, on:
///   - a line that is neither a `# TYPE name kind` comment (kind is
///     counter, gauge or histogram), another `#` comment, nor a
///     `name value` sample with a numeric value;
///   - a metric name outside [a-z0-9._]+, or a second TYPE for a name;
///   - a sample for an undeclared metric, a bare `name value` sample for
///     a histogram, or a histogram field other than .count, .sum, .p50,
///     .p95, .p99 and .bucket{le="BOUND"};
///   - a bucket bound that is not a number or +Inf, or any bucket after
///     the histogram's +Inf bucket;
///   - a histogram missing one of its five scalar samples or its +Inf
///     bucket.
/// So every parsed histogram has bucket_counts.size() == bounds.size() + 1,
/// which render_exposition() relies on.
Result<ExpoDoc> parse_exposition(const std::string& text);

/// Folds `from` into `into`: counters add, gauges sum, histograms add
/// bucket-wise (bounds must match; mismatched bounds fail). Metrics
/// present in only one document are kept as-is. Gauges SUM (unlike
/// Registry::merge_from's last-wins) because the fleet reading of a
/// depth/backlog gauge is the total across daemons.
Result<void> merge_expositions(ExpoDoc& into, const ExpoDoc& from);

/// Renders a document back to exposition text; histogram p50/p95/p99 are
/// recomputed from the (merged) buckets, not copied from the inputs.
std::string render_exposition(const ExpoDoc& doc);

}  // namespace ph::obs
