// Exposition round-trip and fleet-merge semantics (obs/expo.hpp), and the
// metrics-JSON reader that yields the same document (obs/export.hpp).
#include "obs/expo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ph::obs {
namespace {

TEST(ExpoName, LintsTheDottedLowercaseGrammar) {
  EXPECT_TRUE(valid_metric_name("transport.datagrams_sent"));
  EXPECT_TRUE(valid_metric_name("a.b_c.d9"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("Transport.count"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("curly{brace}"));
}

TEST(ExpoRender, RoundTripsEveryInstrumentKind) {
  Registry registry;
  registry.counter("net.frames").inc(42);
  registry.gauge("net.depth").set(2.5);
  Histogram& h = registry.histogram("net.latency_us");
  h.observe(15.0);
  h.observe(90.0);
  h.observe(90.0);

  const std::string text = to_exposition(registry);
  EXPECT_NE(text.find("# TYPE net.frames counter\nnet.frames 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE net.depth gauge\nnet.depth 2.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("net.latency_us.count 3\n"), std::string::npos);
  // Per-bucket counts, not Prometheus-cumulative: the two 90 µs samples
  // land in the le="100" bucket and the overflow bucket stays 0.
  EXPECT_NE(text.find(".bucket{le=\"100\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find(".bucket{le=\"+Inf\"} 0\n"), std::string::npos);

  auto parsed = parse_exposition(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const ExpoDoc& doc = parsed.value();
  EXPECT_EQ(doc.counters.at("net.frames"), 42u);
  EXPECT_DOUBLE_EQ(doc.gauges.at("net.depth"), 2.5);
  const ExpoDoc::Hist& hist = doc.histograms.at("net.latency_us");
  EXPECT_EQ(hist.count, 3u);
  EXPECT_DOUBLE_EQ(hist.sum, h.sum());
  EXPECT_EQ(hist.bucket_counts.size(), hist.bounds.size() + 1);

  // Render → parse → render must be a fixed point: the text form is the
  // interchange format, so it cannot drift through a scrape/merge cycle.
  const std::string rendered = render_exposition(doc);
  auto reparsed = parse_exposition(rendered);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(render_exposition(reparsed.value()), rendered);
}

TEST(ExpoParse, RejectsMalformedDocuments) {
  // Sample without a TYPE declaration.
  EXPECT_FALSE(parse_exposition("orphan 1\n").ok());
  // Duplicate TYPE.
  EXPECT_FALSE(parse_exposition("# TYPE a counter\n# TYPE a counter\na 1\n")
                   .ok());
  // Illegal name.
  EXPECT_FALSE(parse_exposition("# TYPE BAD counter\nBAD 1\n").ok());
  // Histogram sample with an unknown field suffix.
  EXPECT_FALSE(
      parse_exposition("# TYPE h histogram\nh.count 1\nh.median 3\n").ok());
  // Non-numeric value.
  EXPECT_FALSE(parse_exposition("# TYPE a counter\na banana\n").ok());
}

// One well-formed histogram stanza; the tests below break it one rule at
// a time.
constexpr const char* kHistogramHead =
    "# TYPE h histogram\n"
    "h.count 3\n"
    "h.sum 30\n"
    "h.p50 10\n"
    "h.p95 10\n"
    "h.p99 10\n"
    "h.bucket{le=\"10\"} 0\n";

TEST(ExpoParse, RejectsADuplicatedInfBucket) {
  // ph_ops_dump renders whatever parses. Accepted, this stanza has two
  // buckets past its one bound, and rendering it reads bounds[1].
  auto parsed = parse_exposition(std::string(kHistogramHead) +
                                 "h.bucket{le=\"+Inf\"} 0\n"
                                 "h.bucket{le=\"+Inf\"} 3\n");
  ASSERT_FALSE(parsed.ok()) << render_exposition(parsed.value());
  EXPECT_EQ(parsed.error().code, Errc::protocol_error);
}

TEST(ExpoParse, RejectsAHistogramWithoutOneClosingInfBucket) {
  for (const char* tail : {
           // No +Inf bucket at all.
           "",
           // A finite bucket after the +Inf one.
           "h.bucket{le=\"+Inf\"} 3\nh.bucket{le=\"100\"} 0\n",
           // -Inf and NaN are neither bounds nor the overflow bucket.
           "h.bucket{le=\"-Inf\"} 0\nh.bucket{le=\"+Inf\"} 3\n",
           "h.bucket{le=\"nan\"} 0\nh.bucket{le=\"+Inf\"} 3\n",
       }) {
    auto parsed = parse_exposition(kHistogramHead + std::string(tail));
    ASSERT_FALSE(parsed.ok()) << tail;
    EXPECT_EQ(parsed.error().code, Errc::protocol_error) << tail;
  }
}

TEST(ExpoParse, RejectsAHistogramMissingAScalarSample) {
  const std::string full =
      std::string(kHistogramHead) + "h.bucket{le=\"+Inf\"} 3\n";
  ASSERT_TRUE(parse_exposition(full).ok());
  for (const char* field : {"count", "sum", "p50", "p95", "p99"}) {
    const std::string line = std::string("h.") + field + " ";
    const std::size_t at = full.find(line);
    ASSERT_NE(at, std::string::npos) << field;
    std::string text = full;
    text.erase(at, text.find('\n', at) + 1 - at);
    auto parsed = parse_exposition(text);
    ASSERT_FALSE(parsed.ok()) << field;
    EXPECT_EQ(parsed.error().code, Errc::protocol_error) << field;
  }
}

TEST(ExpoMerge, CountersAddGaugesSumBucketsAdd) {
  Registry a;
  a.counter("fleet.ops").inc(10);
  a.gauge("fleet.queue_bytes").set(100.0);
  Histogram& ha = a.histogram("fleet.rtt_us");
  ha.observe(20.0);

  Registry b;
  b.counter("fleet.ops").inc(5);
  b.counter("fleet.only_b").inc(1);
  b.gauge("fleet.queue_bytes").set(50.0);
  Histogram& hb = b.histogram("fleet.rtt_us");
  hb.observe(20.0);
  hb.observe(5000.0);

  auto da = parse_exposition(to_exposition(a));
  auto db = parse_exposition(to_exposition(b));
  ASSERT_TRUE(da.ok() && db.ok());
  ExpoDoc merged = da.value();
  ASSERT_TRUE(merge_expositions(merged, db.value()).ok());

  EXPECT_EQ(merged.counters.at("fleet.ops"), 15u);
  EXPECT_EQ(merged.counters.at("fleet.only_b"), 1u);
  // Fleet reading of a depth gauge: the members' sum, not last-wins.
  EXPECT_DOUBLE_EQ(merged.gauges.at("fleet.queue_bytes"), 150.0);
  const ExpoDoc::Hist& hist = merged.histograms.at("fleet.rtt_us");
  EXPECT_EQ(hist.count, 3u);
  EXPECT_DOUBLE_EQ(hist.sum, 5040.0);

  // The re-render recomputes quantiles from merged buckets: with 2 of 3
  // samples in the low bucket, p50 must sit at the low bucket's bound,
  // not at an average of the inputs' p50 readouts.
  auto reparsed = parse_exposition(render_exposition(merged));
  ASSERT_TRUE(reparsed.ok());
  const ExpoDoc::Hist& rendered = reparsed.value().histograms.at("fleet.rtt_us");
  EXPECT_LT(rendered.p50, 100.0);
  EXPECT_GE(rendered.p99, 1000.0);
}

TEST(ExpoMerge, MismatchedHistogramBoundsFail) {
  ExpoDoc a;
  a.histograms["h"].bounds = {1.0, 2.0};
  a.histograms["h"].bucket_counts = {0, 0, 0};
  ExpoDoc b;
  b.histograms["h"].bounds = {1.0, 3.0};
  b.histograms["h"].bucket_counts = {0, 0, 0};
  EXPECT_FALSE(merge_expositions(a, b).ok());
}

Result<ExpoDoc> read_json(const std::string& text) {
  json::Value root;
  std::string error;
  if (!json::parse(text, root, &error)) {
    return Error{Errc::invalid_argument, error};
  }
  return metrics_from_json(root);
}

TEST(MetricsJson, ReadsWhatTheExpositionCarries) {
  Registry registry;
  registry.counter("net.frames").inc(42);
  registry.counter("net.idle");
  registry.gauge("net.depth").set(2.5);
  registry.gauge("net.ratio").set(1.0 / 3.0);
  Histogram& h = registry.histogram("net.latency_us");
  h.observe(15.0);
  h.observe(90.0);
  h.observe(1e9);
  registry.histogram("net.empty_us");

  auto from_json = read_json(to_json(registry));
  auto from_expo = parse_exposition(to_exposition(registry));
  ASSERT_TRUE(from_json.ok()) << from_json.error().to_string();
  ASSERT_TRUE(from_expo.ok()) << from_expo.error().to_string();
  const ExpoDoc& a = from_json.value();
  const ExpoDoc& b = from_expo.value();
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (const auto& [name, hist] : a.histograms) {
    const ExpoDoc::Hist& other = b.histograms.at(name);
    EXPECT_EQ(hist.count, other.count) << name;
    EXPECT_EQ(hist.sum, other.sum) << name;
    EXPECT_EQ(hist.p50, other.p50) << name;
    EXPECT_EQ(hist.p95, other.p95) << name;
    EXPECT_EQ(hist.p99, other.p99) << name;
    EXPECT_EQ(hist.bounds, other.bounds) << name;
    EXPECT_EQ(hist.bucket_counts, other.bucket_counts) << name;
  }
  EXPECT_EQ(a.histograms.at("net.latency_us").bucket_counts.back(), 1u);
}

TEST(MetricsJson, RejectsMalformedMetricSections) {
  const std::string empty = R"("counters":{},"gauges":{},"histograms":{})";
  const std::string scalars = R"("count":1,"sum":5,"p50":5,"p95":5,"p99":5)";
  auto with_histogram = [&](const std::string& body) {
    return R"({"counters":{},"gauges":{},"histograms":{"h":{)" + body + "}}}";
  };
  auto with_buckets = [&](const std::string& buckets) {
    return with_histogram(scalars + R"(,"buckets":[)" + buckets + "]");
  };
  ASSERT_TRUE(read_json("{" + empty + "}").ok());
  ASSERT_TRUE(read_json(with_buckets(R"({"le":10,"count":1},)"
                                     R"({"le":"inf","count":0})"))
                  .ok());
  const std::vector<std::string> malformed = {
      "[]",
      R"({"gauges":{},"histograms":{}})",
      R"({"counters":{},"histograms":{}})",
      R"({"counters":{},"gauges":{}})",
      R"({"counters":[],"gauges":{},"histograms":{}})",
      R"({"counters":{"c":"3"},"gauges":{},"histograms":{}})",
      R"({"counters":{"c":-1},"gauges":{},"histograms":{}})",
      R"({"counters":{"c":0.5},"gauges":{},"histograms":{}})",
      R"({"counters":{},"gauges":{"g":null},"histograms":{}})",
      R"({"counters":{},"gauges":{},"histograms":{"h":5}})",
      with_histogram(R"("sum":5,"p50":5,"p95":5,"p99":5,"buckets":[{"le":"inf","count":1}])"),
      with_histogram(R"("count":1,"p50":5,"p95":5,"p99":5,"buckets":[{"le":"inf","count":1}])"),
      with_histogram(R"("count":1,"sum":5,"p95":5,"p99":5,"buckets":[{"le":"inf","count":1}])"),
      with_histogram(R"("count":1,"sum":5,"p50":5,"p99":5,"buckets":[{"le":"inf","count":1}])"),
      with_histogram(R"("count":1,"sum":5,"p50":5,"p95":5,"buckets":[{"le":"inf","count":1}])"),
      with_histogram(scalars),
      with_buckets(""),
      with_buckets(R"({"le":10,"count":1})"),
      with_buckets(R"({"le":"inf","count":1},{"le":10,"count":0})"),
      with_buckets(R"({"le":null,"count":0},{"le":"inf","count":1})"),
      with_buckets(R"({"le":"inf"})"),
  };
  for (const std::string& text : malformed) {
    auto doc = read_json(text);
    ASSERT_FALSE(doc.ok()) << text;
    EXPECT_EQ(doc.error().code, Errc::protocol_error) << text;
  }
}

// A name the exposition cannot carry used to be read, and the exposition
// rendered from it then failed to parse: an illegal name, or one name in
// two sections (the exposition declares one TYPE per name).
TEST(MetricsJson, RejectsNamesTheExpositionCannotCarry) {
  for (const std::string text : {
           R"({"counters":{"Net.frames":1},"gauges":{},"histograms":{}})",
           R"({"counters":{},"gauges":{"net depth":1},"histograms":{}})",
           R"({"counters":{"":1},"gauges":{},"histograms":{}})",
           R"({"counters":{"net.x":1},"gauges":{"net.x":2},"histograms":{}})",
       }) {
    auto doc = read_json(text);
    ASSERT_FALSE(doc.ok()) << text;
    EXPECT_EQ(doc.error().code, Errc::protocol_error) << text;
  }
  auto doc = read_json(
      R"({"counters":{"net.x_1":1},"gauges":{"net.y":2},"histograms":{}})");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_TRUE(parse_exposition(render_exposition(doc.value())).ok());
}

}  // namespace
}  // namespace ph::obs
