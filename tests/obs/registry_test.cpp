// ph::obs::Registry — instrument semantics, percentile math, merging and
// the name/kind collision contract.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace ph::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Registry registry;
  Counter& c = registry.counter("net.medium.datagrams_sent");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, SameNameReturnsSameInstrument) {
  Registry registry;
  Counter& a = registry.counter("peerhood.daemon.d1.pings_sent");
  a.inc(3);
  Counter& b = registry.counter("peerhood.daemon.d1.pings_sent");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Gauge, SetAndAdd) {
  Registry registry;
  Gauge& g = registry.gauge("sim.kernel.events_per_sec");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Registry, FindReturnsNullForAbsentNames) {
  Registry registry;
  registry.counter("a");
  EXPECT_NE(registry.find_counter("a"), nullptr);
  EXPECT_EQ(registry.find_counter("b"), nullptr);
  EXPECT_EQ(registry.find_gauge("a"), nullptr);
  EXPECT_EQ(registry.find_histogram("a"), nullptr);
}

TEST(Registry, GenerationCountsCreationsOnly) {
  Registry registry;
  EXPECT_EQ(registry.generation(), 0u);
  registry.counter("a.frames");
  registry.gauge("a.depth");
  registry.histogram("a.latency_us");
  EXPECT_EQ(registry.generation(), 3u);
  // Looking up existing names, by handle or read-only, creates nothing.
  registry.counter("a.frames").inc();
  registry.gauge("a.depth").set(2.0);
  registry.histogram("a.latency_us").observe(5.0);
  (void)registry.find_counter("a.frames");
  (void)registry.find_gauge("absent");
  (void)registry.snapshot("a.");
  EXPECT_EQ(registry.generation(), 3u);
  // A merge bumps only for the instruments it creates.
  Registry other;
  other.counter("a.frames").inc(4);
  other.counter("b.frames").inc(1);
  registry.merge_from(other);
  EXPECT_EQ(registry.generation(), 4u);
}

TEST(RegistryDeathTest, NameKindCollisionAborts) {
  Registry registry;
  registry.counter("community.groups.joins");
  EXPECT_DEATH(registry.gauge("community.groups.joins"), "PH_CHECK");
  EXPECT_DEATH(registry.histogram("community.groups.joins"), "PH_CHECK");
}

TEST(Histogram, EmptyHistogramReadsZero) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

TEST(Histogram, CountSumMinMaxMean) {
  Histogram h({10.0, 100.0, 1000.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  h.observe(5000.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 5555.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5555.0 / 4.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);  // overflow
}

TEST(Histogram, QuantilesOnKnownUniformDistribution) {
  // 100 samples 1..100 over unit-wide buckets: the interpolated quantile
  // must land within one bucket width of the exact order statistic.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(static_cast<double>(i));
  Histogram h(bounds);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_NEAR(h.p50(), 50.0, 1.0);
  EXPECT_NEAR(h.p95(), 95.0, 1.0);
  EXPECT_NEAR(h.p99(), 99.0, 1.0);
  EXPECT_NEAR(h.quantile(0.0), 1.0, 1.0);
  // Quantiles are clamped to the observed range.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, QuantileClampedToObservedRange) {
  Histogram h({10.0, 100.0, 1000.0});
  h.observe(42.0);
  h.observe(42.0);
  // All mass in one bucket: every quantile is the single observed value.
  EXPECT_DOUBLE_EQ(h.p50(), 42.0);
  EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(Histogram, MergeAddsBucketwise) {
  Histogram a({10.0, 100.0});
  Histogram b({10.0, 100.0});
  a.observe(5.0);
  b.observe(50.0);
  b.observe(500.0);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 500.0);
  EXPECT_EQ(a.bucket_counts()[0], 1u);
  EXPECT_EQ(a.bucket_counts()[1], 1u);
  EXPECT_EQ(a.bucket_counts()[2], 1u);
}

TEST(Registry, MergeFromCombinesAllKinds) {
  Registry a;
  Registry b;
  a.counter("shared").inc(1);
  b.counter("shared").inc(2);
  b.counter("only_b").inc(7);
  b.gauge("depth").set(3.0);
  b.histogram("lat", {1.0, 2.0}).observe(1.5);

  a.merge_from(b);
  EXPECT_EQ(a.counter("shared").value(), 3u);
  EXPECT_EQ(a.counter("only_b").value(), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("depth").value(), 3.0);
  const Histogram* lat = a.find_histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 1u);
  // b is untouched.
  EXPECT_EQ(b.counter("shared").value(), 2u);
}

TEST(Snapshot, PrefixScopesAndStripsNames) {
  Registry registry;
  registry.counter("net.medium.frames").inc(4);
  registry.counter("net.medium.drops").inc(1);
  registry.counter("peerhood.pings").inc(9);
  registry.gauge("net.medium.load").set(0.5);
  registry.histogram("net.medium.lat_us", {10.0, 100.0}).observe(42.0);

  const Snapshot net = registry.snapshot("net.medium.");
  EXPECT_EQ(net.prefix(), "net.medium.");
  EXPECT_FALSE(net.empty());
  EXPECT_EQ(net.counter("frames"), 4u);
  EXPECT_EQ(net.counter("drops"), 1u);
  EXPECT_EQ(net.counter("pings"), 0u);  // other prefix, absent => 0
  EXPECT_DOUBLE_EQ(net.gauge("load"), 0.5);
  const Histogram* lat = net.histogram("lat_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 1u);
  EXPECT_EQ(net.histogram("nope"), nullptr);
  EXPECT_EQ(net.counters().size(), 2u);

  const Snapshot all = registry.snapshot();
  EXPECT_EQ(all.counter("peerhood.pings"), 9u);
  EXPECT_EQ(all.counters().size(), 3u);
}

TEST(Snapshot, EqualityComparesContentNotPrefix) {
  Registry x;
  Registry y;
  x.counter("a.frames").inc(2);
  y.counter("b.frames").inc(2);
  // Same content under different prefixes: equal views.
  EXPECT_EQ(x.snapshot("a."), y.snapshot("b."));

  y.counter("b.frames").inc();
  EXPECT_NE(x.snapshot("a."), y.snapshot("b."));

  Registry z;
  z.counter("a.frames").inc(2);
  z.histogram("a.lat", {1.0}).observe(0.5);
  EXPECT_NE(x.snapshot("a."), z.snapshot("a."));
  x.histogram("a.lat", {1.0}).observe(0.5);
  EXPECT_EQ(x.snapshot("a."), z.snapshot("a."));
  z.histogram("a.lat", {1.0}).observe(0.7);
  EXPECT_NE(x.snapshot("a."), z.snapshot("a."));
}

TEST(Merge, MissingInstrumentsCreatedInTarget) {
  // Instruments only the source has must appear in the target with the
  // source's values — a fresh aggregate merges a whole world in.
  Registry source;
  source.counter("net.frames").inc(5);
  source.gauge("net.depth").set(2.5);
  source.histogram("net.lat", {1.0, 2.0}).observe(1.5);
  Registry target;
  target.merge_from(source);
  EXPECT_EQ(target.counter("net.frames").value(), 5u);
  EXPECT_DOUBLE_EQ(target.gauge("net.depth").value(), 2.5);
  EXPECT_EQ(target.histogram("net.lat", {1.0, 2.0}).count(), 1u);
  EXPECT_DOUBLE_EQ(target.histogram("net.lat", {1.0, 2.0}).sum(), 1.5);
}

TEST(Merge, TargetOnlyInstrumentsSurviveUntouched) {
  Registry source;
  source.counter("a.n").inc(1);
  Registry target;
  target.counter("b.n").inc(7);
  target.histogram("b.lat", {1.0}).observe(0.5);
  target.merge_from(source);
  EXPECT_EQ(target.counter("a.n").value(), 1u);
  EXPECT_EQ(target.counter("b.n").value(), 7u);
  EXPECT_EQ(target.histogram("b.lat", {1.0}).count(), 1u);
}

TEST(Merge, EmptySourceIsANoOp) {
  Registry target;
  target.counter("a.n").inc(3);
  target.histogram("a.lat", {1.0}).observe(0.25);
  const Snapshot before = target.snapshot("a.");
  Registry empty;
  target.merge_from(empty);
  EXPECT_EQ(target.snapshot("a."), before);
}

TEST(Merge, HistogramMinMaxAcrossEmptySides) {
  // Merging into an empty histogram adopts the source extremes; merging an
  // empty source must not clobber them with zeroes.
  Registry source;
  source.histogram("h", {10.0}).observe(3.0);
  source.histogram("h", {10.0}).observe(8.0);
  Registry target;
  target.histogram("h", {10.0}).merge_from(source.histogram("h", {10.0}));
  EXPECT_DOUBLE_EQ(target.histogram("h", {10.0}).min(), 3.0);
  EXPECT_DOUBLE_EQ(target.histogram("h", {10.0}).max(), 8.0);
  Histogram empty({10.0});
  target.histogram("h", {10.0}).merge_from(empty);
  EXPECT_DOUBLE_EQ(target.histogram("h", {10.0}).min(), 3.0);
  EXPECT_DOUBLE_EQ(target.histogram("h", {10.0}).max(), 8.0);
  EXPECT_EQ(target.histogram("h", {10.0}).count(), 2u);
}

TEST(MergeDeathTest, MismatchedBoundsAbort) {
  // Same name, different buckets: the sums would be meaningless, so the
  // merge refuses loudly rather than guessing.
  Registry source;
  source.histogram("h.lat", {1.0, 2.0}).observe(0.5);
  Registry target;
  target.histogram("h.lat", {5.0}).observe(0.5);
  EXPECT_DEATH(target.merge_from(source), "PH_CHECK");
}

TEST(Snapshot, IsAPointInTimeCopy) {
  Registry registry;
  registry.counter("x.n").inc();
  const Snapshot before = registry.snapshot("x.");
  registry.counter("x.n").inc(10);
  EXPECT_EQ(before.counter("n"), 1u);  // unchanged by later activity
  EXPECT_EQ(registry.snapshot("x.").counter("n"), 11u);
}

TEST(DefaultBounds, AreStrictlyIncreasing) {
  for (const std::vector<double>* bounds :
       {&default_latency_bounds_us(), &operation_bounds_s()}) {
    ASSERT_FALSE(bounds->empty());
    for (std::size_t i = 1; i < bounds->size(); ++i) {
      EXPECT_LT((*bounds)[i - 1], (*bounds)[i]);
    }
  }
}

}  // namespace
}  // namespace ph::obs
