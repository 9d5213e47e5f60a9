#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <string>

#include "eval/scenarios.hpp"
#include "net/medium.hpp"
#include "reference_sampler.hpp"
#include "sim/simulator.hpp"

namespace ph::obs {
namespace {

constexpr TimePoint kTick = 100'000;  // 100 ms in µs

// --- TimeSeries ring --------------------------------------------------------

TEST(TimeSeriesTest, KeepsPointsOldestFirst) {
  TimeSeries series(SeriesKind::gauge, 8);
  series.push(10, 1.0);
  series.push(20, 2.0);
  series.push(30, 3.0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series.at(0).at, 10u);
  EXPECT_EQ(series.at(2).value, 3.0);
  EXPECT_EQ(series.back().at, 30u);
  EXPECT_EQ(series.evicted(), 0u);
}

TEST(TimeSeriesTest, EvictsOldestAtCapacity) {
  TimeSeries series(SeriesKind::gauge, 4);
  for (int i = 0; i < 6; ++i) {
    series.push(static_cast<TimePoint>(i * 10), i);
  }
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series.capacity(), 4u);
  EXPECT_EQ(series.total_points(), 6u);
  EXPECT_EQ(series.evicted(), 2u);
  // Oldest surviving point is the third pushed.
  EXPECT_EQ(series.at(0).at, 20u);
  EXPECT_EQ(series.back().at, 50u);
}

// --- quantile over a bucket diff -------------------------------------------

TEST(QuantileFromBucketDeltaTest, ZeroTotalIsZero) {
  EXPECT_EQ(quantile_from_bucket_delta({10, 20}, {0, 0, 0}, 0, 0.5), 0.0);
}

TEST(QuantileFromBucketDeltaTest, InterpolatesInsideFirstBucket) {
  // All 4 observations in (0, 10]: the median interpolates to the middle.
  const double p50 = quantile_from_bucket_delta({10, 20}, {4, 0, 0}, 4, 0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 10.0);
}

TEST(QuantileFromBucketDeltaTest, PicksTheRightBucket) {
  // 1 observation in (0,10], 9 in (10,20]: p95 lands in the second bucket.
  const double p95 =
      quantile_from_bucket_delta({10, 20}, {1, 9, 0}, 10, 0.95);
  EXPECT_GT(p95, 10.0);
  EXPECT_LE(p95, 20.0);
}

TEST(QuantileFromBucketDeltaTest, OverflowBucketClampsToLastBound) {
  EXPECT_EQ(quantile_from_bucket_delta({10, 20}, {0, 0, 5}, 5, 0.99), 20.0);
}

// --- Sampler ----------------------------------------------------------------

TEST(SamplerTest, CounterBecomesRateSeries) {
  Registry registry;
  Counter& c = registry.counter("layer.hits");
  Sampler sampler(registry);

  c.inc(5);
  sampler.sample(kTick);  // first interval: fallback elapsed = interval_us
  c.inc(10);
  sampler.sample(2 * kTick);

  const TimeSeries* rate = sampler.find("layer.hits.rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->kind(), SeriesKind::counter_rate);
  ASSERT_EQ(rate->size(), 2u);
  EXPECT_DOUBLE_EQ(rate->at(0).value, 50.0);   // 5 events / 0.1 s
  EXPECT_DOUBLE_EQ(rate->at(1).value, 100.0);  // 10 events / 0.1 s
}

TEST(SamplerTest, QuietIntervalYieldsZeroRate) {
  Registry registry;
  registry.counter("layer.hits").inc(3);
  Sampler sampler(registry);
  sampler.sample(kTick);
  sampler.sample(2 * kTick);  // nothing happened in between
  const TimeSeries* rate = sampler.find("layer.hits.rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->back().value, 0.0);
}

TEST(SamplerTest, GaugeSamplesLastValue) {
  Registry registry;
  Gauge& g = registry.gauge("layer.depth");
  Sampler sampler(registry);
  g.set(2.5);
  sampler.sample(kTick);
  g.set(7.0);
  sampler.sample(2 * kTick);
  const TimeSeries* series = sampler.find("layer.depth");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 2u);
  EXPECT_DOUBLE_EQ(series->at(0).value, 2.5);
  EXPECT_DOUBLE_EQ(series->at(1).value, 7.0);
}

TEST(SamplerTest, HistogramDiffQuantilesOnlyWhenIntervalSawSamples) {
  Registry registry;
  Histogram& h = registry.histogram("layer.latency_us");
  Sampler sampler(registry);

  h.observe(50.0);
  h.observe(50.0);
  sampler.sample(kTick);
  sampler.sample(2 * kTick);  // empty interval
  h.observe(2e6);
  sampler.sample(3 * kTick);

  const TimeSeries* rate = sampler.find("layer.latency_us.rate");
  const TimeSeries* p95 = sampler.find("layer.latency_us.p95");
  ASSERT_NE(rate, nullptr);
  ASSERT_NE(p95, nullptr);
  // The rate series has a point per sample; the quantile series skips the
  // empty interval.
  EXPECT_EQ(rate->size(), 3u);
  EXPECT_DOUBLE_EQ(rate->at(1).value, 0.0);
  ASSERT_EQ(p95->size(), 2u);
  EXPECT_LE(p95->at(0).value, 100.0);   // both samples in a low bucket
  EXPECT_GT(p95->at(1).value, 100.0);   // only the 2 s observation
}

TEST(SamplerTest, PerIntervalQuantilesForgetOldIntervals) {
  // A registry-level Histogram quantile is cumulative; the sampler's
  // per-interval p50 must reflect only the newest interval's observations.
  Registry registry;
  Histogram& h = registry.histogram("layer.latency_us");
  Sampler sampler(registry);
  for (int i = 0; i < 100; ++i) h.observe(50.0);
  sampler.sample(kTick);
  h.observe(2e6);
  sampler.sample(2 * kTick);
  const TimeSeries* p50 = sampler.find("layer.latency_us.p50");
  ASSERT_NE(p50, nullptr);
  ASSERT_EQ(p50->size(), 2u);
  // Interval 2 held exactly one 2 s observation, so its p50 is in the 2 s
  // bucket even though 100 fast ones came before.
  EXPECT_GT(p50->back().value, 1e6);
}

TEST(SamplerTest, LateRegisteredMetricsJoinOnNextScrape) {
  Registry registry;
  registry.counter("early").inc(1);
  Sampler sampler(registry);
  sampler.sample(kTick);
  EXPECT_EQ(sampler.find("late.rate"), nullptr);

  registry.counter("late").inc(4);
  sampler.sample(2 * kTick);
  const TimeSeries* late = sampler.find("late.rate");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->size(), 1u);
  EXPECT_EQ(sampler.allocations(), sampler.series().size());
}

TEST(SamplerTest, DisabledSamplerDoesNothing) {
  Registry registry;
  registry.counter("x").inc(1);
  Sampler sampler(registry);
  sampler.set_enabled(false);
  sampler.sample(kTick);
  EXPECT_EQ(sampler.samples_taken(), 0u);
  EXPECT_TRUE(sampler.series().empty());
  EXPECT_EQ(sampler.allocations(), 0u);
}

TEST(SamplerTest, RepeatedTimestampIsIgnored) {
  Registry registry;
  registry.counter("x").inc(1);
  Sampler sampler(registry);
  sampler.sample(kTick);
  sampler.sample(kTick);
  EXPECT_EQ(sampler.samples_taken(), 1u);
}

// The O(series) allocation guarantee over a real scenario: sampling the
// ComLab testbed world at 100 ms for 30 virtual seconds allocates exactly
// one ring per series — steady-state scrapes allocate nothing.
TEST(SamplerTest, AllocationsStayOrderSeriesOverScenario) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(42));
  auto devices = eval::comlab_room(medium, /*autostart=*/true);

  Sampler sampler(medium.registry(),
                  {.interval_us = kTick, .capacity = 512});
  simulator.schedule_periodic(kTick, [&] { sampler.sample(simulator.now()); });
  simulator.run_until(sim::seconds(30));

  EXPECT_EQ(sampler.samples_taken(), 300u);
  EXPECT_GT(sampler.series().size(), 20u);  // the world is instrumented
  EXPECT_EQ(sampler.allocations(), sampler.series().size());
  // Sanity: a real health series both exists and moved.
  bool saw_nonempty_daemon_series = false;
  for (const auto& [name, series] : sampler.series()) {
    if (name.find("peerhood.daemon.") != std::string::npos &&
        !series.empty()) {
      saw_nonempty_daemon_series = true;
    }
  }
  EXPECT_TRUE(saw_nonempty_daemon_series);
}

// The bound scrape against the name-lookup oracle: 40 scrapes at ring
// capacity 8 (so every ring wraps), uneven intervals and a repeated stamp,
// a counter, a gauge and a histogram registered between scrapes with names
// that sort between the bound ones, and histogram intervals with no
// observations (their quantile series skip those scrapes). Every series,
// stamps included, must match point for point after every scrape.
TEST(Sampler, BoundScrapeMatchesNameLookupOracle) {
  Registry registry;
  Counter& frames = registry.counter("b.frames");
  Counter& drops = registry.counter("d.drops");
  Gauge& depth = registry.gauge("b.depth");
  Histogram& latency = registry.histogram("b.latency_us");
  const SamplerConfig config{.interval_us = kTick, .capacity = 8};
  Sampler sampler(registry, config);
  testing::ReferenceSampler oracle(registry, config);

  Counter* late_counter = nullptr;
  Gauge* late_gauge = nullptr;
  Histogram* late_hist = nullptr;
  std::uint64_t lcg = 12345;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };

  TimePoint now = 0;
  for (int scrape = 0; scrape < 40; ++scrape) {
    if (scrape == 5) late_counter = &registry.counter("c.late_frames");
    if (scrape == 11) late_gauge = &registry.gauge("a.late_depth");
    if (scrape == 17) {
      late_hist = &registry.histogram("c.late_us", {10, 100, 1000});
    }
    frames.inc(next() % 50);
    if (scrape % 3 == 0) drops.inc(next() % 4);
    depth.set(static_cast<double>(next() % 1000) / 8.0);
    // Every fourth interval sees no latency observation.
    if (scrape % 4 != 1) {
      for (std::uint64_t n = next() % 6 + 1; n > 0; --n) {
        latency.observe(static_cast<double>(next() % 3'000'000));
      }
    }
    if (late_counter != nullptr) late_counter->inc(next() % 7);
    if (late_gauge != nullptr) late_gauge->add(1.5);
    if (late_hist != nullptr && scrape % 5 < 2) {
      late_hist->observe(static_cast<double>(next() % 2000));
    }
    // Uneven intervals; scrape 23 repeats the previous stamp.
    if (scrape != 23) now += kTick / 2 + (next() % 4) * kTick / 4;
    sampler.sample(now);
    oracle.sample(now);

    ASSERT_EQ(sampler.series().size(), oracle.series().size()) << scrape;
    for (const auto& [name, expected] : oracle.series()) {
      const TimeSeries* got = sampler.find(name);
      ASSERT_NE(got, nullptr) << name << " at scrape " << scrape;
      EXPECT_EQ(got->kind(), expected.kind) << name;
      ASSERT_EQ(got->size(), expected.points.size())
          << name << " at scrape " << scrape;
      EXPECT_EQ(got->total_points(), expected.total) << name;
      for (std::size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ(got->at(i).at, expected.points[i].at)
            << name << "[" << i << "] at scrape " << scrape;
        EXPECT_EQ(got->at(i).value, expected.points[i].value)
            << name << "[" << i << "] at scrape " << scrape;
      }
    }
  }
  // The rings wrapped, and some quantile intervals were skipped.
  EXPECT_EQ(sampler.find("b.frames.rate")->evicted(), 31u);
  EXPECT_LT(sampler.find("b.latency_us.p50")->total_points(),
            sampler.find("b.latency_us.rate")->total_points());
  EXPECT_EQ(sampler.allocations(), sampler.series().size());
}

}  // namespace
}  // namespace ph::obs
