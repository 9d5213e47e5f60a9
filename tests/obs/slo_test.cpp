#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/sampler.hpp"

namespace ph::obs {
namespace {

constexpr TimePoint kTick = 100'000;  // 100 ms in µs

struct SloFixture : ::testing::Test {
  Registry registry;
  Sampler sampler{registry};
  Trace trace;
  SloEngine slo{sampler, registry, &trace};

  SloFixture() { trace.set_enabled(true); }

  /// One scrape + evaluation at `at`, with the gauge set first.
  void step(Gauge& gauge, double value, TimePoint at) {
    gauge.set(value);
    sampler.sample(at);
    slo.evaluate(at);
  }
};

TEST_F(SloFixture, BreachAndRecoveryDriveCountersGaugeAndWindows) {
  Gauge& g = registry.gauge("layer.depth");
  slo.add_rule({.name = "deep",
                .series = "layer.depth",
                .aggregate = SloAggregate::last,
                .comparison = SloComparison::above,
                .threshold = 5.0});

  step(g, 3.0, kTick);
  EXPECT_FALSE(slo.breached("deep"));
  EXPECT_EQ(slo.total_breaches(), 0u);

  step(g, 7.0, 2 * kTick);
  EXPECT_TRUE(slo.breached("deep"));
  EXPECT_EQ(slo.total_breaches(), 1u);
  EXPECT_EQ(registry.counter("obs.slo.deep.breaches").value(), 1u);
  EXPECT_EQ(registry.gauge("obs.slo.deep.breached").value(), 1.0);
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_TRUE(slo.windows()[0].open);
  EXPECT_EQ(slo.windows()[0].start, 2 * kTick);

  // Still unhealthy: same window extends, no second breach counted.
  step(g, 9.0, 3 * kTick);
  EXPECT_EQ(slo.total_breaches(), 1u);
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_EQ(slo.windows()[0].end, 3 * kTick);

  step(g, 2.0, 4 * kTick);
  EXPECT_FALSE(slo.breached("deep"));
  EXPECT_EQ(registry.gauge("obs.slo.deep.breached").value(), 0.0);
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_FALSE(slo.windows()[0].open);
  EXPECT_EQ(slo.windows()[0].end, 4 * kTick);
  // Recovery does not increment the breach counter.
  EXPECT_EQ(registry.counter("obs.slo.deep.breaches").value(), 1u);
}

TEST_F(SloFixture, BelowComparison) {
  Gauge& g = registry.gauge("groups.formed");
  slo.add_rule({.name = "unformed",
                .series = "groups.formed",
                .aggregate = SloAggregate::last,
                .comparison = SloComparison::below,
                .threshold = 1.0});
  step(g, 1.0, kTick);
  EXPECT_FALSE(slo.breached("unformed"));
  step(g, 0.0, 2 * kTick);
  EXPECT_TRUE(slo.breached("unformed"));
}

TEST_F(SloFixture, MeanOverWindow) {
  Gauge& g = registry.gauge("x");
  slo.add_rule({.name = "hot",
                .series = "x",
                .aggregate = SloAggregate::mean,
                .comparison = SloComparison::above,
                .threshold = 4.0,
                .window_us = 3 * kTick,
                .min_points = 2});
  step(g, 0.0, kTick);
  step(g, 10.0, 2 * kTick);  // mean 5 > 4 with 2 in-window points
  EXPECT_TRUE(slo.breached("hot"));
}

TEST_F(SloFixture, MaxOverWindowHoldsUntilSpikeLeavesWindow) {
  Gauge& g = registry.gauge("x");
  slo.add_rule({.name = "spiky",
                .series = "x",
                .aggregate = SloAggregate::max,
                .comparison = SloComparison::above,
                .threshold = 5.0,
                .window_us = 2 * kTick});
  step(g, 9.0, kTick);
  EXPECT_TRUE(slo.breached("spiky"));
  // Points with at >= now - window participate: at t=300 ms the t=100 ms
  // spike still counts; by t=400 ms it has left the window and the rule
  // recovers.
  step(g, 0.0, 3 * kTick);
  EXPECT_TRUE(slo.breached("spiky"));
  step(g, 0.0, 4 * kTick);
  EXPECT_FALSE(slo.breached("spiky"));
}

TEST_F(SloFixture, MinPointsAbstains) {
  Gauge& g = registry.gauge("x");
  slo.add_rule({.name = "patient",
                .series = "x",
                .aggregate = SloAggregate::mean,
                .comparison = SloComparison::above,
                .threshold = 1.0,
                .window_us = 10 * kTick,
                .min_points = 3});
  step(g, 100.0, kTick);
  EXPECT_FALSE(slo.breached("patient"));  // 1 point < min_points
  step(g, 100.0, 2 * kTick);
  EXPECT_FALSE(slo.breached("patient"));  // 2 points
  step(g, 100.0, 3 * kTick);
  EXPECT_TRUE(slo.breached("patient"));
}

TEST_F(SloFixture, MissingSeriesAbstains) {
  slo.add_rule({.name = "ghost",
                .series = "does.not.exist",
                .aggregate = SloAggregate::last,
                .comparison = SloComparison::above,
                .threshold = 0.0});
  sampler.sample(kTick);
  slo.evaluate(kTick);
  EXPECT_FALSE(slo.breached("ghost"));
  EXPECT_EQ(slo.total_breaches(), 0u);
}

// A rule may be added before its series exists: it abstains until the
// instrument is registered and scraped, then binds to the new series and
// follows it from that scrape on.
TEST(SloEngine, RuleOnLateSeriesBindsWhenBorn) {
  Registry registry;
  registry.counter("early.frames").inc();
  Sampler sampler(registry);
  SloEngine slo(sampler, registry);
  slo.add_rule({.name = "deep",
                .series = "late.depth",
                .aggregate = SloAggregate::max,
                .comparison = SloComparison::above,
                .threshold = 5.0,
                .window_us = 2 * kTick});
  for (TimePoint t = 1; t <= 3; ++t) {
    sampler.sample(t * kTick);
    slo.evaluate(t * kTick);
  }
  EXPECT_EQ(sampler.find("late.depth"), nullptr);
  EXPECT_TRUE(slo.windows().empty());

  Gauge& depth = registry.gauge("late.depth");
  depth.set(7.0);
  sampler.sample(4 * kTick);
  slo.evaluate(4 * kTick);
  EXPECT_TRUE(slo.breached("deep"));
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_EQ(slo.windows()[0].start, 4 * kTick);

  // Later instruments are created between scrapes; the rule keeps
  // following its own series through the sampler's rebinds.
  depth.set(1.0);
  registry.gauge("a.before").set(9.0);
  registry.counter("z.after").inc();
  sampler.sample(5 * kTick);
  slo.evaluate(5 * kTick);
  EXPECT_TRUE(slo.breached("deep"));  // 7.0 still inside the window
  sampler.sample(7 * kTick);
  slo.evaluate(7 * kTick);
  EXPECT_FALSE(slo.breached("deep"));
  EXPECT_EQ(slo.windows()[0].end, 7 * kTick);
  EXPECT_EQ(slo.total_breaches(), 1u);
}

TEST_F(SloFixture, OnBreachHandlerAndTraceEventsFire) {
  Gauge& g = registry.gauge("x");
  std::vector<std::string> fired;
  slo.set_on_breach([&](const SloRule& rule, TimePoint at, double value) {
    fired.push_back(rule.name);
    EXPECT_EQ(at, 2 * kTick);
    EXPECT_DOUBLE_EQ(value, 7.0);
  });
  slo.add_rule({.name = "deep",
                .series = "x",
                .aggregate = SloAggregate::last,
                .comparison = SloComparison::above,
                .threshold = 5.0});
  step(g, 1.0, kTick);
  step(g, 7.0, 2 * kTick);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], "deep");

  bool saw_breach_event = false;
  for (const auto& event : trace.events()) {
    if (event.name == "obs.slo.breach") saw_breach_event = true;
  }
  EXPECT_TRUE(saw_breach_event);
}

TEST_F(SloFixture, TwoRulesTrackIndependentWindows) {
  Gauge& a = registry.gauge("a");
  Gauge& b = registry.gauge("b");
  slo.add_rule({.name = "rule_a",
                .series = "a",
                .comparison = SloComparison::above,
                .threshold = 1.0});
  slo.add_rule({.name = "rule_b",
                .series = "b",
                .comparison = SloComparison::above,
                .threshold = 1.0});
  a.set(5.0);
  b.set(0.0);
  sampler.sample(kTick);
  slo.evaluate(kTick);
  a.set(0.0);
  b.set(5.0);
  sampler.sample(2 * kTick);
  slo.evaluate(2 * kTick);
  EXPECT_FALSE(slo.breached("rule_a"));
  EXPECT_TRUE(slo.breached("rule_b"));
  ASSERT_EQ(slo.windows().size(), 2u);
  EXPECT_EQ(slo.windows()[0].rule, "rule_a");
  EXPECT_FALSE(slo.windows()[0].open);
  EXPECT_EQ(slo.windows()[1].rule, "rule_b");
  EXPECT_TRUE(slo.windows()[1].open);
}

}  // namespace
}  // namespace ph::obs
