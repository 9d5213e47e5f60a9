// ph::obs::prof — attribution, merge and folded-profile unit tests.
//
// Covers the properties the profiling plane's gates rely on: tag plumbing
// through the kernel (TagScope override + causal inheritance), the
// deterministic Mode 1 counters and their delta-publish semantics, the
// associative/commutative cross-shard merges (EventProfiler::merge_from
// and merge_folded, empty-shard edge case included), the strict folded
// parser, the slow-event watchdog, and the Mode 2 sampler's ring +
// retired-thread lifecycle, also with its sampler thread running.
#include "obs/prof.hpp"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace ph::obs::prof {
namespace {

TEST(ProfCenters, NamesAreStableAndTotal) {
  EXPECT_STREQ(center_name(Center::unattributed), "unattributed");
  EXPECT_STREQ(center_name(Center::net_delivery), "net.delivery");
  EXPECT_STREQ(center_name(Center::peerhood_ping), "peerhood.ping");
  EXPECT_STREQ(center_name(Center::transport_idle), "transport.idle");
  // Out-of-range tags fold to unattributed instead of reading junk.
  EXPECT_STREQ(center_name(static_cast<std::uint8_t>(250)), "unattributed");
  for (std::size_t i = 0; i < kCenterCount; ++i) {
    EXPECT_STRNE(center_name(static_cast<Center>(i)), "") << i;
  }
}

TEST(ProfTagScope, InnermostScopeWinsAndRestores) {
  EXPECT_EQ(effective_tag(0), 0);
  {
    const TagScope outer(Center::net_delivery);
    EXPECT_EQ(effective_tag(0),
              static_cast<std::uint8_t>(Center::net_delivery));
    {
      const TagScope inner(Center::peerhood_ping);
      EXPECT_EQ(effective_tag(0),
                static_cast<std::uint8_t>(Center::peerhood_ping));
    }
    EXPECT_EQ(effective_tag(0),
              static_cast<std::uint8_t>(Center::net_delivery));
  }
  // No pending scope: the inherited (currently-executing) tag rules.
  EXPECT_EQ(effective_tag(static_cast<std::uint8_t>(Center::sns_task)),
            static_cast<std::uint8_t>(Center::sns_task));
}

TEST(ProfSimulator, AttributesTagsAndInheritsCausally) {
  sim::Simulator simulator;
  EventProfiler prof;
  simulator.set_profiler(&prof);

  int root_runs = 0;
  int child_runs = 0;
  int override_runs = 0;
  {
    const TagScope tag(Center::peerhood_discovery);
    simulator.schedule(sim::milliseconds(1), [&] {
      ++root_runs;
      // No TagScope here: the child inherits the executing event's tag.
      simulator.schedule(sim::milliseconds(1), [&] { ++child_runs; });
      // An explicit scope overrides inheritance for this schedule only.
      const TagScope rpc(Center::community_rpc);
      simulator.schedule(sim::milliseconds(2), [&] { ++override_runs; });
    });
  }
  // Scheduled outside any scope or event: unattributed.
  simulator.schedule(sim::milliseconds(3), [] {});

  simulator.run_until(sim::milliseconds(10));
  EXPECT_EQ(root_runs, 1);
  EXPECT_EQ(child_runs, 1);
  EXPECT_EQ(override_runs, 1);
  EXPECT_EQ(prof.cost(Center::peerhood_discovery).events, 2u);  // root+child
  EXPECT_EQ(prof.cost(Center::community_rpc).events, 1u);
  EXPECT_EQ(prof.cost(Center::unattributed).events, 1u);
  EXPECT_EQ(prof.events_total(), 4u);
  // The wall plane stayed off: dispatches were counted, never timed.
  EXPECT_EQ(prof.cost(Center::peerhood_discovery).wall_count, 0u);
}

TEST(ProfEventProfiler, MergeIsAssociativeAndOrderIndependent) {
  EventProfiler a;
  EventProfiler b;
  EventProfiler empty;  // the empty-shard edge case
  a.enable_wall(true);
  b.enable_wall(true);
  for (int i = 0; i < 3; ++i) {
    a.count(static_cast<std::uint8_t>(Center::world_scan));
  }
  a.observe_wall(static_cast<std::uint8_t>(Center::world_scan), 7);
  for (int i = 0; i < 5; ++i) {
    b.count(static_cast<std::uint8_t>(Center::world_scan));
    b.count(static_cast<std::uint8_t>(Center::world_frame));
  }
  b.observe_wall(static_cast<std::uint8_t>(Center::world_scan), 2);
  b.observe_wall(static_cast<std::uint8_t>(Center::world_frame), 90);

  EventProfiler ab;
  ab.merge_from(a);
  ab.merge_from(b);
  ab.merge_from(empty);
  EventProfiler ba;
  ba.merge_from(empty);
  ba.merge_from(b);
  ba.merge_from(a);

  for (const EventProfiler* merged : {&ab, &ba}) {
    EXPECT_EQ(merged->cost(Center::world_scan).events, 8u);
    EXPECT_EQ(merged->cost(Center::world_frame).events, 5u);
    EXPECT_EQ(merged->cost(Center::world_scan).wall_us, 9u);
    EXPECT_EQ(merged->cost(Center::world_scan).min_us, 2u);
    EXPECT_EQ(merged->cost(Center::world_scan).max_us, 7u);
    EXPECT_EQ(merged->events_total(), 13u);
  }
  // Merging an empty shard is the identity.
  EXPECT_EQ(empty.events_total(), 0u);
}

TEST(ProfEventProfiler, PublishEventsIsDeltaBasedAndSkipsIdleCenters) {
  Registry registry;
  EventProfiler prof;
  prof.count(static_cast<std::uint8_t>(Center::net_delivery));
  prof.count(static_cast<std::uint8_t>(Center::net_delivery));
  prof.publish_events(registry);
  EXPECT_EQ(registry.counter("prof.net.delivery.events").value(), 2u);

  // Re-publishing with no new dispatches must not double-count.
  prof.publish_events(registry);
  EXPECT_EQ(registry.counter("prof.net.delivery.events").value(), 2u);

  prof.count(static_cast<std::uint8_t>(Center::net_delivery));
  prof.publish_events(registry);
  EXPECT_EQ(registry.counter("prof.net.delivery.events").value(), 3u);

  // Centers that never dispatched stay out of the registry entirely.
  const auto snap = registry.snapshot("prof.");
  EXPECT_EQ(snap.counters().size(), 1u);
  EXPECT_EQ(snap.counters().count("sns.task.events"), 0u);
}

TEST(ProfEventProfiler, SlowEventWatchdogFiresAtBudget) {
  EventProfiler prof;
  prof.enable_wall(true);
  prof.set_slow_budget_us(100);
  Center slow_center = Center::unattributed;
  std::uint64_t slow_us = 0;
  prof.set_on_slow([&](Center c, std::uint64_t us) {
    slow_center = c;
    slow_us = us;
  });

  prof.observe_wall(static_cast<std::uint8_t>(Center::community_rpc), 99);
  EXPECT_EQ(prof.slow_events(), 0u);
  prof.observe_wall(static_cast<std::uint8_t>(Center::community_rpc), 100);
  EXPECT_EQ(prof.slow_events(), 1u);
  EXPECT_EQ(slow_center, Center::community_rpc);
  EXPECT_EQ(slow_us, 100u);
}

TEST(ProfFolded, ParseRendersRoundTrip) {
  const std::string text =
      "loop;transport.idle 41\n"
      "loop;transport.io 7\n"
      "\n"
      "loop;transport.io 3\n";  // duplicate stacks accumulate
  const auto parsed = parse_folded(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const FoldedProfile& profile = parsed.value();
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile.at("loop;transport.idle"), 41u);
  EXPECT_EQ(profile.at("loop;transport.io"), 10u);
  // Canonical render: map order, one line each — re-parses to itself.
  const std::string rendered = render_folded(profile);
  EXPECT_EQ(rendered, "loop;transport.idle 41\nloop;transport.io 10\n");
  const auto again = parse_folded(rendered);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), profile);
}

TEST(ProfFolded, ParseRejectsMalformedLines) {
  EXPECT_FALSE(parse_folded("no-count-here\n").ok());
  EXPECT_FALSE(parse_folded("stack notanumber\n").ok());
  EXPECT_FALSE(parse_folded("stack 0\n").ok());       // zero samples
  EXPECT_FALSE(parse_folded(" 12\n").ok());           // empty stack
  EXPECT_FALSE(parse_folded("stack 12 \n").ok());     // trailing space
  EXPECT_TRUE(parse_folded("").ok());                 // empty is empty
  EXPECT_TRUE(parse_folded("\n\n").ok());
}

// A count past 2^64-1 used to wrap silently to a small number.
TEST(ProfFolded, ParseRejectsACountPast64Bits) {
  const auto max = parse_folded("stack 18446744073709551615\n");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value().at("stack"), ~std::uint64_t{0});
  const auto past = parse_folded("stack 18446744073709551616\n");
  ASSERT_FALSE(past.ok());
  EXPECT_NE(past.error().message.find("overflows"), std::string::npos)
      << past.error().message;
  EXPECT_FALSE(parse_folded("stack 99999999999999999999\n").ok());
}

// Merging a profile into itself doubles it; a sum past 2^64-1 saturates
// instead of wrapping, and so do duplicate lines.
TEST(ProfFolded, MergeIntoItselfDoublesAndSaturates) {
  FoldedProfile profile = parse_folded("a 3\nb 18446744073709551615\n").value();
  merge_folded(profile, profile);
  EXPECT_EQ(profile.at("a"), 6u);
  EXPECT_EQ(profile.at("b"), ~std::uint64_t{0});
  const auto twice =
      parse_folded("b 18446744073709551615\nb 18446744073709551615\n");
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice.value().at("b"), ~std::uint64_t{0});
}

TEST(ProfFolded, MergeIsAssociativeAndCommutative) {
  const auto a = parse_folded("main;a 1\nmain;b 2\n").value();
  const auto b = parse_folded("main;b 3\nworker;c 4\n").value();
  const auto c = parse_folded("worker;c 5\n").value();
  const FoldedProfile empty;

  FoldedProfile left;  // (a + b) + c, plus an empty shard
  merge_folded(left, a);
  merge_folded(left, b);
  merge_folded(left, c);
  merge_folded(left, empty);
  FoldedProfile right;  // c + (b + a)
  merge_folded(right, c);
  merge_folded(right, b);
  merge_folded(right, a);

  EXPECT_EQ(left, right);
  EXPECT_EQ(render_folded(left), "main;a 1\nmain;b 5\nworker;c 9\n");
}

TEST(ProfWallProfiler, SamplesScopesAndRetainsRetiredThreads) {
  WallProfilerConfig config;
  config.ring_capacity = 64;
  WallProfiler profiler(config);
  EXPECT_EQ(profiler.threads_registered(), 0u);
  EXPECT_TRUE(profiler.folded().empty());  // empty-fleet edge case

  profiler.register_thread("main");
  EXPECT_EQ(profiler.threads_registered(), 1u);

  profiler.sample_once();  // no scopes: bare thread-name stack
  {
    const Scope outer(Center::parallel_window);
    profiler.sample_once();
    {
      const Scope inner(Center::parallel_merge);
      profiler.sample_once();
    }
    profiler.sample_once();
  }
  EXPECT_EQ(profiler.samples_taken(), 4u);

  const FoldedProfile live = profiler.folded();
  EXPECT_EQ(live.at("main"), 1u);
  EXPECT_EQ(live.at("main;parallel.window"), 2u);
  EXPECT_EQ(live.at("main;parallel.window;parallel.merge"), 1u);

  // Unregistering folds the ring into the retired aggregate: readouts
  // after the thread is gone still carry its samples.
  profiler.unregister_thread();
  EXPECT_EQ(profiler.threads_registered(), 0u);
  EXPECT_EQ(profiler.folded(), live);
  // Unregistered threads are no longer sampled.
  profiler.sample_once();
  EXPECT_EQ(profiler.folded(), live);
}

// The sampler thread reads another thread's span stack while that thread
// pushes and pops scopes: the cross-thread path the TSan smoke exercises.
TEST(ProfWallProfiler, SamplerThreadReadsAWorkingThreadsScopes) {
  WallProfilerConfig config;
  config.interval_us = 500;
  config.ring_capacity = 256;
  WallProfiler profiler(config);
  std::atomic<bool> registered{false};
  std::atomic<bool> done{false};
  std::thread worker([&] {
    profiler.register_thread("worker");
    registered.store(true);
    while (!done.load()) {
      const Scope outer(Center::parallel_window);
      const Scope inner(Center::parallel_merge);
      std::this_thread::yield();
    }
    profiler.unregister_thread();
  });
  while (!registered.load()) std::this_thread::yield();
  profiler.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (profiler.samples_taken() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  profiler.stop();
  done.store(true);
  worker.join();

  EXPECT_GE(profiler.samples_taken(), 20u);
  std::uint64_t worker_samples = 0;
  for (const auto& [stack, count] : profiler.folded()) {
    EXPECT_EQ(stack.rfind("worker", 0), 0u) << stack;
    worker_samples += count;
  }
  EXPECT_GE(worker_samples, 20u);
}

}  // namespace
}  // namespace ph::obs::prof
