// Behaviour gate for the crowd path: a reduced perfbench `crowd` (64
// devices, 2 virtual minutes) must reproduce, count for count, what the
// stack produced before the allocation-light wire path. Discovery pings
// and queries, the service-reply cache, session frames and the community
// probes all feed these numbers; an optimisation that changes what goes
// on the wire or when shows up here.
#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "tests/testutil/crowd.hpp"

namespace ph::testutil {
namespace {

TEST(CrowdGate, ReducedCrowdReproducesCapturedCounts) {
  CrowdCounts expected;
  expected.events = 31797;
  expected.datagrams_sent = 9573;
  expected.datagrams_lost = 92;
  expected.signal_evals = 24322;
  expected.signal_cache_hits = 7168;
  expected.comparisons = 3704;
  expected.group_events = 607;
  EXPECT_EQ(run_crowd(64, sim::minutes(2), 1), expected);
}

TEST(CrowdGate, SameSeedSameCounts) {
  EXPECT_EQ(run_crowd(24, sim::seconds(45), 7),
            run_crowd(24, sim::seconds(45), 7));
}

TEST(CrowdQueue, RetainedKeyStorageFollowsPeakStoredKeys) {
  // The full crowd's burst shape: 256 devices finish each inquiry round
  // in the same millisecond and fill a few wheel slots with hundreds of
  // keys each. Drained slots hand their blocks back to the queue's pool,
  // so the key storage retained after the run is bounded by the most keys
  // ever stored at once plus one partly filled block per slot, not by the
  // sum of every slot's worst burst.
  CrowdQueueStorage storage;
  run_crowd(256, sim::seconds(75), 1, &storage);
  ASSERT_GT(storage.peak_stored, 0u);
  EXPECT_LE(storage.block_key_capacity,
            storage.peak_stored + sim::TimerWheelQueue::kSlotCount *
                                      sim::TimerWheelQueue::kBlockKeys)
      << "peak stored " << storage.peak_stored;
}

}  // namespace
}  // namespace ph::testutil
