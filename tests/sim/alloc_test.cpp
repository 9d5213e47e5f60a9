// Zero-allocation property of the simulator kernel's steady state.
//
// Interposes global operator new/delete to count heap allocations, then
// drives a warmed-up Simulator through hundreds of thousands of events —
// self-rescheduling chains across all wheel slots, schedule/cancel churn,
// periodic tasks — and asserts the allocation counter does not move.
// This is the property the whole event-kernel design (timer wheel + SBO
// EventFn + free-listed closure cells whose stamps carry liveness +
// slot blocks recycled through the queue's pool) exists to provide; a
// regression in any of those layers (a closure growing past the inline
// buffer, a drained slot's blocks not going back to the pool, a cell
// table regrowing per op) fails this test.
//
// Lives in its own binary: the interposer is process-global and must not
// contaminate unrelated tests.

#include <array>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "obs/prof.hpp"
#include "sim/simulator.hpp"

namespace {
std::size_t g_new_calls = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_new_calls;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ph::sim {
namespace {

/// A self-rescheduling event chain with a fixed period; the closure
/// captures 24 bytes, comfortably inside EventFn's inline buffer.
void arm_chain(Simulator& simulator, Duration period, std::uint64_t* fired) {
  simulator.schedule(period, [&simulator, period, fired] {
    ++*fired;
    arm_chain(simulator, period, fired);
  });
}

TEST(SimulatorAllocation, SteadyStateSchedulesWithoutHeapAllocation) {
  Simulator simulator;  // timer wheel (the default)
  std::uint64_t fired = 0;

  // Chain periods are powers of two, phase-locked to the wheel's 2^18 us
  // level-1 window: every slot's occupancy pattern then repeats exactly
  // each level-2 revolution (2^26 us ≈ 67 s), so each slot vector's
  // high-water capacity is provably reached during warm-up and the
  // steady-state assertion below is deterministic. (Co-prime periods
  // drift against the windows and keep finding new worst-case slot
  // alignments — new capacity growths — for the lcm of all periods.)
  // 2^21 parks at level 1, 2^27 at level 2; short chains cross window
  // boundaries and exercise transient level-1 parking plus cascades.
  for (Duration period : {1'024u, 2'048u, 4'096u, 16'384u, 65'536u,
                          2'097'152u, 134'217'728u}) {
    arm_chain(simulator, period, &fired);
  }
  // Schedule/cancel churn, one level-1 window ahead: exercises the
  // queue's cancel and its compaction path on every slot in turn.
  std::uint64_t cancel_victims = 0;
  simulator.schedule_periodic(Duration{4'096}, [&simulator,
                                                &cancel_victims] {
    const EventId doomed = simulator.schedule(
        Duration{262'144}, [&cancel_victims] { ++cancel_victims; });
    simulator.cancel(doomed);
  });

  // Warm-up: two full level-2 revolutions plus slack, covering the 2^27
  // chain's first parking and every slot the churn walks.
  simulator.run_until(seconds(170.0));
  ASSERT_GT(fired, 1'000u);

  const std::uint64_t fired_before = fired;
  const std::size_t allocations_before = g_new_calls;
  simulator.run_until(seconds(180.0));
  const std::size_t allocations_after = g_new_calls;
  const std::uint64_t events = fired - fired_before;

  ASSERT_GT(events, 10'000u);
  EXPECT_EQ(allocations_after, allocations_before)
      << "steady-state kernel made "
      << (allocations_after - allocations_before) << " heap allocations over "
      << events << " events";
  EXPECT_EQ(cancel_victims, 0u);
}

TEST(SimulatorAllocation, CancelRescheduleChurnAllocatesNothing) {
  // The watchdog pattern: every tick each watchdog is cancelled and
  // re-armed one level-1 window out with a payload-carrying closure. The
  // cancelled keys wait in the wheel until compaction drops them and
  // their closure cells return to the free list, so once the cell table
  // and the slots reach their high water the churn allocates nothing.
  // The 2^11 us tick is phase-locked to the wheel's windows (see the
  // steady-state test above), so one level-2 revolution of warm-up
  // reaches every slot's high water.
  Simulator simulator;
  std::array<EventId, 16> armed{};
  std::uint64_t expired = 0;
  simulator.schedule_periodic(Duration{2'048}, [&] {
    for (std::size_t i = 0; i < armed.size(); ++i) {
      simulator.cancel(armed[i]);
      std::array<std::uint64_t, 6> payload{};
      payload.fill(i);
      armed[i] = simulator.schedule(Duration{262'144}, [&expired, payload] {
        expired += payload[0] + 1;
      });
    }
  });

  simulator.run_until(seconds(140.0));  // two level-2 revolutions
  const std::size_t allocations_before = g_new_calls;
  simulator.run_until(seconds(150.0));
  const std::size_t allocations_after = g_new_calls;

  EXPECT_EQ(allocations_after, allocations_before)
      << "cancel/re-schedule churn made "
      << (allocations_after - allocations_before) << " heap allocations";
  EXPECT_EQ(expired, 0u) << "a cancelled watchdog fired";
  EXPECT_LE(simulator.stored_pending(), 4 * armed.size())
      << "cancelled keys are not being collected";
}

TEST(SimulatorAllocation, ConstructionIsCheap) {
  // Short runs build many worlds (a Table-8 replication builds five), so
  // a Simulator must not pay per wheel slot up front: the live-id set, the
  // slot table, the slots' shared slab and the two heaps are the whole
  // bill.
  const std::size_t allocations_before = g_new_calls;
  { Simulator simulator; }
  const std::size_t allocations = g_new_calls - allocations_before;
  EXPECT_LE(allocations, 8u) << "constructing and destroying a Simulator made "
                             << allocations << " heap allocations";
}

TEST(TimerWheelQueue, BurstStorageIsReusedAcrossSlots) {
  // The crowd's shape: a burst of keys lands in one 1 ms slot, drains,
  // and the next burst lands in another slot. Emptied slot storage goes
  // back to the queue's own pool, so once one burst has been held and
  // drained, a burst of the same size in a different slot allocates
  // nothing: not for the slot, the closure cells or the due heap.
  constexpr int kBurst = 2'000;
  TimerWheelQueue queue;
  std::uint64_t fired = 0;
  QueueEntry entry;
  const auto burst = [&](Time when) {
    for (int i = 0; i < kBurst; ++i) {
      queue.push(when, [&fired] { ++fired; });
    }
    while (queue.pop_next(when, entry)) entry.fn();
  };

  burst(5'000);  // level-0 slot 4
  ASSERT_EQ(fired, static_cast<std::uint64_t>(kBurst));
  const std::size_t capacity = queue.block_key_capacity();

  const std::size_t allocations_before = g_new_calls;
  burst(200'000);  // level-0 slot 195
  const std::size_t allocations_after = g_new_calls;

  ASSERT_EQ(fired, 2u * kBurst);
  EXPECT_EQ(allocations_after, allocations_before)
      << "a second burst in a fresh slot made "
      << (allocations_after - allocations_before) << " heap allocations";
  EXPECT_EQ(queue.block_key_capacity(), capacity)
      << "the second burst did not reuse the first burst's blocks";
}

TEST(SimulatorAllocation, ProfAttributionHotPathAllocatesNothing) {
  // Mode 1 attribution rides the dispatch loop: count() plus, with the
  // wall plane armed, two clock reads and observe_wall()'s bucket math.
  // None of it may allocate — the profiler would otherwise disqualify
  // itself from the always-on default the overhead budget promises.
  Simulator simulator;
  obs::prof::EventProfiler prof;
  prof.enable_wall(true);
  simulator.set_profiler(&prof);

  std::uint64_t fired = 0;
  {
    const obs::prof::TagScope tag(obs::prof::Center::peerhood_ping);
    for (Duration period : {1'024u, 4'096u, 65'536u}) {
      arm_chain(simulator, period, &fired);
    }
  }
  simulator.run_until(seconds(2.0));
  ASSERT_GT(fired, 1'000u);
  ASSERT_GT(prof.cost(obs::prof::Center::peerhood_ping).events, 1'000u);

  const std::uint64_t fired_before = fired;
  const std::size_t allocations_before = g_new_calls;
  simulator.run_until(seconds(6.0));
  const std::size_t allocations_after = g_new_calls;

  ASSERT_GT(fired - fired_before, 4'000u);
  EXPECT_EQ(allocations_after, allocations_before)
      << "profiled steady state made "
      << (allocations_after - allocations_before) << " heap allocations";
  // The causal chain kept its root tag the whole run.
  EXPECT_EQ(prof.cost(obs::prof::Center::peerhood_ping).events, fired);
  EXPECT_GT(prof.cost(obs::prof::Center::peerhood_ping).wall_count, 0u);
}

TEST(SimulatorAllocation, ProfSamplerRingWritesAllocateNothing) {
  // Mode 2's per-thread rings are sized at registration; sample_once()
  // afterwards only writes fixed Sample slots — through ring wrap-around.
  obs::prof::WallProfilerConfig config;
  config.ring_capacity = 512;
  obs::prof::WallProfiler profiler(config);
  profiler.register_thread("main");

  const obs::prof::Scope outer(obs::prof::Center::transport_io);
  const std::size_t allocations_before = g_new_calls;
  for (int i = 0; i < 2'000; ++i) {  // ~4x the ring: exercises the wrap
    const obs::prof::Scope inner(obs::prof::Center::transport_telemetry);
    profiler.sample_once();
  }
  const std::size_t allocations_after = g_new_calls;

  EXPECT_EQ(allocations_after, allocations_before)
      << "sampler ring writes made "
      << (allocations_after - allocations_before) << " heap allocations";
  EXPECT_EQ(profiler.samples_taken(), 2'000u);
  profiler.unregister_thread();
  // The folded readout (cold path, allocation expected) still sees the
  // retired thread: the ring keeps the newest `ring_capacity` samples,
  // all of them under the two scopes held above.
  const obs::prof::FoldedProfile folded = profiler.folded();
  ASSERT_EQ(folded.size(), 1u);
  const auto& [stack, count] = *folded.begin();
  EXPECT_EQ(stack, "main;transport.io;transport.telemetry");
  EXPECT_EQ(count, config.ring_capacity);
}

}  // namespace
}  // namespace ph::sim
