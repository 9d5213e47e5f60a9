// Property tests for the event queue.
//
// The timer wheel earns its keep only if it is *indistinguishable* from a
// plain binary heap: same (when, seq) pop order for every workload,
// including same-timestamp ties, cancellations, far-future overflow
// entries and wheel cascades. The lockstep tests drive the wheel and the
// reference heap below with identical randomized workloads and compare
// every popped entry and every pending/cancel answer; the reference keeps
// its own set of live events, the record the wheel's cell stamps replace.
// The simulator-level test checks the public Simulator API against an
// execution order computed from the schedule.

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <random>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace ph::sim {
namespace {

TEST(SimulatorCancel, NeverArmedHandleIsHarmless) {
  Simulator simulator;
  // EventId{} is the conventional "no event armed" sentinel in scenario
  // code; cancelling it must be a no-op, repeatedly.
  for (int round = 0; round < 1000; ++round) {
    EXPECT_FALSE(simulator.cancel(EventId{}));
  }
  bool ran = false;
  const EventId armed = simulator.schedule(Duration{10}, [&ran] { ran = true; });
  EXPECT_FALSE(simulator.cancel(0));
  EXPECT_TRUE(simulator.pending(armed));
  simulator.run_all();
  EXPECT_TRUE(ran);
}

TEST(EventFn, InlineAndHeapCallablesBothWork) {
  int hits = 0;
  EventFn small([&hits] { ++hits; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(hits, 1);

  std::array<std::uint64_t, 32> big{};  // 256 bytes: too big for the SBO
  big[0] = 41;
  EventFn large([&hits, big] { hits += static_cast<int>(big[0]); });
  EXPECT_FALSE(large.is_inline());
  large();
  EXPECT_EQ(hits, 42);

  // Moving transfers the callable (inline relocate / heap pointer steal).
  EventFn moved_small = std::move(small);
  EventFn moved_large = std::move(large);
  moved_small();
  moved_large();
  EXPECT_EQ(hits, 84);
}

/// Reference queue: one std::push_heap min-heap ordered by (when, seq)
/// plus a set of the live sequence numbers; cancelled entries are
/// discarded when reached. It is the oracle the lockstep tests compare the
/// wheel's pop order and liveness answers against.
class BinaryHeapQueue {
 public:
  std::uint64_t push(Time when, EventFn fn) {
    const std::uint64_t seq = ++last_seq_;
    heap_.push_back(QueueEntry{when, seq, 0, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), QueueLater{});
    live_.insert(seq);
    return seq;
  }

  bool cancel(std::uint64_t seq) { return live_.erase(seq) > 0; }

  bool pop_next(Time until, QueueEntry& out) {
    while (!heap_.empty()) {
      if (!live_.contains(heap_.front().seq)) {
        std::pop_heap(heap_.begin(), heap_.end(), QueueLater{});
        heap_.pop_back();
        continue;
      }
      if (heap_.front().when > until) return false;
      std::pop_heap(heap_.begin(), heap_.end(), QueueLater{});
      out = std::move(heap_.back());
      heap_.pop_back();
      live_.erase(out.seq);
      return true;
    }
    return false;
  }

  std::size_t stored() const noexcept { return heap_.size(); }
  std::size_t live() const noexcept { return live_.size(); }

 private:
  std::uint64_t last_seq_ = 0;
  std::unordered_set<std::uint64_t> live_;
  std::vector<QueueEntry> heap_;
};

/// One event scheduled in both queues: the wheel's handle and the
/// reference's sequence number.
struct Armed {
  EventId handle = 0;
  std::uint64_t seq = 0;
};

/// Drives `wheel` and `heap` with an identical workload and asserts every
/// pop and every liveness answer matches. Reports the number of events
/// popped via `popped_out` (ASSERT_* needs a void-returning function).
void run_lockstep(std::uint64_t seed, int rounds, Time max_delay,
                  std::size_t* popped_out = nullptr) {
  std::mt19937_64 rng(seed);
  TimerWheelQueue wheel;
  BinaryHeapQueue heap;

  Time now = 0;
  std::vector<Armed> live;
  // Handles of events that fired or were cancelled: their cells are
  // reused, and a stale handle must never reach the event that reuses one.
  std::vector<EventId> stale;
  std::size_t popped = 0;

  for (int round = 0; round < rounds; ++round) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 55) {
      // Schedule. Bias towards small delays (the real load shape) but
      // include ties (delay 0) and far-future entries crossing levels.
      Time delay = 0;
      switch (rng() % 5) {
        case 0: delay = 0; break;                            // tie with now
        case 1: delay = rng() % 2'000; break;                // sub-slot
        case 2: delay = rng() % 300'000; break;              // level 0/1
        case 3: delay = rng() % 80'000'000; break;           // level 1/2
        default: delay = rng() % (2 * max_delay); break;     // deep + overflow
      }
      const EventId handle = wheel.push(now + delay, EventFn([] {}));
      const std::uint64_t seq = heap.push(now + delay, EventFn([] {}));
      ASSERT_NE(handle, EventId{}) << "seed " << seed;
      ASSERT_EQ(wheel.last_seq(), seq) << "seed " << seed;
      ASSERT_TRUE(wheel.pending(handle)) << "seed " << seed;
      // The free list is LIFO, so this push most likely reused the cell
      // of the event that fired or was reaped last; its old handle must
      // not reach the new event.
      if (!stale.empty()) {
        ASSERT_FALSE(wheel.pending(stale.back())) << "seed " << seed;
        ASSERT_FALSE(wheel.cancel(stale.back())) << "seed " << seed;
      }
      live.push_back({handle, seq});
    } else if (op < 70 && !live.empty()) {
      // Cancel a random live event in both; a second cancel must miss.
      const std::size_t pick = rng() % live.size();
      const Armed event = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(heap.cancel(event.seq));
      ASSERT_TRUE(wheel.cancel(event.handle)) << "seed " << seed;
      ASSERT_FALSE(wheel.pending(event.handle)) << "seed " << seed;
      ASSERT_FALSE(wheel.cancel(event.handle)) << "seed " << seed;
      stale.push_back(event.handle);
    } else {
      // Pop everything up to a random horizon; both queues must yield the
      // exact same (when, seq) sequence.
      const Time until = now + rng() % (max_delay / 4 + 1);
      QueueEntry from_wheel, from_heap;
      while (true) {
        const bool got_wheel = wheel.pop_next(until, from_wheel);
        const bool got_heap = heap.pop_next(until, from_heap);
        ASSERT_EQ(got_wheel, got_heap) << "seed " << seed;
        if (!got_wheel) break;
        ASSERT_EQ(from_wheel.when, from_heap.when) << "seed " << seed;
        ASSERT_EQ(from_wheel.seq, from_heap.seq) << "seed " << seed;
        ASSERT_GE(from_wheel.when, now);
        now = from_wheel.when;  // simulator semantics: time follows pops
        const auto fired =
            std::find_if(live.begin(), live.end(), [&](const Armed& e) {
              return e.seq == from_wheel.seq;
            });
        ASSERT_NE(fired, live.end()) << "seed " << seed;
        ASSERT_FALSE(wheel.pending(fired->handle)) << "seed " << seed;
        stale.push_back(fired->handle);
        live.erase(fired);
        ++popped;
      }
      now = until;
    }
    ASSERT_EQ(wheel.live(), heap.live()) << "seed " << seed;
  }
  for (const Armed& event : live) {
    ASSERT_TRUE(wheel.pending(event.handle)) << "seed " << seed;
  }
  for (const EventId handle : stale) {
    ASSERT_FALSE(wheel.pending(handle)) << "seed " << seed;
  }

  // Full drain: remaining events must come out in the same total order.
  // The horizon must clear every delay branch above (the level-1/2 branch
  // reaches 80 s regardless of max_delay) or cancelled stragglers linger.
  const Time far = now + 2 * max_delay + 200'000'000;
  QueueEntry from_wheel, from_heap;
  while (true) {
    const bool got_wheel = wheel.pop_next(far, from_wheel);
    const bool got_heap = heap.pop_next(far, from_heap);
    EXPECT_EQ(got_wheel, got_heap) << "seed " << seed;
    if (!got_wheel || !got_heap) break;
    EXPECT_EQ(from_wheel.when, from_heap.when) << "seed " << seed;
    EXPECT_EQ(from_wheel.seq, from_heap.seq) << "seed " << seed;
    ++popped;
  }
  EXPECT_EQ(wheel.stored(), 0u);
  EXPECT_EQ(heap.stored(), 0u);
  EXPECT_EQ(wheel.live(), 0u);
  if (popped_out != nullptr) *popped_out = popped;
}

TEST(EventQueueLockstep, ShortHorizonWorkload) {
  std::size_t popped = 0;
  run_lockstep(0xA11CE, 20'000, 500'000, &popped);
  EXPECT_GT(popped, 1'000u);
}

TEST(EventQueueLockstep, CascadingWorkload) {
  // Delays up to ~160 s exercise level-1/2 cascades heavily.
  std::size_t popped = 0;
  run_lockstep(0xB0B, 8'000, 80'000'000, &popped);
  EXPECT_GT(popped, 500u);
}

TEST(EventQueueLockstep, OverflowWorkload) {
  // Delays past the wheel's 4.77 h horizon park in the overflow heap.
  std::size_t popped = 0;
  run_lockstep(0xCAFE, 4'000, Time{40'000'000'000}, &popped);
  EXPECT_GT(popped, 200u);
}

TEST(EventQueueLockstep, ManySeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_lockstep(seed * 7919, 3'000, 10'000'000);
  }
}

TEST(TimerWheelQueue, DrainedBeforeIsMonotonic) {
  TimerWheelQueue wheel;
  std::mt19937_64 rng(42);
  Time now = 0;
  Time last_drained = wheel.drained_before();
  for (int i = 0; i < 5'000; ++i) {
    wheel.push(now + rng() % 1'000'000, EventFn([] {}));
    if (i % 3 == 0) {
      QueueEntry out;
      const Time until = now + rng() % 400'000;
      while (wheel.pop_next(until, out)) now = out.when;
      now = until;
      EXPECT_GE(wheel.drained_before(), last_drained);
      last_drained = wheel.drained_before();
    }
  }
}

/// Regression driver for the window-boundary starvation bug: an entry
/// parked one level up (A), a filler (B) that keeps level 0 busy right
/// through the boundary so wheel time rolls into A's window via the
/// level-0 path, then a later same-window entry (C) scheduled after the
/// crossing. The buggy wheel filed C straight into level 0 and fired it
/// before the earlier parked A; entering a window must cascade it first.
void run_boundary_starvation(Time window) {
  TimerWheelQueue wheel;
  BinaryHeapQueue heap;
  auto push_both = [&](Time when) {
    wheel.push(when, EventFn([] {}));
    heap.push(when, EventFn([] {}));
  };
  auto pop_both_until = [&](Time until) {
    QueueEntry from_wheel, from_heap;
    std::vector<std::pair<Time, std::uint64_t>> order;
    while (true) {
      const bool got_wheel = wheel.pop_next(until, from_wheel);
      const bool got_heap = heap.pop_next(until, from_heap);
      EXPECT_EQ(got_wheel, got_heap);
      if (!got_wheel || !got_heap) break;
      EXPECT_EQ(from_wheel.when, from_heap.when);
      EXPECT_EQ(from_wheel.seq, from_heap.seq);
      order.emplace_back(from_wheel.when, from_wheel.seq);
    }
    return order;
  };

  push_both(window + 56);   // A: parks one level above level 0
  push_both(window - 100);  // B: the last level-0 work before the boundary
  // Firing B rolls the wheel's clock exactly onto the window boundary.
  EXPECT_EQ(pop_both_until(window - 1).size(), 1u);
  // C arrives after the wheel already entered A's window.
  push_both(window + 200);  // C
  const auto order = pop_both_until(window + 1'000'000);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, window + 56) << "parked entry must fire first";
  EXPECT_EQ(order[1].first, window + 200);
}

TEST(TimerWheelQueue, ParkedLevel1EntrySurvivesBusyBoundaryCrossing) {
  run_boundary_starvation(Time{1} << 18);  // first level-1 window boundary
}

TEST(TimerWheelQueue, ParkedLevel2EntrySurvivesBusyBoundaryCrossing) {
  run_boundary_starvation(Time{1} << 26);  // first level-2 window boundary
}

TEST(TimerWheelQueue, OverflowDrainsIntoWheel) {
  TimerWheelQueue wheel;
  const Time horizon = Time{1} << 34;  // wheel span
  const EventId id = wheel.push(horizon + 5'000'000, EventFn([] {}));
  EXPECT_EQ(wheel.overflow_size(), 1u);
  EXPECT_EQ(wheel.next_due_bound(), horizon + 5'000'000);
  QueueEntry out;
  ASSERT_TRUE(wheel.pop_next(horizon + 10'000'000, out));
  EXPECT_EQ(out.seq, 1u);
  EXPECT_FALSE(wheel.pending(id));
  EXPECT_EQ(out.when, horizon + 5'000'000);
  EXPECT_EQ(wheel.overflow_size(), 0u);
}

TEST(EventQueue, CancelledEntriesCompactOnceTheyDominate) {
  TimerWheelQueue wheel;
  // 40 live + 40 cancelled: 40 dead >= 32 and 2*40 >= 80 stored, so the
  // policy (mirroring Medium::note_dead_link) must have compacted.
  std::vector<EventId> ids;
  for (Time k = 1; k <= 80; ++k) {
    ids.push_back(wheel.push(1'000 + k, EventFn([] {})));
  }
  for (std::size_t k = 0; k < 40; ++k) EXPECT_TRUE(wheel.cancel(ids[k]));
  EXPECT_EQ(wheel.dead(), 0u) << "compaction should have run";
  EXPECT_EQ(wheel.stored(), 40u);
  EXPECT_EQ(wheel.live(), 40u);
  QueueEntry out;
  std::size_t fired = 0;
  while (wheel.pop_next(Time{10'000}, out)) {
    EXPECT_GT(out.seq, 40u);
    ++fired;
  }
  EXPECT_EQ(fired, 40u);
}

TEST(TimerWheelQueue, CompactionKeepsEachSlotsBlockChainInOrder) {
  // Three slots several blocks long: a level-0 slot that loses every third
  // key of its first 147, a level-1 slot that loses a run longer than a
  // block from its middle, and a level-0 slot that loses every key. That
  // is 49 + 35 + 167 = 251 of the 501 keys, so compaction (2 * dead >=
  // stored) fires on the last cancel. It slides the survivors forward
  // within each chain and frees the blocks left over; keys appended
  // afterwards land behind the survivors, so the pops must still come out
  // in (when, seq) order with exactly the survivors.
  constexpr std::size_t kPerSlot = 5 * TimerWheelQueue::kBlockKeys + 7;
  TimerWheelQueue wheel;
  std::vector<Time> when;  // by seq - 1
  std::vector<EventId> ids;
  const auto push = [&](Time at) {
    ids.push_back(wheel.push(at, EventFn([] {})));
    when.push_back(at);
  };
  for (std::size_t i = 0; i < kPerSlot; ++i) push(3'000 + i % 5);
  for (std::size_t i = 0; i < kPerSlot; ++i) push(600'000 + i);
  for (std::size_t i = 0; i < kPerSlot; ++i) push(9'000);
  std::vector<bool> survives(ids.size(), true);
  for (std::size_t i = 0; i < kPerSlot; ++i) {
    survives[i] = !(i % 3 == 1 && i < 147);
    survives[kPerSlot + i] = i < 40 || i >= 75;
    survives[2 * kPerSlot + i] = false;
  }
  std::size_t expected = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (survives[i]) {
      ++expected;
    } else {
      ASSERT_TRUE(wheel.cancel(ids[i]));
    }
  }
  ASSERT_EQ(wheel.dead(), 0u) << "compaction should have run";
  ASSERT_EQ(wheel.stored(), expected);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(wheel.pending(ids[i]), survives[i]) << "key " << i;
  }
  for (std::size_t i = 0; i < 2 * TimerWheelQueue::kBlockKeys; ++i) {
    push(3'004);
    push(600'000 + kPerSlot + i);
    survives.insert(survives.end(), 2, true);
    expected += 2;
  }

  QueueEntry out;
  Time last_when = 0;
  std::uint64_t last_seq = 0;
  std::size_t popped = 0;
  while (wheel.pop_next(Time{10'000'000}, out)) {
    ASSERT_TRUE(out.when > last_when ||
                (out.when == last_when && out.seq > last_seq))
        << "pop " << popped << " out of (when, seq) order";
    ASSERT_TRUE(survives[out.seq - 1]) << "cancelled seq " << out.seq;
    EXPECT_EQ(out.when, when[out.seq - 1]);
    last_when = out.when;
    last_seq = out.seq;
    ++popped;
  }
  EXPECT_EQ(popped, expected);
  EXPECT_EQ(wheel.stored(), 0u);
}

// The wheel's slots and heaps carry keys; the closures stay in the
// queue's cell table. A key that grew past this would bring back the
// 144-byte moves the keys exist to avoid.
static_assert(sizeof(QueueKey) <= 24);

TEST(TimerWheelQueue, DispatchSchedulesFarPastTheFirstCellChunk) {
  // One event schedules 10,000 more from inside its own dispatch, well
  // past the 3,072 cells the constructor's slab holds, so the cell table
  // grows while the scheduling closure is running. Every payload must
  // arrive intact and run exactly once.
  constexpr int kEvents = 10'000;
  Simulator simulator;
  std::vector<int> runs(kEvents, 0);
  std::vector<int> mismatches;
  simulator.schedule(Duration{5}, [&] {
    for (int i = 0; i < kEvents; ++i) {
      std::array<std::uint64_t, 8> payload{};  // 64 bytes: an inline capture
      for (std::size_t k = 0; k < payload.size(); ++k) {
        payload[k] = static_cast<std::uint64_t>(i) * 1'000 + k;
      }
      simulator.schedule(Duration{static_cast<Duration>(i % 700)},
                         [&runs, &mismatches, i, payload] {
                           ++runs[static_cast<std::size_t>(i)];
                           for (std::size_t k = 0; k < payload.size(); ++k) {
                             if (payload[k] !=
                                 static_cast<std::uint64_t>(i) * 1'000 + k) {
                               mismatches.push_back(i);
                               return;
                             }
                           }
                         });
    }
  });
  simulator.run_all();
  EXPECT_TRUE(mismatches.empty()) << mismatches.size() << " payloads torn";
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), kEvents);
  EXPECT_EQ(simulator.stored_pending(), 0u);
}

TEST(TimerWheelQueue, CancelledClosureIsReleasedWhenReachedOrCompacted) {
  auto token = std::make_shared<int>(7);
  {
    TimerWheelQueue wheel;
    // Reached: cancellation is lazy, so the closure (and its reference)
    // lives until the wheel reaches the key.
    const EventId first = wheel.push(5'000, [token] {});
    wheel.push(9'000, [] {});
    EXPECT_TRUE(wheel.cancel(first));
    EXPECT_EQ(token.use_count(), 2) << "released before its key was reached";
    QueueEntry out;
    ASSERT_TRUE(wheel.pop_next(Time{10'000}, out));
    EXPECT_EQ(out.seq, 2u);
    EXPECT_EQ(token.use_count(), 1) << "reached key kept its closure";
    EXPECT_EQ(wheel.dead(), 0u);

    // Compacted: 40 cancelled among 80 stored trips the policy; every
    // cancelled closure goes with it, the live ones stay.
    std::vector<EventId> ids;
    for (Time k = 10; k < 90; ++k) {
      ids.push_back(wheel.push(Time{200'000} + k * 3'000, [token] {}));
    }
    EXPECT_EQ(token.use_count(), 81);
    for (std::size_t k = 0; k < 40; ++k) EXPECT_TRUE(wheel.cancel(ids[k]));
    EXPECT_EQ(wheel.dead(), 0u) << "compaction should have run";
    EXPECT_EQ(token.use_count(), 41);
    // The queue's destructor releases what is still stored.
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(TimerWheelQueue, StaleHandleMatchesNothingOnceItsCellIsReused) {
  TimerWheelQueue wheel;
  EXPECT_FALSE(wheel.pending(EventId{}));
  EXPECT_FALSE(wheel.cancel(EventId{}));
  const EventId fired = wheel.push(1'000, [] {});
  ASSERT_NE(fired, EventId{});
  QueueEntry out;
  ASSERT_TRUE(wheel.pop_next(Time{1'000}, out));
  EXPECT_FALSE(wheel.pending(fired));
  // The free list hands the fired event's cell to the next push.
  const EventId reuse = wheel.push(2'000, [] {});
  EXPECT_EQ(reuse & ((EventId{1} << TimerWheelQueue::kCellBits) - 1),
            fired & ((EventId{1} << TimerWheelQueue::kCellBits) - 1))
      << "the cell was not reused, so this test proves nothing";
  EXPECT_NE(reuse, fired);
  EXPECT_FALSE(wheel.pending(fired));
  EXPECT_FALSE(wheel.cancel(fired));
  EXPECT_TRUE(wheel.pending(reuse));
  EXPECT_EQ(wheel.live(), 1u);
  ASSERT_TRUE(wheel.pop_next(Time{2'000}, out));
  EXPECT_EQ(out.seq, 2u);
}

TEST(TimerWheelQueue, SequenceBoundHoldsBackLaterPushes) {
  // The socket loop fires, per round, only the timers scheduled before the
  // round began: pop_next's last_seq bound.
  TimerWheelQueue wheel;
  wheel.push(100, [] {});
  wheel.push(100, [] {});
  const std::uint64_t bound = wheel.last_seq();
  wheel.push(50, [] {});   // earlier, but pushed after the bound
  wheel.push(100, [] {});  // same due point, pushed after the bound
  QueueEntry out;
  std::vector<std::uint64_t> round;
  // seq 3 is the earliest key, so it ends the round before anything fires.
  EXPECT_FALSE(wheel.pop_next(Time{100}, out, bound));
  while (wheel.pop_next(Time{100}, out)) round.push_back(out.seq);
  EXPECT_EQ(round, (std::vector<std::uint64_t>{3, 1, 2, 4}));

  wheel.push(200, [] {});
  wheel.push(200, [] {});
  const std::uint64_t second = wheel.last_seq();
  wheel.push(200, [] {});
  round.clear();
  while (wheel.pop_next(Time{200}, out, second)) round.push_back(out.seq);
  EXPECT_EQ(round, (std::vector<std::uint64_t>{5, 6}));
  EXPECT_EQ(wheel.live(), 1u);
}

TEST(TimerWheelQueue, NextDueBoundNeverAdvancesTheWheel) {
  TimerWheelQueue wheel;
  EXPECT_EQ(wheel.next_due_bound(), std::numeric_limits<Time>::max());
  std::mt19937_64 rng(99);
  Time now = 0;
  for (int i = 0; i < 3'000; ++i) {
    wheel.push(now + rng() % 100'000'000, [] {});
    if (i % 5 != 0) continue;
    const Time drained = wheel.drained_before();
    const Time bound = wheel.next_due_bound();
    EXPECT_EQ(wheel.drained_before(), drained);
    QueueEntry out;
    ASSERT_TRUE(wheel.pop_next(~Time{0}, out));
    EXPECT_LE(bound, out.when);
    now = out.when;
  }
}

TEST(SimulatorLockstep, ExecutionMatchesScheduleOrder) {
  // A randomized scenario through the public API — cancellations and a
  // periodic task included — must execute in (when, schedule sequence)
  // order with the cancelled events dropped. The expected order is
  // computed here from the schedule alone.
  struct Scheduled {
    Time when;
    std::uint64_t seq;
    int id;
  };
  std::vector<Scheduled> expected;
  std::vector<std::pair<Time, int>> order;
  Simulator simulator;
  std::mt19937_64 rng(0xD15EA5E);
  std::uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    const Time delay = rng() % 3'000'000;
    const EventId ev =
        simulator.schedule(Duration{delay}, [&order, &simulator, i] {
          order.emplace_back(simulator.now(), i);
        });
    if (i % 7 == 0) {
      simulator.cancel(ev);
    } else {
      expected.push_back({delay, seq, i});
    }
    ++seq;
  }
  constexpr Time kPeriod = 50'000;
  constexpr Time kUntil = 2'500'000;
  simulator.schedule_periodic(Duration{kPeriod}, [&order, &simulator]() {
    order.emplace_back(simulator.now(), -1);
  });
  // Occurrence k (at k * period) is re-armed while occurrence k-1 runs,
  // so every one-shot at the same instant was scheduled before it.
  for (Time when = kPeriod; when <= kUntil; when += kPeriod) {
    expected.push_back({when, seq++, -1});
  }
  simulator.run_until(Time{kUntil});

  std::erase_if(expected, [](const Scheduled& e) { return e.when > kUntil; });
  std::sort(expected.begin(), expected.end(),
            [](const Scheduled& a, const Scheduled& b) {
              return a.when != b.when ? a.when < b.when : a.seq < b.seq;
            });
  std::vector<std::pair<Time, int>> expected_order;
  for (const Scheduled& e : expected) expected_order.emplace_back(e.when, e.id);
  ASSERT_EQ(order.size(), expected_order.size());
  EXPECT_EQ(order, expected_order);
}

}  // namespace
}  // namespace ph::sim
