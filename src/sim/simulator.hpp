// The discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and a queue of events. Code running
// inside an event callback may schedule further events; the kernel
// processes them in timestamp order (FIFO among equal timestamps). Events
// can be cancelled through the handle returned by schedule(), which is how
// periodic daemon timers and connection watchdogs are torn down.
//
// The queue is a hierarchical timer wheel (see event_queue.hpp): O(1)
// bucket insertion for the dominant short-horizon periodic load, an
// overflow heap for far-future timers, and a small (time, sequence)
// ordered due-heap that preserves the exact FIFO tie-break order of the
// previous binary heap — same seed, byte-identical run. Callbacks are
// small-buffer-optimized EventFns kept in the queue's free-listed closure
// cells; the wheel itself moves only 24-byte keys naming those cells, so
// steady-state schedule() performs zero heap allocations. The queue also
// owns liveness: a handle names a closure cell and its generation, so
// pending() and cancel() are a stamp compare. Cancellation stays lazy:
// cancel() marks the cell dead, the stale key (and its closure) is
// discarded when reached, and keys are compacted once dead ones dominate
// (mirroring the Medium's dead-link policy).
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "obs/prof.hpp"
#include "sim/event_fn.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ph::sim {

/// Identifies a periodic task (schedule_periodic); 0 is never valid.
using TaskId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` after the current virtual time.
  /// Returns a handle usable with cancel(). The event carries a cost-
  /// center tag: the active obs::prof::TagScope's if one is set, else the
  /// tag of the event currently executing (causal inheritance), else 0.
  EventId schedule(Duration delay, EventFn fn);

  /// Schedules at an absolute virtual time (clamped to now).
  EventId schedule_at(Time when, EventFn fn);

  /// Tagged variants with an explicit cost center — for relays that must
  /// preserve a tag across a thread/shard boundary where neither the
  /// TagScope TLS nor the executing event's tag is the right context
  /// (ShardedKernel's cross-shard merge).
  EventId schedule_tagged(Duration delay, std::uint8_t tag, EventFn fn) {
    return schedule_at_tagged(now_ + delay, tag, std::move(fn));
  }
  EventId schedule_at_tagged(Time when, std::uint8_t tag, EventFn fn);

  /// Cost center of the event currently executing (0 between events).
  std::uint8_t current_tag() const noexcept { return current_tag_; }

  /// Attaches an obs::prof::EventProfiler: every dispatch is counted per
  /// center, and timed when the profiler's wall plane is enabled. The
  /// profiler must outlive the simulator (or be detached with nullptr).
  void set_profiler(obs::prof::EventProfiler* profiler) noexcept {
    prof_ = profiler;
  }
  obs::prof::EventProfiler* profiler() const noexcept { return prof_; }

  /// Removes a pending event. Returns false if it already ran or was
  /// cancelled; cancelling an invalid id is a harmless no-op.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs `fn` every `interval` of virtual time, first at now + interval,
  /// until cancel_periodic(). The telemetry scraper (obs::Sampler) and
  /// other fixed-cadence housekeeping hang off this instead of hand-rolled
  /// rescheduling closures. `fn` may cancel its own task. Note run_all()
  /// never drains a live periodic task — soak drivers use run_until.
  TaskId schedule_periodic(Duration interval, EventFn fn);

  /// Stops a periodic task. Returns false if the id is unknown or already
  /// cancelled.
  bool cancel_periodic(TaskId id);

  /// True if the periodic task is still armed.
  bool periodic_pending(TaskId id) const { return periodic_.contains(id); }

  /// True if the event is still pending.
  bool pending(EventId id) const { return queue_.pending(id); }

  /// Runs events until the queue drains or virtual time would pass `until`.
  /// The clock is left at min(until, time of last event run); events at
  /// exactly `until` are executed.
  void run_until(Time until);

  /// Advances by a relative amount.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Runs until the queue is completely empty. Use in tests only — an
  /// active periodic timer makes this never return, so prefer run_until.
  void run_all();

  /// Number of events waiting in the queue (cancelled events excluded).
  std::size_t queue_size() const noexcept { return queue_.live(); }

  /// Cancelled entries still occupying queue storage (lazy cancellation
  /// garbage awaiting collection) — the `sim.queue.cancelled_live` gauge.
  std::size_t cancelled_pending() const noexcept { return queue_.dead(); }
  /// Entries held by the queue (live + not-yet-collected cancelled).
  std::size_t stored_pending() const noexcept { return queue_.stored(); }
  /// The event queue, read-only: its storage figures for tests and benches.
  const TimerWheelQueue& queue() const noexcept { return queue_; }

  /// Total events executed since construction (telemetry for benches).
  std::uint64_t events_executed() const noexcept { return executed_; }

 private:
  struct Periodic {
    Duration interval = 0;
    EventFn fn;
    EventId armed = 0;  // the currently scheduled occurrence
  };

  /// Runs one occurrence of a periodic task and re-arms it.
  void run_periodic(TaskId id);

  /// Executes one popped entry under the attribution hook: sets
  /// current_tag_ for causal inheritance, counts the dispatch, and (wall
  /// plane) times it inside a sampler-visible Scope.
  void dispatch(QueueEntry& entry) {
    current_tag_ = entry.tag;
    obs::prof::EventProfiler* const prof = prof_;
    if (prof == nullptr) {
      entry.fn();
    } else {
      prof->count(entry.tag);
      if (!prof->wall_enabled()) {
        entry.fn();
      } else {
        const std::uint64_t t0 = prof->now_us();
        {
          obs::prof::Scope span(entry.tag);
          entry.fn();
        }
        prof->observe_wall(entry.tag, prof->now_us() - t0);
      }
    }
    current_tag_ = 0;
  }

  Time now_ = 0;
  std::uint64_t executed_ = 0;
  TimerWheelQueue queue_;
  TaskId next_task_ = 1;
  std::map<TaskId, Periodic> periodic_;
  std::uint8_t current_tag_ = 0;
  obs::prof::EventProfiler* prof_ = nullptr;
};

}  // namespace ph::sim
