#include "sim/simulator.hpp"

#include <limits>
#include <utility>

namespace ph::sim {

EventId Simulator::schedule(Duration delay, EventFn fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(Time when, EventFn fn) {
  return schedule_at_tagged(when, obs::prof::effective_tag(current_tag_),
                            std::move(fn));
}

EventId Simulator::schedule_at_tagged(Time when, std::uint8_t tag,
                                      EventFn fn) {
  if (when < now_) when = now_;
  return queue_.push(when, std::move(fn), tag);
}

TaskId Simulator::schedule_periodic(Duration interval, EventFn fn) {
  const TaskId id = next_task_++;
  Periodic& task = periodic_[id];
  task.interval = interval;
  task.fn = std::move(fn);
  task.armed = schedule(interval, [this, id] { run_periodic(id); });
  return id;
}

bool Simulator::cancel_periodic(TaskId id) {
  auto it = periodic_.find(id);
  if (it == periodic_.end()) return false;
  cancel(it->second.armed);
  periodic_.erase(it);
  return true;
}

void Simulator::run_periodic(TaskId id) {
  auto it = periodic_.find(id);
  if (it == periodic_.end()) return;  // cancelled after this occurrence fired
  it->second.fn();
  // The callback may have cancelled its own task (or scheduled others that
  // did); re-find before re-arming.
  it = periodic_.find(id);
  if (it == periodic_.end()) return;
  it->second.armed = schedule(it->second.interval, [this, id] {
    run_periodic(id);
  });
}

void Simulator::run_until(Time until) {
  QueueEntry entry;
  while (queue_.pop_next(until, entry)) {
    now_ = entry.when;
    ++executed_;
    dispatch(entry);
  }
  if (now_ < until) now_ = until;
}

void Simulator::run_all() {
  QueueEntry entry;
  while (queue_.pop_next(std::numeric_limits<Time>::max(), entry)) {
    now_ = entry.when;
    ++executed_;
    dispatch(entry);
  }
}

}  // namespace ph::sim
