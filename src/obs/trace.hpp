// Virtual-time trace journal — the causality half of ph::obs.
//
// A Trace records Spans (an operation with a start and end in virtual
// time: an RPC, an inquiry scan, a frame flight) and point Events, both
// tagged with the device id that performed them and a free-form message
// kind. Spans form a tree: begin_span() parents the new span under the
// innermost span currently on the *context stack*, which instrumented
// code maintains with Trace::Scope around the synchronous part of an
// operation. Asynchronous completions simply keep the SpanId and call
// end_span() later — the parent link was fixed at begin time, which is
// exactly the causal order ("the RPC caused this frame"), not the
// completion order.
//
// Cross-device causality: a span id travels inside simulated wire
// headers (proto message trace_parent fields) and inside the medium's
// scheduled delivery closures, so the receive side can parent its spans
// under the *remote* sender's span — begin_span_under() takes that
// explicit parent. The result is one connected tree per end-to-end
// operation even though it hops devices.
//
// Timestamps are sim::Time microseconds, passed in by the caller so this
// library does not depend on the simulator. Tracing is OFF by default
// (long soak runs would otherwise accumulate millions of records); tests
// and benches that want a journal call set_enabled(true). When disabled,
// begin_span returns 0 and every other entry point is a cheap no-op.
//
// Flight recorder: set_ring_capacity(N) turns the journal into a bounded
// ring that keeps roughly the last N spans (and N events) and evicts the
// oldest instead of dropping the newest. Ids stay monotonic across
// eviction — find_span()/end_span() on an evicted id are safe no-ops —
// so a ring trace can stay on for a whole soak and be dumped when a
// fault fires (see obs::dump_flight_recording).
//
// Text: a record holds its name and kind as views into the trace's text
// store, which keeps each distinct text once for the life of the Trace.
// Callers may pass views of buffers they overwrite right after the call;
// the views in records stay valid across eviction and clear().
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "util/arena.hpp"

namespace ph::obs {

class Counter;

/// Identifies a recorded span; 0 means "none" (tracing disabled, dropped,
/// or no parent).
using SpanId = std::uint64_t;

/// Virtual-time stamp (sim::Time — microseconds since simulation start).
using TimePoint = std::uint64_t;

/// Span and TraceEvent texts are views into their Trace's text store,
/// valid for the life of the Trace (across ring eviction and clear()).
struct Span {
  SpanId id = 0;
  SpanId parent = 0;      ///< 0 = root
  std::string_view name;  ///< e.g. "community.rpc", "net.link.send"
  std::string_view kind;  ///< message kind: "datagram", "link", "inquiry", opcode…
  std::uint64_t device = 0;  ///< NodeId/DeviceId of the actor; 0 = none
  TimePoint start = 0;
  TimePoint end = 0;      ///< meaningful only when closed
  bool closed = false;
};

struct TraceEvent {
  SpanId span = 0;        ///< innermost open context at record time
  std::string_view name;
  std::string_view kind;
  std::uint64_t device = 0;
  TimePoint at = 0;
};

class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Which time domain the journal's stamps live in — "virtual" (default)
  /// or "wall". Purely a metadata tag: the exporters embed it so a
  /// Perfetto timeline of a real-transport run is never mistaken for
  /// compressed simulated seconds. Owners of wall-clock journals
  /// (SocketTransport) set it once at construction.
  const char* clock_domain() const noexcept { return clock_domain_; }
  void set_clock_domain(const char* domain) noexcept {
    clock_domain_ = domain;
  }

  /// Starts a span parented under the current context. Returns 0 when
  /// tracing is disabled or the journal is full. Takes views: the trace
  /// keeps one copy of each distinct text, so a record holds two views
  /// and recording a text seen before allocates nothing.
  SpanId begin_span(std::string_view name, TimePoint now,
                    std::uint64_t device = 0, std::string_view kind = {});

  /// Starts a span under an explicit parent — the cross-device entry
  /// point: the parent id arrived in a wire header or a delivery closure
  /// from another device. A zero parent falls back to the current
  /// context, so instrumentation can pass a header field through
  /// unconditionally.
  SpanId begin_span_under(SpanId parent, std::string_view name, TimePoint now,
                          std::uint64_t device = 0, std::string_view kind = {});

  /// Closes a span; end_span(0, …) is a no-op, so callers can hold ids
  /// from a disabled trace without checking.
  void end_span(SpanId id, TimePoint now);

  /// Records a point event under the current context.
  void add_event(std::string_view name, TimePoint now, std::uint64_t device = 0,
                 std::string_view kind = {});

  /// Context stack for causal parenting; prefer Scope.
  void push_context(SpanId id);
  void pop_context();
  SpanId current_context() const noexcept {
    return context_.empty() ? 0 : context_.back();
  }

  /// RAII context frame. A zero id (disabled trace) pushes nothing, so
  /// instrumentation can use Scope unconditionally.
  class Scope {
   public:
    Scope(Trace& trace, SpanId id) : trace_(trace), active_(id != 0) {
      if (active_) trace_.push_context(id);
    }
    ~Scope() {
      if (active_) trace_.pop_context();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    bool active_;
  };

  /// Retained spans, oldest first. In ring mode this is a suffix of the
  /// full journal; Span::id remains globally monotonic.
  const std::vector<Span, util::MappedAllocator<Span>>& spans()
      const noexcept {
    return spans_;
  }
  const std::vector<TraceEvent, util::MappedAllocator<TraceEvent>>& events()
      const noexcept {
    return events_;
  }
  /// O(1). nullptr for 0, unknown, or evicted ids.
  const Span* find_span(SpanId id) const;

  /// Records dropped because the journal hit its capacity (full mode
  /// only — a ring evicts instead of dropping).
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Old spans discarded by the flight-recorder ring.
  std::uint64_t evicted() const noexcept { return evicted_spans_; }
  /// Caps spans+events each; existing records are kept.
  void set_capacity(std::size_t max_records) noexcept { capacity_ = max_records; }

  /// Flight-recorder mode: keep roughly the last `spans` spans (and as
  /// many events), evicting the oldest. 0 restores the default
  /// record-until-full behaviour. Reserves the 2× working set up front so
  /// steady-state recording never reallocates the journal vectors.
  void set_ring_capacity(std::size_t spans) {
    ring_capacity_ = spans;
    if (spans > 0) {
      spans_.reserve(2 * spans);
      events_.reserve(2 * spans);
    }
  }
  std::size_t ring_capacity() const noexcept { return ring_capacity_; }

  /// Mirrors every drop into a registry counter (obs.trace.dropped) so
  /// capacity overflow is visible in metric dumps. The counter must
  /// outlive the trace or be reset with nullptr.
  void set_dropped_counter(Counter* counter) noexcept {
    dropped_counter_ = counter;
  }

  /// Forgets every record and the context stack. The text store stays,
  /// so views taken from earlier records remain valid.
  void clear();

 private:
  void evict_if_ring();
  /// The stored copy of `text`, made on its first appearance.
  std::string_view intern(std::string_view text);

  bool enabled_ = false;
  const char* clock_domain_ = "virtual";
  std::size_t capacity_ = 1 << 20;
  std::size_t ring_capacity_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t evicted_spans_ = 0;
  /// Count of spans ever evicted from the front; spans_[i] has id
  /// span_base_ + i + 1.
  std::uint64_t span_base_ = 0;
  Counter* dropped_counter_ = nullptr;
  /// Mapped storage: a ring's reservation is megabytes, and handing it
  /// back to malloc would move later worlds into the brk heap.
  std::vector<Span, util::MappedAllocator<Span>> spans_;
  std::vector<TraceEvent, util::MappedAllocator<TraceEvent>> events_;
  std::vector<SpanId> context_;
  /// Each distinct name/kind text once, for the life of the Trace:
  /// the bytes in `text_`, the index over them in `interned_`.
  util::Arena text_{4096};
  std::unordered_set<std::string_view> interned_;
};

}  // namespace ph::obs
