#include "obs/trace.hpp"

#include <cstring>

#include "obs/metrics.hpp"

namespace ph::obs {

// Two views instead of two strings: 80 bytes a span, none on the heap.
static_assert(sizeof(Span) == 80);

SpanId Trace::begin_span(std::string_view name, TimePoint now,
                         std::uint64_t device, std::string_view kind) {
  return begin_span_under(0, name, now, device, kind);
}

SpanId Trace::begin_span_under(SpanId parent, std::string_view name,
                               TimePoint now, std::uint64_t device,
                               std::string_view kind) {
  if (!enabled_) return 0;
  if (ring_capacity_ == 0 && spans_.size() >= capacity_) {
    ++dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->inc();
    return 0;
  }
  Span span;
  span.id = span_base_ + static_cast<SpanId>(spans_.size()) + 1;
  span.parent = parent != 0 ? parent : current_context();
  span.name = intern(name);
  span.kind = intern(kind);
  span.device = device;
  span.start = now;
  spans_.push_back(std::move(span));
  const SpanId id = spans_.back().id;
  evict_if_ring();
  return id;
}

void Trace::end_span(SpanId id, TimePoint now) {
  if (id <= span_base_ || id > span_base_ + spans_.size()) return;
  Span& span = spans_[id - span_base_ - 1];
  if (span.closed) return;
  span.end = now;
  span.closed = true;
}

void Trace::add_event(std::string_view name, TimePoint now,
                      std::uint64_t device, std::string_view kind) {
  if (!enabled_) return;
  if (ring_capacity_ == 0 && events_.size() >= capacity_) {
    ++dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->inc();
    return;
  }
  TraceEvent event;
  event.span = current_context();
  event.name = intern(name);
  event.kind = intern(kind);
  event.device = device;
  event.at = now;
  events_.push_back(std::move(event));
  evict_if_ring();
}

std::string_view Trace::intern(std::string_view text) {
  if (text.empty()) return {};
  const auto it = interned_.find(text);
  if (it != interned_.end()) return *it;
  char* copy = static_cast<char*>(text_.allocate(text.size(), 1));
  std::memcpy(copy, text.data(), text.size());
  return *interned_.insert(std::string_view(copy, text.size())).first;
}

void Trace::evict_if_ring() {
  if (ring_capacity_ == 0) return;
  // Amortised: let the journal grow to twice the ring size, then shed the
  // older half in one erase. Keeps spans() a plain contiguous vector (one
  // move per record on average) while bounding memory to 2× the ring.
  // Records hold views into the text store, so shedding them frees no
  // text and a warm steady-state ring stops touching the allocator.
  if (spans_.size() >= 2 * ring_capacity_) {
    const std::size_t shed = spans_.size() - ring_capacity_;
    spans_.erase(spans_.begin(),
                 spans_.begin() + static_cast<std::ptrdiff_t>(shed));
    span_base_ += shed;
    evicted_spans_ += shed;
  }
  if (events_.size() >= 2 * ring_capacity_) {
    const std::size_t shed = events_.size() - ring_capacity_;
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(shed));
  }
}

void Trace::push_context(SpanId id) { context_.push_back(id); }

void Trace::pop_context() {
  if (!context_.empty()) context_.pop_back();
}

const Span* Trace::find_span(SpanId id) const {
  if (id <= span_base_ || id > span_base_ + spans_.size()) return nullptr;
  return &spans_[id - span_base_ - 1];
}

void Trace::clear() {
  spans_.clear();
  events_.clear();
  context_.clear();
  dropped_ = 0;
  evicted_spans_ = 0;
  span_base_ = 0;
}

}  // namespace ph::obs
