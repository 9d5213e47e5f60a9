// ph::obs::Trace — span-tree mechanics, virtual-time ordering, the
// disabled-by-default contract, and a round-trip of the exporter's JSON
// through the bundled reader.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ph::obs {
namespace {

TEST(Trace, DisabledByDefaultAndCheap) {
  Trace trace;
  EXPECT_FALSE(trace.enabled());
  EXPECT_EQ(trace.begin_span("op", 10), 0u);
  trace.end_span(0, 20);  // must be a harmless no-op
  trace.add_event("ev", 30);
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_TRUE(trace.events().empty());
}

TEST(Trace, SpanRecordsFields) {
  Trace trace;
  trace.set_enabled(true);
  const SpanId id = trace.begin_span("community.rpc", 100, 7, "ps_msg");
  ASSERT_NE(id, 0u);
  trace.end_span(id, 250);

  const Span* span = trace.find_span(id);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->name, "community.rpc");
  EXPECT_EQ(span->kind, "ps_msg");
  EXPECT_EQ(span->device, 7u);
  EXPECT_EQ(span->start, 100u);
  EXPECT_EQ(span->end, 250u);
  EXPECT_TRUE(span->closed);
}

TEST(Trace, ScopeParentsNestedSpans) {
  Trace trace;
  trace.set_enabled(true);
  const SpanId outer = trace.begin_span("outer", 0);
  SpanId inner = 0;
  SpanId sibling = 0;
  {
    Trace::Scope scope(trace, outer);
    inner = trace.begin_span("inner", 10);
    {
      Trace::Scope nested(trace, inner);
      EXPECT_EQ(trace.current_context(), inner);
    }
    EXPECT_EQ(trace.current_context(), outer);
  }
  sibling = trace.begin_span("sibling", 20);

  EXPECT_EQ(trace.find_span(inner)->parent, outer);
  EXPECT_EQ(trace.find_span(sibling)->parent, 0u);  // context popped
  EXPECT_EQ(trace.find_span(outer)->parent, 0u);
}

TEST(Trace, ParentFixedAtBeginNotAtCompletion) {
  // The async pattern all instrumented layers use: begin under a scope,
  // finish much later with no context on the stack.
  Trace trace;
  trace.set_enabled(true);
  const SpanId rpc = trace.begin_span("community.rpc", 0);
  SpanId frame = 0;
  {
    Trace::Scope scope(trace, rpc);
    frame = trace.begin_span("net.link.send", 5);
  }
  trace.end_span(rpc, 100);
  trace.end_span(frame, 300);  // completes after its parent closed

  const Span* child = trace.find_span(frame);
  EXPECT_EQ(child->parent, rpc);
  EXPECT_GE(child->start, trace.find_span(rpc)->start);
}

TEST(Trace, EventsAttachToCurrentContext) {
  Trace trace;
  trace.set_enabled(true);
  const SpanId op = trace.begin_span("op", 0);
  {
    Trace::Scope scope(trace, op);
    trace.add_event("sns.page", 42, 3, "group_page");
  }
  trace.add_event("orphan", 50);

  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].span, op);
  EXPECT_EQ(trace.events()[0].at, 42u);
  EXPECT_EQ(trace.events()[0].device, 3u);
  EXPECT_EQ(trace.events()[0].kind, "group_page");
  EXPECT_EQ(trace.events()[1].span, 0u);
}

TEST(Trace, ScopeWithZeroIdPushesNothing) {
  Trace trace;  // disabled: begin_span returns 0
  const SpanId none = trace.begin_span("op", 0);
  Trace::Scope scope(trace, none);
  EXPECT_EQ(trace.current_context(), 0u);
}

TEST(Trace, CapacityDropsNewRecordsAndCounts) {
  Trace trace;
  trace.set_enabled(true);
  trace.set_capacity(2);
  const SpanId a = trace.begin_span("a", 1);
  const SpanId b = trace.begin_span("b", 2);
  const SpanId c = trace.begin_span("c", 3);  // over capacity
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_EQ(c, 0u);
  trace.add_event("e1", 4);
  trace.add_event("e2", 5);
  trace.add_event("e3", 6);  // over capacity
  EXPECT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.dropped(), 2u);
}

TEST(Trace, BeginSpanUnderUsesExplicitParent) {
  // The wire-header path: the receive side knows the sender's span id and
  // parents under it even though that span was never on this context stack.
  Trace trace;
  trace.set_enabled(true);
  const SpanId remote = trace.begin_span("community.rpc", 0, 1);
  const SpanId local = trace.begin_span_under(remote, "community.server.handle",
                                              40, 2, "ps_msg");
  EXPECT_EQ(trace.find_span(local)->parent, remote);
  EXPECT_EQ(trace.find_span(local)->device, 2u);
}

TEST(Trace, BeginSpanUnderZeroFallsBackToContext) {
  // trace_parent == 0 means "untraced sender": fall back to whatever the
  // delivering frame pushed, exactly like begin_span.
  Trace trace;
  trace.set_enabled(true);
  const SpanId flight = trace.begin_span("net.datagram", 0);
  Trace::Scope scope(trace, flight);
  const SpanId handled = trace.begin_span_under(0, "handle", 10);
  EXPECT_EQ(trace.find_span(handled)->parent, flight);
}

TEST(Trace, RingModeEvictsOldestKeepsIdsStable) {
  Trace trace;
  trace.set_enabled(true);
  trace.set_ring_capacity(2);
  std::vector<SpanId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(trace.begin_span("s" + std::to_string(i), i));
  }
  // Ids stay monotonic across evictions — no reuse.
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_GT(ids[i], ids[i - 1]);
  // The ring holds at least the newest `capacity` spans (amortised
  // eviction may leave up to 2x briefly) and evicted some prefix.
  EXPECT_GE(trace.evicted(), 1u);
  EXPECT_LE(trace.spans().size(), 4u);
  EXPECT_EQ(trace.spans().size() + trace.evicted(), 5u);
  // The newest span is always present; an evicted id resolves to nothing
  // and closing it is a harmless no-op.
  EXPECT_NE(trace.find_span(ids.back()), nullptr);
  EXPECT_EQ(trace.find_span(ids.front()), nullptr);
  trace.end_span(ids.front(), 99);
  // Ring mode never counts as "dropped": the journal stayed bounded by
  // design, not by overflow.
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Trace, RingSurvivorsKeepWorking) {
  Trace trace;
  trace.set_enabled(true);
  trace.set_ring_capacity(3);
  std::vector<SpanId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(trace.begin_span("s", i));
  }
  const SpanId last = ids.back();
  trace.end_span(last, 500);
  EXPECT_TRUE(trace.find_span(last)->closed);
  EXPECT_EQ(trace.find_span(last)->end, 500u);
}

TEST(Trace, DroppedCounterMirror) {
  Registry registry;
  Counter& dropped = registry.counter("obs.trace.dropped");
  Trace trace;
  trace.set_enabled(true);
  trace.set_capacity(1);
  trace.set_dropped_counter(&dropped);
  trace.begin_span("kept", 1);
  trace.begin_span("dropped", 2);       // spans at capacity
  trace.add_event("kept_event", 3);
  trace.add_event("dropped_event", 4);  // events at capacity
  EXPECT_EQ(trace.dropped(), 2u);
  EXPECT_EQ(dropped.value(), 2u);
}

TEST(Trace, ClearResetsJournal) {
  Trace trace;
  trace.set_enabled(true);
  trace.begin_span("a", 1);
  trace.add_event("e", 2);
  trace.clear();
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_TRUE(trace.events().empty());
  EXPECT_NE(trace.begin_span("b", 3), 0u);
}

// Records keep views of one stored copy of each text: a caller's buffer
// may be overwritten as soon as the call returns, and the views stay
// readable across ring eviction and clear().
TEST(Trace, InternedTextSurvivesEvictionAndClear) {
  Trace trace;
  trace.set_enabled(true);
  trace.set_ring_capacity(4);
  std::string name;
  std::string kind;
  for (int i = 0; i < 100; ++i) {
    name = "op.";
    name += std::to_string(i % 3);
    kind = i % 2 == 0 ? "even" : "odd";
    trace.begin_span(name, static_cast<TimePoint>(i), 1, kind);
    trace.add_event(name, static_cast<TimePoint>(i));
    name.assign(40, 'x');  // overwrite, past the small-string buffer
    kind.assign(40, 'y');
  }
  EXPECT_GT(trace.evicted(), 0u);
  const auto expected_name = [](const Span& span) {
    return "op." + std::to_string((span.id - 1) % 3);
  };
  std::vector<Span> kept(trace.spans().begin(), trace.spans().end());
  ASSERT_GE(kept.size(), 4u);
  for (const Span& span : kept) {
    EXPECT_EQ(span.name, expected_name(span)) << span.id;
    EXPECT_EQ(span.kind, (span.id - 1) % 2 == 0 ? "even" : "odd");
  }
  // Equal texts share one address: spans three ids apart have one name.
  EXPECT_EQ(kept[0].name.data(), kept[3].name.data());
  EXPECT_EQ(kept[0].kind.data(), kept[2].kind.data());
  // Spans and events share the store.
  for (const TraceEvent& event : trace.events()) {
    if (event.name == kept[0].name) {
      EXPECT_EQ(event.name.data(), kept[0].name.data());
    }
  }

  trace.clear();
  EXPECT_TRUE(trace.spans().empty());
  for (const Span& span : kept) {
    EXPECT_EQ(span.name, expected_name(span)) << span.id;
  }
  // The store outlives clear(): a text seen before maps to the same copy.
  name = "op.0";
  trace.begin_span(name, 200);
  std::string_view op0;
  for (const Span& span : kept) {
    if (span.name == "op.0") op0 = span.name;
  }
  ASSERT_EQ(op0, "op.0");
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].name.data(), op0.data());
}

TEST(Export, JsonRoundTripsThroughReader) {
  Registry registry;
  registry.counter("net.medium.datagrams_sent").inc(3);
  registry.gauge("depth").set(1.5);
  registry.histogram("rpc_us", {10.0, 100.0}).observe(42.0);

  Trace trace;
  trace.set_enabled(true);
  const SpanId rpc = trace.begin_span("community.rpc", 100, 2, "ps_msg");
  {
    Trace::Scope scope(trace, rpc);
    const SpanId frame = trace.begin_span("net.link.send", 110, 2);
    trace.end_span(frame, 150);
    trace.add_event("sns.page", 120, 1, "profile_page");
  }
  trace.end_span(rpc, 200);

  std::string error;
  json::Value root;
  ASSERT_TRUE(json::parse(to_json(registry, &trace), root, &error)) << error;

  const json::Value* counters = root.get("counters");
  ASSERT_TRUE(counters != nullptr && counters->is_object());
  const json::Value* sent = counters->get("net.medium.datagrams_sent");
  ASSERT_TRUE(sent != nullptr && sent->is_number());
  EXPECT_DOUBLE_EQ(sent->number, 3.0);

  const json::Value* histograms = root.get("histograms");
  ASSERT_TRUE(histograms != nullptr && histograms->is_object());
  const json::Value* rpc_us = histograms->get("rpc_us");
  ASSERT_TRUE(rpc_us != nullptr && rpc_us->is_object());
  EXPECT_DOUBLE_EQ(rpc_us->get("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(rpc_us->get("p95")->number, 42.0);
  ASSERT_TRUE(rpc_us->get("buckets")->is_array());
  EXPECT_EQ(rpc_us->get("buckets")->array->size(), 3u);

  const json::Value* spans = root.get("spans");
  ASSERT_TRUE(spans != nullptr && spans->is_array());
  ASSERT_EQ(spans->array->size(), 2u);
  const json::Value& first = (*spans->array)[0];
  EXPECT_EQ(first.get("name")->string, "community.rpc");
  EXPECT_EQ(first.get("kind")->string, "ps_msg");
  EXPECT_DOUBLE_EQ(first.get("start_us")->number, 100.0);
  EXPECT_DOUBLE_EQ(first.get("end_us")->number, 200.0);
  const json::Value& second = (*spans->array)[1];
  EXPECT_DOUBLE_EQ(second.get("parent")->number,
                   first.get("id")->number);

  const json::Value* events = root.get("events");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_EQ(events->array->size(), 1u);
  EXPECT_EQ((*events->array)[0].get("name")->string, "sns.page");

  // Without a trace, the journal keys are absent entirely.
  json::Value no_trace;
  ASSERT_TRUE(json::parse(to_json(registry), no_trace, &error)) << error;
  EXPECT_EQ(no_trace.get("spans"), nullptr);
  EXPECT_EQ(no_trace.get("events"), nullptr);
}

TEST(Export, ChromeTraceShape) {
  Trace trace;
  trace.set_enabled(true);
  // A cross-device pair: the rpc on device 1, its handling on device 2.
  const SpanId rpc = trace.begin_span("community.rpc", 100, 1, "ps_msg");
  const SpanId handle =
      trace.begin_span_under(rpc, "community.server.handle", 140, 2);
  trace.end_span(handle, 180);
  trace.end_span(rpc, 200);
  const SpanId open = trace.begin_span("peerhood.session.resume", 210, 1);
  (void)open;  // left open: must surface as a "B" begin event
  trace.add_event("community.group.formed", 220, 2, "football");

  std::string error;
  json::Value root;
  ASSERT_TRUE(json::parse(
      to_chrome_trace(trace, {{1, "alice"}, {2, "bob"}}), root, &error))
      << error;
  const json::Value* events = root.get("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());

  int metadata = 0, complete = 0, begin = 0, instant = 0;
  int flow_start = 0, flow_finish = 0;
  bool named_alice = false;
  for (const json::Value& event : *events->array) {
    const std::string& ph = event.get("ph")->string;
    if (ph == "M") {
      ++metadata;
      const json::Value* args = event.get("args");
      if (args != nullptr && args->get("name")->string == "alice") {
        named_alice = true;
      }
    } else if (ph == "X") {
      ++complete;
      EXPECT_TRUE(event.get("dur")->is_number());
    } else if (ph == "B") {
      ++begin;
    } else if (ph == "i") {
      ++instant;
    } else if (ph == "s") {
      ++flow_start;
    } else if (ph == "f") {
      ++flow_finish;
    }
  }
  EXPECT_EQ(metadata, 3);  // one track per device + the clock_domain tag
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(begin, 1);
  EXPECT_EQ(instant, 1);
  // Exactly one causal hop crosses devices: one flow-arrow pair.
  EXPECT_EQ(flow_start, 1);
  EXPECT_EQ(flow_finish, 1);
  EXPECT_TRUE(named_alice);
}

TEST(Export, FlightRecordingFallbackPathAndReason) {
  Trace trace;
  trace.set_enabled(true);
  const SpanId span = trace.begin_span("fault.blackout", 10, 3, "fault");
  trace.end_span(span, 20);

  // No env var, no fallback: a no-op by design.
  ::unsetenv("PH_FLIGHT_JSON");
  EXPECT_FALSE(dump_flight_recording(trace, "blackout"));

  const std::string path =
      ::testing::TempDir() + "/ph_flight_recorder_test.json";
  ASSERT_TRUE(dump_flight_recording(trace, "blackout", path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::parse(buffer.str(), root, &error)) << error;
  const json::Value* other = root.get("otherData");
  ASSERT_TRUE(other != nullptr && other->is_object());
  EXPECT_EQ(other->get("reason")->string, "blackout");
  ASSERT_TRUE(root.get("traceEvents")->is_array());
}

}  // namespace
}  // namespace ph::obs
