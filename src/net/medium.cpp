#include "net/medium.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "net/link_state.hpp"
#include "obs/prof.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace ph::net {

namespace {
constexpr int kMaxRetransmissions = 5;
}  // namespace

Medium::Medium(sim::Simulator& simulator, sim::Rng rng, MediumConfig config)
    : simulator_(simulator), rng_(rng), config_(config) {
  // NodeIds are dense from 1; slot 0 of every per-node array is a
  // placeholder so arrays index directly by id.
  node_names_.emplace_back();
  node_mobility_.emplace_back();
  adapter_lut_.emplace_back();
  open_link_counts_.emplace_back();
  pos_cache_at_.push_back(kPosNever);
  pos_cache_.emplace_back();
  c_datagrams_sent_ = &registry_.counter("net.medium.datagrams_sent");
  c_datagrams_lost_ = &registry_.counter("net.medium.datagrams_lost");
  c_link_messages_sent_ = &registry_.counter("net.medium.link_messages_sent");
  c_link_bytes_sent_ = &registry_.counter("net.medium.link_bytes_sent");
  c_retransmissions_ = &registry_.counter("net.medium.retransmissions");
  c_links_opened_ = &registry_.counter("net.medium.links_opened");
  c_links_broken_ = &registry_.counter("net.medium.links_broken");
  c_inquiries_ = &registry_.counter("net.medium.inquiries");
  c_links_compacted_ = &registry_.counter("net.medium.links_compacted");
  c_signal_evals_ = &registry_.counter("net.medium.signal_evals");
  c_spatial_queries_ = &registry_.counter("net.medium.spatial.queries");
  c_spatial_rebuilds_ = &registry_.counter("net.medium.spatial.rebuilds");
  c_spatial_cells_visited_ =
      &registry_.counter("net.medium.spatial.cells_visited");
  c_spatial_candidates_ = &registry_.counter("net.medium.spatial.candidates");
  c_spatial_pairs_pruned_ =
      &registry_.counter("net.medium.spatial.pairs_pruned");
  c_position_hits_ = &registry_.counter("net.medium.position_cache.hits");
  c_position_misses_ = &registry_.counter("net.medium.position_cache.misses");
  c_signal_memo_hits_ = &registry_.counter("net.medium.signal_cache.hits");
  h_transfer_us_ = &registry_.histogram("net.medium.transfer_us");
  transport_ = transport::register_transport_metrics(registry_);
  // Capacity overflow in the journal must be visible in metric dumps.
  trace_.set_dropped_counter(&registry_.counter("obs.trace.dropped"));
  for (Technology tech : {Technology::bluetooth, Technology::wlan,
                          Technology::gprs}) {
    const std::string prefix =
        "net.tech." + std::string(to_string(tech));
    TechCounters& tc = tech_counters_[static_cast<std::size_t>(tech)];
    tc.datagram_bytes = &registry_.counter(prefix + ".datagram_bytes");
    tc.link_bytes = &registry_.counter(prefix + ".link_bytes");
    tc.messages = &registry_.counter(prefix + ".messages");
  }
}

Medium::~Medium() {
  // Links still open when the world tears down hold their handlers, and
  // handlers routinely capture Channels that co-own the LinkState
  // (session handover guards, server-side keepalive holders). Release them
  // so those reference cycles cannot outlive the Medium.
  for (const auto& weak : links_) {
    if (auto state = weak.lock()) {
      state->release_handlers();
      // Handles and scheduled close events that outlive the world see a
      // dead link, so nothing reaches back into this Medium.
      state->open = false;
    }
  }
}

NodeId Medium::add_node(std::string name,
                        std::unique_ptr<sim::MobilityModel> mobility) {
  assert(mobility != nullptr);
  const NodeId id = next_node_++;
  node_names_.push_back(std::move(name));
  node_mobility_.push_back(std::move(mobility));
  adapter_lut_.emplace_back();
  open_link_counts_.emplace_back();
  pos_cache_at_.push_back(kPosNever);
  pos_cache_.emplace_back();
  return id;
}

NodeId Medium::add_device(std::string name,
                          std::unique_ptr<sim::MobilityModel> mobility) {
  if (mobility == nullptr) {
    mobility = std::make_unique<sim::StaticMobility>(sim::Vec2{0.0, 0.0});
  }
  return add_node(std::move(name), std::move(mobility));
}

void Medium::set_mobility(NodeId node,
                          std::unique_ptr<sim::MobilityModel> mobility) {
  assert(mobility != nullptr);
  node_mobility_.at(node) = std::move(mobility);
  // The node may now be somewhere else at this very timestamp: drop its
  // memo, force every technology's grid to re-place it, and invalidate
  // signals computed from the old position.
  pos_cache_at_[node] = kPosNever;
  for (TechAdapters& ta : tech_adapters_) ta.dirty = true;
  invalidate_signal_memo();
}

const std::string& Medium::node_name(NodeId node) const {
  if (node == kInvalidNode || node >= node_names_.size()) {
    throw std::out_of_range("unknown node id");
  }
  return node_names_[node];
}

std::map<std::uint64_t, std::string> Medium::trace_device_names() const {
  std::map<std::uint64_t, std::string> names;
  for (NodeId id = 1; id < node_names_.size(); ++id) {
    names[id] = node_names_[id];
  }
  return names;
}

sim::Vec2 Medium::position(NodeId node) const {
  const sim::Time now = simulator_.now();
  if (!config_.use_position_cache) {
    return node_mobility_.at(node)->position_at(now);
  }
  if (pos_cache_at_[node] == now) {
    c_position_hits_->inc();
    return pos_cache_[node];
  }
  const sim::Vec2 pos = node_mobility_.at(node)->position_at(now);
  pos_cache_at_[node] = now;
  pos_cache_[node] = pos;
  c_position_misses_->inc();
  return pos;
}

Medium::TechTraffic Medium::traffic(Technology tech) const {
  const TechCounters& tc = tech_counters_[static_cast<std::size_t>(tech)];
  TechTraffic out;
  out.datagram_bytes = tc.datagram_bytes->value();
  out.link_bytes = tc.link_bytes->value();
  out.messages = tc.messages->value();
  return out;
}

NodeId Medium::add_access_point(std::string name, sim::Vec2 position,
                                double range_m) {
  const NodeId id =
      add_node(std::move(name), std::make_unique<sim::StaticMobility>(position));
  access_points_.push_back(AccessPoint{id, range_m, true});
  invalidate_signal_memo();  // infra pairs may be reachable through it now
  return id;
}

void Medium::set_access_point_active(NodeId ap, bool active) {
  for (AccessPoint& entry : access_points_) {
    if (entry.node != ap) continue;
    entry.active = active;
    // Invalidate before the reachability sweep below — it must see the
    // cell's new state, not memoized pre-flip signals.
    invalidate_signal_memo();
    if (!active) {
      // The cell went dark: break every infrastructure link that no other
      // AP can carry, so applications learn immediately — losing
      // association is not a silent event.
      std::vector<std::shared_ptr<detail::LinkState>> affected;
      for (const auto& weak : links_) {
        auto state = weak.lock();
        if (!state || !state->open) continue;
        if (state->profile.infrastructure &&
            !reachable(state->a, state->b, state->profile)) {
          affected.push_back(std::move(state));
        }
      }
      for (auto& state : affected) break_link(state);
    }
    return;
  }
}

Adapter& Medium::add_adapter(NodeId node, TechProfile profile) {
  assert(node != kInvalidNode && node < node_names_.size());
  const Technology tech = profile.tech;
  const std::size_t ti = static_cast<std::size_t>(tech);
  const double range = profile.via_gateway ? 0.0 : profile.range_m;
  PH_CHECK_MSG(adapter_lut_[node][ti] == nullptr,
               "one adapter per (node, technology)");
  auto adapter = std::make_unique<Adapter>(*this, node, std::move(profile));
  Adapter& ref = *adapter;
  adapter_own_.push_back(std::move(adapter));
  adapter_lut_[node][ti] = &ref;
  TechAdapters& ta = tech_adapters_[ti];
  // Keep the per-technology arrays sorted by node id so the grid path and
  // the brute-force path evaluate candidates in the same order (matching
  // the old full-map scan); order is what keeps RNG consumption identical.
  const std::size_t at = static_cast<std::size_t>(
      std::lower_bound(ta.ids.begin(), ta.ids.end(), node) - ta.ids.begin());
  ta.ids.insert(ta.ids.begin() + static_cast<std::ptrdiff_t>(at), node);
  ta.list.insert(ta.list.begin() + static_cast<std::ptrdiff_t>(at), &ref);
  ta.powered.insert(ta.powered.begin() + static_cast<std::ptrdiff_t>(at), 1);
  // Mid-list insertion shifts the tail; refresh the per-adapter index the
  // powered mirror is keyed by (setup-time cost only — adapters never die).
  for (std::size_t i = at; i < ta.list.size(); ++i) {
    ta.list[i]->tech_index_ = i;
  }
  ta.max_range_m = std::max(ta.max_range_m, range);
  ta.dirty = true;
  // A pair involving this node may have memoized signal 0 ("no adapter")
  // at this very timestamp; the new radio changes that.
  invalidate_signal_memo();
  return ref;
}

Adapter* Medium::adapter(NodeId node, Technology tech) {
  if (node >= adapter_lut_.size()) return nullptr;
  return adapter_lut_[node][static_cast<std::size_t>(tech)];
}

const Adapter* Medium::adapter(NodeId node, Technology tech) const {
  if (node >= adapter_lut_.size()) return nullptr;
  return adapter_lut_[node][static_cast<std::size_t>(tech)];
}

void Medium::note_adapter_power(const Adapter& adapter, bool on) noexcept {
  TechAdapters& ta =
      tech_adapters_[static_cast<std::size_t>(adapter.technology())];
  ta.powered[adapter.tech_index_] = on ? 1 : 0;
}

bool Medium::reachable(NodeId a, NodeId b, const TechProfile& profile) const {
  return signal(a, b, profile) > 0.0;
}

namespace {
/// Quadratic falloff: 1 at 0 m, 0 at/beyond `range`.
double falloff(double distance_m, double range_m) {
  if (distance_m >= range_m) return 0.0;
  const double frac = distance_m / range_m;
  return 1.0 - frac * frac;
}
}  // namespace

double Medium::signal(NodeId a, NodeId b, const TechProfile& profile) const {
  if (a == b) return 0.0;
  if (!config_.use_signal_cache) {
    c_signal_evals_->inc();
    return signal_physics(a, b, profile);
  }
  const sim::Time now = simulator_.now();
  if (signal_memo_at_ != now || signal_memo_epoch_ != world_epoch_) {
    signal_memo_.clear();
    signal_memo_at_ = now;
    signal_memo_epoch_ = world_epoch_;
  }
  // signal() is exactly symmetric in (a, b): falloff takes hypot of
  // coordinate differences (sign-insensitive), the AP legs combine via
  // min, and fault attenuation multiplies per-node factors — all
  // bit-commutative. Normalizing the key to the unordered pair lets a
  // delivery-time recheck (src→dst) and the receiver's signal sample
  // (dst→src) inside the same timestamp share one evaluation.
  SignalKey key;
  key.pair = (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
             std::max(a, b);
  key.range_bits = std::bit_cast<std::uint64_t>(profile.range_m);
  key.flags = (static_cast<std::uint32_t>(profile.tech) << 2) |
              (profile.via_gateway ? 2u : 0u) |
              (profile.infrastructure ? 1u : 0u);
  if (const double* memo = signal_memo_.find(key)) {
    c_signal_memo_hits_->inc();
    return *memo;
  }
  c_signal_evals_->inc();  // the pair-evaluation cost the benches compare
  const double value = signal_physics(a, b, profile);
  signal_memo_.insert(key, value);
  return value;
}

std::size_t Medium::SignalMemo::hash(const SignalKey& k) noexcept {
  std::uint64_t h = k.pair * 0x9E3779B97F4A7C15ull;
  h ^= k.range_bits + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= static_cast<std::uint64_t>(k.flags) + (h << 6) + (h >> 2);
  return static_cast<std::size_t>(h ^ (h >> 29));
}

const double* Medium::SignalMemo::find(const SignalKey& key) const noexcept {
  if (size_ == 0) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.stamp != stamp_) return nullptr;  // stale slots end a probe
    if (slot.key == key) return &slot.value;
  }
}

void Medium::SignalMemo::insert(const SignalKey& key, double value) {
  if ((size_ + 1) * 2 > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(key) & mask;
  while (slots_[i].stamp == stamp_) i = (i + 1) & mask;
  slots_[i] = Slot{key, value, stamp_};
  ++size_;
}

void Medium::SignalMemo::grow() {
  std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(std::max<std::size_t>(256, slots_.size() * 2)));
  const std::uint64_t live = stamp_;
  // The new array is all-zero stamps; restart the stamp above them.
  stamp_ = 1;
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.stamp == live) insert(slot.key, slot.value);
  }
}

double Medium::signal_physics(NodeId a, NodeId b,
                              const TechProfile& profile) const {
  const Adapter* aa = adapter(a, profile.tech);
  const Adapter* ab = adapter(b, profile.tech);
  if (aa == nullptr || ab == nullptr || !aa->powered() || !ab->powered()) return 0.0;
  if (profile.via_gateway) {
    // Cellular coverage is assumed ubiquitous, but a fault-plane signal
    // ramp (device descending into a basement) still attenuates it.
    return attenuated(1.0, a, b);
  }
  if (profile.infrastructure) {
    // Stations associate with their best access point; APs bridge over the
    // wired distribution system (thesis §2.4.2: "Inter-networking with
    // wired LAN is allowed in infrastructure mode"). The end-to-end signal
    // is the weaker of the two stations' own AP legs.
    const sim::Vec2 pos_a = position(a);
    const sim::Vec2 pos_b = position(b);
    double best_a = 0.0, best_b = 0.0;
    for (const AccessPoint& ap : access_points_) {
      if (!ap.active) continue;
      const sim::Vec2 ap_pos = position(ap.node);
      best_a = std::max(best_a, falloff(distance(pos_a, ap_pos), ap.range_m));
      best_b = std::max(best_b, falloff(distance(pos_b, ap_pos), ap.range_m));
    }
    return attenuated(std::min(best_a, best_b), a, b);
  }
  return attenuated(falloff(distance(position(a), position(b)),
                            profile.range_m),
                    a, b);
}

double Medium::attenuated(double physical, NodeId a, NodeId b) const {
  if (fault_ == nullptr || physical <= 0.0) return physical;
  const double factor = std::clamp(fault_->signal_factor(a, b), 0.0, 1.0);
  return physical * factor;
}

double Medium::frame_loss(const TechProfile& profile) {
  const double base = profile.frame_loss;
  if (fault_ == nullptr) return base;
  return std::clamp(fault_->frame_loss(profile.tech, base), 0.0, 1.0);
}

void Medium::ensure_spatial(Technology tech) const {
  TechAdapters& ta = tech_adapters_[static_cast<std::size_t>(tech)];
  const sim::Time now = simulator_.now();
  if (ta.built && !ta.dirty && ta.built_at == now) return;
  ta.positions.clear();
  ta.positions.reserve(ta.ids.size());
  for (const NodeId id : ta.ids) {
    ta.positions.push_back(position(id));
  }
  const double cell = config_.spatial_cell_m > 0.0
                          ? config_.spatial_cell_m
                          : std::max(1.0, ta.max_range_m * 0.5);
  ta.grid.rebuild(cell, ta.positions);
  ta.built_at = now;
  ta.built = true;
  ta.dirty = false;
  c_spatial_rebuilds_->inc();
}

std::vector<NodeId> Medium::nodes_in_range(NodeId node,
                                           const TechProfile& profile) const {
  std::vector<NodeId> out;
  const TechAdapters& ta =
      tech_adapters_[static_cast<std::size_t>(profile.tech)];
  // Only direct radios are range-limited; gateway techs reach everyone and
  // infrastructure reachability hangs off access-point geometry, so both
  // take the per-technology scan (already far smaller than the old
  // all-adapters map walk).
  const bool direct = !profile.via_gateway && !profile.infrastructure;
  if (config_.use_spatial_index && direct && !ta.ids.empty()) {
    ensure_spatial(profile.tech);
    spatial_scratch_.clear();
    const SpatialGrid::QueryStats qs =
        ta.grid.query(position(node), profile.range_m, spatial_scratch_);
    c_spatial_queries_->inc();
    c_spatial_cells_visited_->inc(qs.cells_visited);
    c_spatial_candidates_->inc(qs.candidates);
    c_spatial_pairs_pruned_->inc(ta.ids.size() - qs.candidates);
    for (std::uint32_t index : spatial_scratch_) {
      const NodeId peer = ta.ids[index];
      if (peer == node) continue;
      if (!ta.powered[index]) continue;
      if (!reachable(node, peer, profile)) continue;
      out.push_back(peer);
    }
    return out;
  }
  for (std::size_t i = 0; i < ta.ids.size(); ++i) {
    const NodeId peer = ta.ids[i];
    if (peer == node) continue;
    if (!ta.powered[i]) continue;
    if (!reachable(node, peer, profile)) continue;
    out.push_back(peer);
  }
  return out;
}

std::size_t Medium::open_link_count(NodeId node, Technology tech) const {
  if (node >= open_link_counts_.size()) return 0;
  return open_link_counts_[node][static_cast<std::size_t>(tech)];
}

sim::Duration Medium::transfer_time(const TechProfile& profile,
                                    std::size_t bytes, bool reliable) {
  const double serialize_s =
      static_cast<double>(bytes) * 8.0 / profile.bandwidth_bps;
  sim::Duration total = sim::seconds(serialize_s) + profile.base_latency;
  if (profile.via_gateway) total += 2 * profile.gateway_latency;  // up + down
  if (profile.infrastructure) total += profile.ap_relay;  // AP store&forward
  if (fault_ != nullptr) total += fault_->extra_latency(profile.tech);
  if (reliable) {
    // Each retransmission is its own frame attempt: the loss model is
    // consulted per attempt so burst windows (Gilbert–Elliott) advance.
    for (int i = 0; i < kMaxRetransmissions && rng_.chance(frame_loss(profile));
         ++i) {
      total += profile.retransmit_delay;
      c_retransmissions_->inc();
    }
  }
  h_transfer_us_->observe(static_cast<double>(total));
  return total;
}

void Medium::deliver_datagram(Adapter& from, NodeId dst, Port port,
                              BytesView payload) {
  c_datagrams_sent_->inc();
  transport_.datagrams_sent->inc();
  transport_.datagram_bytes->inc(payload.size());
  const TechProfile& profile = from.profile();
  const TechCounters& tc = tech_counters_[static_cast<std::size_t>(profile.tech)];
  tc.datagram_bytes->inc(payload.size());
  tc.messages->inc();
  const obs::SpanId span = trace_.begin_span(
      "net.datagram", simulator_.now(), from.device(), "datagram");
  // The radio serializes its own transmissions; propagation (base latency,
  // gateway hops) happens "in the air" and does not occupy the radio.
  const sim::Time depart = std::max(simulator_.now(), from.tx_busy_until_);
  const sim::Duration serialize = sim::seconds(
      static_cast<double>(payload.size()) * 8.0 / profile.bandwidth_bps);
  const sim::Duration flight = transfer_time(profile, payload.size(), false);
  from.tx_busy_until_ = depart + serialize;
  if (depart > simulator_.now()) {
    // The frame waited for the radio: record the queueing window as a
    // child of the flight span (end known now — synthetic closed span).
    obs::Trace::Scope queued(trace_, span);
    const obs::SpanId q = trace_.begin_span("net.tx_queue", simulator_.now(),
                                            from.device(), "queue");
    trace_.end_span(q, depart);
  }
  if (rng_.chance(frame_loss(profile))) {
    c_datagrams_lost_->inc();
    trace_.end_span(span, simulator_.now());
    return;  // connectionless: lost frames are simply gone
  }
  const NodeId src = from.device();
  const Technology tech = profile.tech;
  // The in-flight frame lives in a pooled buffer: once the pool reaches its
  // high-water mark, steady-state sends stop allocating. The handle keeps a
  // weak reference to the pool, so closures destroyed after the Medium
  // (world teardown order) free instead of recycling.
  const obs::prof::TagScope delivery_tag(obs::prof::Center::net_delivery);
  simulator_.schedule_at(
      depart + flight,
      [this, src, dst, port, tech, span,
       frame = frame_pool_.acquire(payload.data(), payload.size())] {
        trace_.end_span(span, simulator_.now());
        // Re-resolve both endpoints at delivery time: movement or power
        // changes during flight drop the frame.
        Adapter* sender = adapter(src, tech);
        Adapter* receiver = adapter(dst, tech);
        if (sender == nullptr || receiver == nullptr) return;
        if (!sender->powered() || !receiver->powered()) return;
        if (!reachable(src, dst, sender->profile())) return;
        transport_.datagrams_received->inc();
        auto handler = receiver->datagram_handlers_.find(port);
        if (handler == receiver->datagram_handlers_.end()) return;
        // Hold a reference, not a copy: the handler may rebind the port.
        const std::shared_ptr<const transport::DatagramHandler> fn =
            handler->second;
        // The flight span id travelled inside this closure — the
        // datagram's trace context. Receive-side spans begun by the
        // handler parent under it, stitching the two devices' trees.
        obs::Trace::Scope causal(trace_, span);
        (*fn)(src, BytesView{frame.data(), frame.size()});
      });
}

void Medium::start_inquiry(Adapter& from, transport::InquiryHandler done) {
  c_inquiries_->inc();
  // Capture the profile by pointer: it is immutable and owned by the
  // adapter, which shares the Medium's lifetime (same assumption `this`
  // already makes). A by-value TechProfile would push the closure past the
  // EventFn inline buffer and back onto the heap.
  const TechProfile* profile = &from.profile();
  const NodeId src = from.device();
  const obs::SpanId span =
      trace_.begin_span("net.inquiry", simulator_.now(), src, "inquiry");
  const obs::prof::TagScope inquiry_tag(obs::prof::Center::net_inquiry);
  simulator_.schedule(profile->inquiry_duration,
                      [this, src, profile, span, done = std::move(done)] {
                        trace_.end_span(span, simulator_.now());
                        obs::Trace::Scope causal(trace_, span);
                        Adapter* self = adapter(src, profile->tech);
                        if (self == nullptr || !self->powered()) {
                          done({});
                          return;
                        }
                        std::vector<NodeId> found;
                        for (NodeId peer : nodes_in_range(src, *profile)) {
                          if (rng_.chance(profile->inquiry_detect_prob)) {
                            found.push_back(peer);
                          }
                        }
                        done(std::move(found));
                      });
}

void Medium::open_link(Adapter& from, NodeId dst, Port port,
                       transport::ConnectHandler done) {
  // Pointer capture (see start_inquiry) keeps the closure inside EventFn's
  // inline buffer; LinkState still copies the profile when the link opens.
  const TechProfile* profile = &from.profile();
  const NodeId src = from.device();
  const obs::SpanId span =
      trace_.begin_span("net.link.open", simulator_.now(), src, "link");
  const obs::prof::TagScope link_tag(obs::prof::Center::net_link);
  simulator_.schedule(profile->connect_latency, [this, src, dst, port, profile,
                                                 span, done = std::move(done)] {
    trace_.end_span(span, simulator_.now());
    // Both the server-side accept and the client continuation run under
    // the link-open span: the server's handlers are causally downstream
    // of the remote connect even though they live on another device.
    obs::Trace::Scope causal(trace_, span);
    Adapter* self = adapter(src, profile->tech);
    if (self == nullptr || !self->powered()) {
      done(Error{Errc::connect_failed, "local adapter powered off"});
      return;
    }
    Adapter* peer = adapter(dst, profile->tech);
    if (peer == nullptr || !peer->powered() || !reachable(src, dst, *profile)) {
      done(Error{Errc::device_unreachable,
                 "node " + std::to_string(dst) + " not reachable over " +
                     profile->name});
      return;
    }
    auto listener = peer->listeners_.find(port);
    if (listener == peer->listeners_.end()) {
      done(Error{Errc::connect_failed,
                 "no listener on port " + std::to_string(port)});
      return;
    }
    // Radio capacity: a Bluetooth piconet carries at most 7 active links
    // per radio; either side being full refuses the connection.
    if (profile->max_links > 0 &&
        (open_link_count(src, profile->tech) >=
             static_cast<std::size_t>(profile->max_links) ||
         open_link_count(dst, profile->tech) >=
             static_cast<std::size_t>(profile->max_links))) {
      done(Error{Errc::radio_busy,
                 profile->name + " radio at link capacity (" +
                     std::to_string(profile->max_links) + ")"});
      return;
    }
    // One allocation per link: both sides' channel states live inside it
    // and are handed out as aliasing pointers.
    auto state =
        std::make_shared<detail::LinkState>(*this, *profile, src, dst, port);
    links_.push_back(state);
    const std::size_t ti = static_cast<std::size_t>(profile->tech);
    ++open_link_counts_[src][ti];
    ++open_link_counts_[dst][ti];
    c_links_opened_->inc();
    PH_LOG(trace, "net") << "link " << src << "->" << dst << " port " << port
                         << " open (" << profile->name << ")";
    // Accept first so the server side installs its handlers before any
    // client payload can arrive.
    transport_.channels_accepted->inc();
    listener->second(transport::Channel(
        std::shared_ptr<detail::LinkSide>(state, &state->end_b)));
    transport_.channels_opened->inc();
    done(transport::Channel(
        std::shared_ptr<detail::LinkSide>(state, &state->end_a)));
  });
}

void Medium::link_send(detail::LinkSide& from, BytesView payload) {
  detail::LinkState& state = from.link;
  const NodeId sender = from.self;
  c_link_messages_sent_->inc();
  c_link_bytes_sent_->inc(payload.size());
  transport_.channel_messages->inc();
  transport_.channel_bytes->inc(payload.size());
  const TechProfile& profile = state.profile;
  const TechCounters& tc = tech_counters_[static_cast<std::size_t>(profile.tech)];
  tc.link_bytes->inc(payload.size());
  tc.messages->inc();
  const obs::SpanId span =
      trace_.begin_span("net.link.send", simulator_.now(), sender, "link");
  sim::Time& busy = from.busy;
  const sim::Time depart = std::max(simulator_.now(), busy);
  const sim::Duration flight = transfer_time(profile, payload.size(), true);
  if (depart > simulator_.now()) {
    obs::Trace::Scope queued(trace_, span);
    const obs::SpanId q = trace_.begin_span("net.tx_queue", simulator_.now(),
                                            sender, "queue");
    trace_.end_span(q, depart);
  }
  busy = depart + flight - profile.base_latency;
  const NodeId receiver = state.peer_of(sender);
  std::weak_ptr<detail::LinkState> weak = state.weak_from_this();
  const obs::prof::TagScope delivery_tag(obs::prof::Center::net_delivery);
  simulator_.schedule_at(
      depart + flight,
      [this, weak, receiver, span,
       frame = frame_pool_.acquire(payload.data(), payload.size())] {
        trace_.end_span(span, simulator_.now());
        auto st = weak.lock();
        if (!st || !st->open) return;
        if (!reachable(st->a, st->b, st->profile)) {
          break_link(st);
          return;
        }
        // Invoke through a held reference: the handler may replace itself
        // (session handshakes install new handlers), which would otherwise
        // destroy the executing lambda.
        const std::shared_ptr<const detail::LinkSide::ReceiveHandler> rx =
            st->side(receiver).rx;
        if (!rx || !*rx) return;
        transport_.channel_bytes->inc(frame.size());
        // Cross-device causality: the receiver handles the frame under
        // the sender's flight span.
        obs::Trace::Scope causal(trace_, span);
        (*rx)(BytesView{frame.data(), frame.size()});
      });
}

void Medium::link_close(detail::LinkSide& closer) {
  detail::LinkState& state = closer.link;
  state.closing = true;
  // A closing link no longer occupies piconet capacity (open_link_count
  // always skipped `closing` links when it still scanned the world).
  unregister_link(state);
  const NodeId peer = state.peer_of(closer.self);
  // Flush: messages already queued (e.g. an application-level goodbye sent
  // just before close()) still reach the peer; the link dies one
  // propagation delay after the last of them departs.
  const sim::Time flushed =
      std::max({simulator_.now(), state.end_a.busy, state.end_b.busy});
  std::weak_ptr<detail::LinkState> weak = state.weak_from_this();
  const obs::prof::TagScope link_tag(obs::prof::Center::net_link);
  simulator_.schedule_at(
      flushed + state.profile.base_latency, [weak, peer] {
        auto st = weak.lock();
        if (!st || !st->open) return;
        st->open = false;
        st->medium.note_dead_link();
        st->medium.transport_.channels_broken->inc();
        // Take the handler out first: it may reset itself.
        auto brk = std::move(st->side(peer).brk);
        st->release_handlers();
        if (brk) brk();
      });
}

void Medium::break_link(const std::shared_ptr<detail::LinkState>& state) {
  if (!state->open) return;
  if (!state->closing) unregister_link(*state);  // else freed at close()
  state->open = false;
  note_dead_link();
  c_links_broken_->inc();
  transport_.channels_broken->inc(2);  // both sides observe the break
  PH_LOG(trace, "net") << "link " << state->a << "<->" << state->b
                       << " broke (" << state->profile.name << ")";
  auto brk_a = std::move(state->end_a.brk);
  auto brk_b = std::move(state->end_b.brk);
  state->release_handlers();
  if (brk_a) brk_a();
  if (brk_b) brk_b();
}

void Medium::unregister_link(const detail::LinkState& state) {
  const std::size_t ti = static_cast<std::size_t>(state.profile.tech);
  for (NodeId side : {state.a, state.b}) {
    if (side >= open_link_counts_.size()) continue;
    std::uint32_t& count = open_link_counts_[side][ti];
    if (count > 0) --count;
  }
}

void Medium::note_dead_link() {
  ++dead_links_;
  if (dead_links_ >= 32 && dead_links_ * 2 >= links_.size()) compact_links();
}

void Medium::compact_links() {
  std::erase_if(links_, [](const std::weak_ptr<detail::LinkState>& weak) {
    auto state = weak.lock();
    return !state || !state->open;
  });
  dead_links_ = 0;
  c_links_compacted_->inc();
}

void Medium::break_links_of(NodeId node, Technology tech) {
  // Collect first: break handlers may open new links and mutate links_.
  std::vector<std::shared_ptr<detail::LinkState>> affected;
  for (auto it = links_.begin(); it != links_.end();) {
    auto state = it->lock();
    if (!state || !state->open) {
      it = links_.erase(it);
      continue;
    }
    if ((state->a == node || state->b == node) && state->profile.tech == tech) {
      affected.push_back(std::move(state));
    }
    ++it;
  }
  for (auto& state : affected) break_link(state);
}

// --- one side of a link: the sim backend's transport channel -------------

namespace detail {

bool LinkSide::chan_open() const { return link.open && !link.closing; }

NodeId LinkSide::chan_remote() const { return link.peer_of(self); }

Technology LinkSide::chan_technology() const { return link.profile.tech; }

void LinkSide::chan_on_receive(ReceiveHandler handler) {
  rx = std::make_shared<const ReceiveHandler>(std::move(handler));
}

void LinkSide::chan_on_break(std::function<void()> handler) {
  brk = std::move(handler);
}

void LinkSide::chan_send(BytesView payload) {
  if (chan_open()) link.medium.link_send(*this, payload);
}

double LinkSide::chan_signal() const {
  if (!chan_open()) return 0.0;
  return link.medium.signal(link.a, link.b, link.profile);
}

void LinkSide::chan_close() {
  if (chan_open()) link.medium.link_close(*this);
}

}  // namespace detail

}  // namespace ph::net
