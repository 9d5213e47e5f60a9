// Medium — the simulated radio world.
//
// Owns the node registry (position = mobility model sampled at virtual
// time), one Adapter per (device, technology), and the frame-delivery
// machinery: reachability, signal strength, bandwidth serialization,
// propagation latency, loss/retransmission and link breakage. The Medium
// is the simulated backend of ph::transport: its adapters are the
// endpoints, each side of a link is a channel and its scheduler is a view
// of the simulator, so the Medium counts the common `transport.*` family
// itself, inline where frames are sent, delivered and broken.
//
// This is the substitution for the thesis' physical testbed (ComLab room
// 6604, Bluetooth dongles, people carrying laptops): every quantity the
// paper's evaluation depends on — who is in range when, how long discovery
// and transfers take — is produced here from technology profiles instead of
// physics.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/adapter.hpp"
#include "net/fault.hpp"
#include "net/spatial.hpp"
#include "net/tech.hpp"
#include "net/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/mobility.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "transport/transport.hpp"
#include "util/arena.hpp"

namespace ph::net {

namespace detail {
class LinkSide;
struct LinkState;
}  // namespace detail

/// Tuning knobs for the world's proximity machinery. The defaults are the
/// fast path; the brute-force switches exist for A/B validation (the
/// spatial property test runs one world of each and asserts bit-identical
/// results) and for honest baseline numbers in the scale benches.
struct MediumConfig {
  /// Route direct-radio range queries through the uniform-grid index
  /// (O(k) candidates per query) instead of scanning every same-technology
  /// adapter (O(N)). Results are identical either way — the grid is a pure
  /// prune and the exact reachability predicate is always re-applied.
  bool use_spatial_index = true;
  /// Memoize MobilityModel::position_at per (node, virtual timestamp) so a
  /// signal() evaluation costs at most one mobility sample per endpoint
  /// instead of 2–4 virtual-dispatch samples per call.
  bool use_position_cache = true;
  /// Memoize signal() per (ordered pair, profile shape, virtual timestamp).
  /// Hot paths evaluate the same pair several times inside one timestamp —
  /// the delivery-time reachability recheck plus the receiver's signal
  /// sample — and the memo collapses those to one physics evaluation.
  /// Anything that can change signal mid-timestamp (adapter power, AP
  /// state, mobility swaps, fault-plane ramps) bumps an epoch clearing it.
  bool use_signal_cache = true;
  /// Grid cell edge in metres; 0 = auto (half the technology's largest
  /// adapter range, which bounds a query's bounding box to ~6 cells/axis).
  double spatial_cell_m = 0.0;
};

class Medium final : public transport::Transport {
 public:
  /// Per-technology byte accounting. The thesis' cost argument ("the cost
  /// of data service is low as Bluetooth and WLAN can be primely used",
  /// §5.1) needs to know how many bytes travelled over the metered
  /// cellular link vs the free short-range radios.
  struct TechTraffic {
    std::uint64_t datagram_bytes = 0;
    std::uint64_t link_bytes = 0;
    std::uint64_t messages = 0;

    std::uint64_t total_bytes() const { return datagram_bytes + link_bytes; }
  };

  Medium(sim::Simulator& simulator, sim::Rng rng, MediumConfig config = {});
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;
  ~Medium() override;

  // --- transport::Transport -----------------------------------------------
  const char* name() const override { return "sim"; }
  transport::Scheduler& scheduler() override { return scheduler_; }
  const transport::Scheduler& scheduler() const override {
    return scheduler_;
  }
  /// add_node, with a null mobility standing still at the origin.
  NodeId add_device(std::string name,
                    std::unique_ptr<sim::MobilityModel> mobility) override;
  transport::Endpoint& add_endpoint(NodeId node, TechProfile profile) override {
    return add_adapter(node, std::move(profile));
  }
  transport::Endpoint* endpoint(NodeId node, Technology tech) override {
    return adapter(node, tech);
  }

  // --- world ------------------------------------------------------------
  /// Adds a device to the world. Ids start at 1 and are dense.
  NodeId add_node(std::string name, std::unique_ptr<sim::MobilityModel> mobility);

  /// Replaces a node's mobility model (scenario phase changes).
  void set_mobility(NodeId node, std::unique_ptr<sim::MobilityModel> mobility);

  const std::string& node_name(NodeId node) const;
  sim::Vec2 position(NodeId node) const;  ///< sampled at current virtual time
  std::size_t node_count() const noexcept { return node_names_.size() - 1; }
  /// Node-id → name map in the shape obs::to_chrome_trace wants for
  /// naming per-device tracks.
  std::map<std::uint64_t, std::string> trace_device_names() const;

  // --- access points ------------------------------------------------------
  /// Installs a WLAN access point (infrastructure mode, thesis §2.4.2).
  /// Stations whose profile has `infrastructure` set are mutually
  /// reachable iff both are within `range_m` of a common active AP.
  NodeId add_access_point(std::string name, sim::Vec2 position,
                          double range_m);
  /// Powers an AP on/off (failure injection; a dead AP partitions its cell).
  void set_access_point_active(NodeId ap, bool active);

  // --- adapters ---------------------------------------------------------
  /// Creates the radio of `profile.tech` on `node`. At most one adapter per
  /// (node, technology); creating a second replaces profile-compatible
  /// lookup and is a programming error (asserts).
  Adapter& add_adapter(NodeId node, TechProfile profile);

  /// The node's adapter for a technology, or nullptr if it has none.
  Adapter* adapter(NodeId node, Technology tech);
  const Adapter* adapter(NodeId node, Technology tech) const;

  // --- physics ----------------------------------------------------------
  /// True when b can hear a's `profile` radio right now (both powered,
  /// within range or gateway-routed).
  bool reachable(NodeId a, NodeId b, const TechProfile& profile) const;

  /// Signal strength in [0,1]: 1 at zero distance, 0 at/beyond range.
  double signal(NodeId a, NodeId b, const TechProfile& profile) const;

  /// Powered same-technology peers currently in range of `node`.
  std::vector<NodeId> nodes_in_range(NodeId node, const TechProfile& profile) const;

  /// Open links currently carried by `node`'s `tech` radio (piconet load).
  /// O(log n) via per-node bookkeeping — no weak_ptr scan.
  std::size_t open_link_count(NodeId node, Technology tech) const;

  /// Link-state entries (open + not-yet-compacted dead) the world tracks.
  /// Exposed so tests can assert the registry does not grow without bound
  /// across long open/close churn.
  std::size_t tracked_link_count() const noexcept { return links_.size(); }

  const MediumConfig& config() const noexcept { return config_; }

  /// Typed view of the registry's `net.medium.*` instruments
  /// (`stats().counter("datagrams_sent")`, ...); the registry is the
  /// source of truth.
  obs::Snapshot stats() const { return registry_.snapshot("net.medium."); }
  /// Bytes/messages carried by one technology since construction
  /// (snapshot of the registry's `net.tech.<name>.*` counters).
  TechTraffic traffic(Technology tech) const;
  sim::Simulator& simulator() noexcept { return simulator_; }
  sim::Rng& rng() noexcept override { return rng_; }

  // --- fault plane ---------------------------------------------------------
  /// Installs (or, with nullptr, removes) the world's fault injector. The
  /// Medium consults it on every frame attempt, propagation-delay
  /// computation and signal sample; without one, behaviour — including RNG
  /// consumption — is identical to a fault-free world. The injector must
  /// outlive the Medium or be removed first.
  void set_fault_injector(FaultInjector* injector) noexcept {
    fault_ = injector;
    invalidate_signal_memo();
  }
  FaultInjector* fault_injector() const noexcept { return fault_; }

  /// Drops the per-timestamp signal memo. Every mutation that can change
  /// signal strength *within* the current virtual timestamp must call this
  /// — adapter power flips, AP activation, mobility swaps, a fault plane
  /// whose signal_factor state changed (e.g. a ramp beginning). Cheap: it
  /// bumps an epoch and the memo clears lazily on next lookup.
  void invalidate_signal_memo() noexcept { ++world_epoch_; }

  /// The world's metrics registry. The Medium is the transport every
  /// layer reaches (daemon → transport, stack → transport), so it owns the
  /// per-world registry and trace journal that all layers publish into.
  obs::Registry& registry() noexcept override { return registry_; }
  const obs::Registry& registry() const noexcept { return registry_; }
  /// The world's virtual-time trace journal (disabled by default; call
  /// trace().set_enabled(true) before the scenario starts to record).
  obs::Trace& trace() noexcept override { return trace_; }
  const obs::Trace& trace() const noexcept { return trace_; }

 private:
  friend class Adapter;
  friend class detail::LinkSide;

  /// The simulator seen through the transport clock interface.
  class SimScheduler final : public transport::Scheduler {
   public:
    explicit SimScheduler(sim::Simulator& simulator) : simulator_(simulator) {}

    sim::Time now() const override { return simulator_.now(); }
    sim::EventId schedule(sim::Duration delay, sim::EventFn fn) override {
      return simulator_.schedule(delay, std::move(fn));
    }
    bool cancel(sim::EventId id) override { return simulator_.cancel(id); }
    bool pending(sim::EventId id) const override {
      return simulator_.pending(id);
    }
    void run_until(sim::Time until) override { simulator_.run_until(until); }

   private:
    sim::Simulator& simulator_;
  };

  /// Time to push `bytes` through the radio plus propagation, including
  /// randomized retransmission delays for reliable (link) traffic.
  sim::Duration transfer_time(const TechProfile& profile, std::size_t bytes,
                              bool reliable);

  /// One frame attempt's loss probability: the profile's steady-state
  /// `frame_loss`, raised by the installed fault injector (burst windows).
  double frame_loss(const TechProfile& profile);

  /// Applies the fault injector's signal factor to a physical signal.
  double attenuated(double physical, NodeId a, NodeId b) const;

  /// The uncached signal computation (geometry + fault attenuation);
  /// signal() is the memoizing wrapper around it.
  double signal_physics(NodeId a, NodeId b, const TechProfile& profile) const;

  // Internal helpers used by Adapter/LinkSide (implemented in medium.cpp).
  void deliver_datagram(Adapter& from, NodeId dst, Port port,
                        BytesView payload);
  void start_inquiry(Adapter& from, transport::InquiryHandler done);
  void open_link(Adapter& from, NodeId dst, Port port,
                 transport::ConnectHandler done);
  void link_send(detail::LinkSide& sender, BytesView payload);
  void link_close(detail::LinkSide& closer);
  void break_link(const std::shared_ptr<detail::LinkState>& state);
  void break_links_of(NodeId node, Technology tech);

  /// Balances the per-node open-link counts the moment `state` stops
  /// occupying radio capacity: close *initiation* (the old scan skipped
  /// `closing` links too) or break, whichever happens first.
  void unregister_link(const detail::LinkState& state);
  /// Records that a links_ entry went dead and compacts the vector once
  /// dead entries dominate — long soaks must not scan ever-growing state.
  void note_dead_link();
  void compact_links();

  /// Rebuilds `tech`'s grid if the world moved (new virtual timestamp) or
  /// its topology changed (adapter added, mobility swapped) since the last
  /// build. Positions are sampled through the position cache.
  void ensure_spatial(Technology tech) const;

  struct AccessPoint {
    NodeId node = kInvalidNode;
    double range_m = 0.0;
    bool active = true;
  };

  /// Registry handles for one technology's byte accounting
  /// (`net.tech.<name>.*`).
  struct TechCounters {
    obs::Counter* datagram_bytes = nullptr;
    obs::Counter* link_bytes = nullptr;
    obs::Counter* messages = nullptr;
  };

  /// Everything the proximity queries need about one technology, in
  /// structure-of-arrays form: parallel vectors sorted by node id
  /// (mirroring the old brute-force full-map scan order — order is what
  /// keeps RNG consumption identical), so the range-query hot loop walks
  /// two flat arrays (ids, powered bytes) instead of chasing adapter
  /// pointers. Power state is deliberately NOT an invalidation trigger —
  /// it is filtered at query time, exactly like the brute-force path.
  struct TechAdapters {
    std::vector<Adapter*> list;          // sorted by node id; never die
    std::vector<NodeId> ids;             // list[i]->device()
    std::vector<std::uint8_t> powered;   // list[i]->powered() mirror
    double max_range_m = 0.0;   // over non-gateway profiles; sizes cells
    SpatialGrid grid;
    /// Rebuild scratch, reused so a per-timestamp grid rebuild does not
    /// allocate.
    std::vector<sim::Vec2> positions;
    sim::Time built_at = 0;
    bool built = false;
    bool dirty = true;
  };

  /// Signal-memo key: the unordered endpoint pair (signal() is exactly
  /// symmetric, see the normalization comment in medium.cpp) plus every
  /// profile field the computation reads (range, tech, routing flags).
  /// Exact equality on all fields — hash collisions cannot alias two
  /// different evaluations.
  struct SignalKey {
    std::uint64_t pair = 0;        // (min << 32) | max
    std::uint64_t range_bits = 0;  // bit pattern of profile.range_m
    std::uint32_t flags = 0;       // tech + via_gateway + infrastructure
    bool operator==(const SignalKey&) const = default;
  };
  /// The per-instant signal memo: a flat open-addressing table whose
  /// slots carry the stamp of the instant that filled them, so clear() is
  /// one stamp bump and a lookup allocates nothing. It never evicts, so a
  /// hit means exactly "this key was evaluated earlier in this instant".
  /// The slot array is sized on first insert and doubles at half load.
  class SignalMemo {
   public:
    void clear() noexcept {
      ++stamp_;
      size_ = 0;
    }
    /// The memoized value, or nullptr if `key` is not in this instant.
    const double* find(const SignalKey& key) const noexcept;
    /// Records `key`, which find() just missed.
    void insert(const SignalKey& key, double value);

   private:
    struct Slot {
      SignalKey key;
      double value = 0.0;
      std::uint64_t stamp = 0;  // 0 = never filled
    };
    static std::size_t hash(const SignalKey& k) noexcept;
    void grow();

    std::vector<Slot> slots_;  // power-of-two size
    std::uint64_t stamp_ = 1;
    std::size_t size_ = 0;
  };

  /// A cached position is valid only while its timestamp equals the
  /// current virtual time; this sentinel marks "never sampled".
  static constexpr sim::Time kPosNever = ~sim::Time{0};

  /// Updates the per-technology powered mirror (Adapter::set_powered).
  void note_adapter_power(const Adapter& adapter, bool on) noexcept;

  sim::Simulator& simulator_;
  SimScheduler scheduler_{simulator_};
  sim::Rng rng_;
  MediumConfig config_;
  obs::Registry registry_;
  obs::Trace trace_;
  // Node state in structure-of-arrays form, indexed by NodeId (ids are
  // dense from 1; slot 0 is an unused placeholder). Grid rebuilds and the
  // signal memo walk flat arrays instead of chasing per-node map nodes.
  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<sim::MobilityModel>> node_mobility_;
  /// adapter_lut_[node][tech]: O(1) adapter lookup on the signal hot path
  /// (the old per-call std::map::find dominated signal_physics).
  std::vector<std::array<Adapter*, 3>> adapter_lut_;
  std::vector<std::unique_ptr<Adapter>> adapter_own_;
  std::vector<AccessPoint> access_points_;
  // Query-path acceleration state; logically const (pure caches over the
  // node/adapter state), hence mutable for the const query methods.
  mutable std::array<TechAdapters, 3> tech_adapters_{};  // by Technology
  // Position memo as parallel arrays indexed by NodeId: timestamp of the
  // sample (kPosNever = invalid) and the sampled position.
  mutable std::vector<sim::Time> pos_cache_at_;
  mutable std::vector<sim::Vec2> pos_cache_;
  mutable std::vector<std::uint32_t> spatial_scratch_;
  // Per-timestamp signal memo: valid while (timestamp, epoch) both match.
  mutable SignalMemo signal_memo_;
  mutable sim::Time signal_memo_at_ = 0;
  mutable std::uint64_t signal_memo_epoch_ = 0;
  std::uint64_t world_epoch_ = 1;
  std::vector<std::weak_ptr<detail::LinkState>> links_;
  /// open_link_counts_[node][tech] — flat, replacing the old map lookup.
  std::vector<std::array<std::uint32_t, 3>> open_link_counts_;
  std::size_t dead_links_ = 0;  // links_ entries closed since last compact
  /// Recycles frame payload buffers for datagram/link deliveries: the
  /// payload rides in a PooledBuffer inside the delivery closure and its
  /// storage returns to the pool when the event is destroyed.
  util::BufferPool frame_pool_;
  // Registry handles (`net.medium.*`); stable for the registry's lifetime.
  obs::Counter* c_datagrams_sent_ = nullptr;
  obs::Counter* c_datagrams_lost_ = nullptr;
  obs::Counter* c_link_messages_sent_ = nullptr;
  obs::Counter* c_link_bytes_sent_ = nullptr;
  obs::Counter* c_retransmissions_ = nullptr;
  obs::Counter* c_links_opened_ = nullptr;
  obs::Counter* c_links_broken_ = nullptr;
  obs::Counter* c_inquiries_ = nullptr;
  obs::Counter* c_links_compacted_ = nullptr;
  obs::Counter* c_signal_evals_ = nullptr;
  // `net.medium.spatial.*` / `net.medium.position_cache.*` — the
  // instruments the perf acceptance criteria read.
  obs::Counter* c_spatial_queries_ = nullptr;
  obs::Counter* c_spatial_rebuilds_ = nullptr;
  obs::Counter* c_spatial_cells_visited_ = nullptr;
  obs::Counter* c_spatial_candidates_ = nullptr;
  obs::Counter* c_spatial_pairs_pruned_ = nullptr;
  obs::Counter* c_position_hits_ = nullptr;
  obs::Counter* c_position_misses_ = nullptr;
  obs::Counter* c_signal_memo_hits_ = nullptr;
  obs::Histogram* h_transfer_us_ = nullptr;
  std::array<TechCounters, 3> tech_counters_{};  // indexed by Technology
  /// The common `transport.*` family, counted for every adapter and link.
  transport::TransportMetrics transport_;
  NodeId next_node_ = 1;
  FaultInjector* fault_ = nullptr;
};

}  // namespace ph::net
