// ShardedKernel — the parallel discrete-event kernel.
//
// The single-threaded Simulator executes one global worklist; city-scale
// radio worlds (50k–100k devices) need the world partitioned across cores.
// A ShardedKernel owns S independent Simulators ("shards"), each with its
// own timer wheel (which also issues its event ids and sequence), and
// advances them in lockstep *windows* of `lookahead` virtual
// microseconds — the classic conservative-lookahead scheme
// (Chandy–Misra–Bryant with a global barrier): because every
// cross-shard interaction in the hosted workload carries at least
// `lookahead` of latency (the radio's base propagation delay), events
// executed inside a window can only affect *other* shards at or after
// the next window boundary, so shards never need to peek at each other
// mid-window.
//
// One window:
//
//   phase A (parallel)  every shard runs its own queue up to the window
//                       horizon; cross-shard sends buffer into per-
//                       (src,dst) mailboxes — single-writer, no locks
//   phase B (parallel)  every destination shard drains its S inboxes,
//                       sorts the union by (when, src shard, send seq)
//                       and schedules the entries locally
//   barrier (serial)    the registered hook runs — world maintenance
//                       (position snapshots, shard migration, metric
//                       publication) that needs a global view
//
// Determinism is the hard contract: thread count only changes *which OS
// thread* runs a shard's phase, never the order of events inside a shard
// (each shard is a sequential Simulator) nor the merge order at barriers
// (the (when, src, seq) sort is total and thread-independent). Same seed
// and same shard count ⇒ byte-identical metrics/series/trace dumps at
// --threads=1, 2 or 8 — the property ph_chaos_determinism cross-compares
// and the parallel lockstep test asserts wholesale. Shard count, by
// contrast, is part of the world definition (it fixes RNG stream
// ownership and merge keys), so vary threads freely but keep shards
// fixed when comparing runs.
//
// Worker pool: T-1 persistent threads plus the caller; shards are claimed
// from an atomic cursor, so a straggler shard never idles the rest of the
// pool (Katana-style work distribution, minus stealing — shard counts are
// small). With threads == 1 no threads are spawned and every phase runs
// inline on the caller, which is also the reference ordering the
// lockstep test compares against.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ph::sim {

struct ParallelConfig {
  /// Number of shards — the determinism domain. Fixed per world; two runs
  /// are comparable iff their shard counts match.
  unsigned shards = 8;
  /// Worker threads executing shard phases. Any value >= 1 produces
  /// byte-identical results; values above `shards` are clamped.
  unsigned threads = 1;
  /// Conservative-lookahead window in virtual time. Must be a lower bound
  /// on every cross-shard event latency the workload generates (the radio
  /// base latency, for the sharded world). post() clamps violations to
  /// the next window boundary and counts them.
  Duration lookahead = milliseconds(30);
  /// Mode 2 sampling profiler: worker threads register themselves with it
  /// on startup (as "worker-<n>") and unregister on shutdown, so folded
  /// profiles show per-worker window/merge/idle splits. Must outlive the
  /// kernel. Optional; wall-clock only — never part of determinism.
  obs::prof::WallProfiler* sampler = nullptr;
};

class ShardedKernel {
 public:
  /// Per-shard bookkeeping. `executed`, `cross_sent`, `cross_received`,
  /// `cross_clamped` and `cancelled_live` are deterministic (safe to dump
  /// and byte-compare); `stall_wall_us` is wall-clock barrier-wait time
  /// and must stay out of deterministic dumps.
  struct ShardStats {
    std::uint64_t executed = 0;
    std::uint64_t cross_sent = 0;
    std::uint64_t cross_received = 0;
    std::uint64_t cross_clamped = 0;
    std::uint64_t cancelled_live = 0;
    std::uint64_t stall_wall_us = 0;
  };

  explicit ShardedKernel(ParallelConfig config);
  ~ShardedKernel();
  ShardedKernel(const ShardedKernel&) = delete;
  ShardedKernel& operator=(const ShardedKernel&) = delete;

  unsigned shards() const noexcept { return config_.shards; }
  unsigned threads() const noexcept { return config_.threads; }
  Duration lookahead() const noexcept { return config_.lookahead; }

  /// Committed global time: every shard has executed all its events
  /// strictly before this. Advances at window barriers.
  Time window_start() const noexcept { return window_start_; }

  /// Shard-local Simulator. schedule/schedule_at/cancel on it are legal
  /// (a) before run_until, (b) from an event executing on that shard, and
  /// (c) from the barrier hook — never from another shard's events.
  Simulator& shard(unsigned s) { return *sims_[s]; }
  const Simulator& shard(unsigned s) const { return *sims_[s]; }

  /// Cross-shard delivery: schedules `fn` on `dst` at `when`. Legal only
  /// from an event executing on shard `src` during a window (the barrier
  /// hook schedules directly via shard() instead). `when` earlier than
  /// the next window boundary violates the conservative-lookahead
  /// contract; such posts are clamped to the boundary and counted in
  /// `cross_clamped` (deterministically — the clamp depends only on
  /// virtual times).
  void post(unsigned src, unsigned dst, Time when, EventFn fn);

  /// Advances every shard to `until` in lookahead windows. Events at
  /// exactly `until` execute, matching Simulator::run_until. Do NOT hold
  /// an obs::prof::TagScope across this call: the pending tag is thread-
  /// local, so it would reach only the shards the calling thread happens
  /// to run — a determinism leak. TagScopes *inside* events are fine
  /// (an event always executes on whichever thread runs its shard).
  void run_until(Time until);
  void run_for(Duration d) { run_until(window_start_ + d); }

  /// Runs `hook(window_start)` single-threaded after every window's merge
  /// phase. The hook may touch any shard's state (the pool is quiescent)
  /// and may call for_each_shard for parallel world maintenance.
  void set_barrier_hook(std::function<void(Time)> hook) {
    hook_ = std::move(hook);
  }

  /// Runs `fn(shard)` for every shard on the worker pool and waits. Legal
  /// from the barrier hook or outside run_until — not from events. The
  /// per-shard work must only touch state owned by (or partitioned to)
  /// that shard.
  void for_each_shard(const std::function<void(unsigned)>& fn) {
    run_parallel(fn, /*stamp_finish=*/false);
  }

  /// Attaches one obs::prof::EventProfiler per shard (Mode 1: per-center
  /// dispatch counts, deterministic; wall costing too when `wall`). Call
  /// before the first run_until. The profilers are kernel-owned; drain
  /// them single-threaded at barriers via shard_profiler().
  void enable_profiling(bool wall = false);
  /// Shard s's profiler, nullptr unless enable_profiling ran. Reading or
  /// publishing from it follows the shard() access rules.
  obs::prof::EventProfiler* shard_profiler(unsigned s) {
    return profilers_.empty() ? nullptr : profilers_[s].get();
  }

  ShardStats shard_stats(unsigned s) const;
  /// Windows completed (barrier count).
  std::uint64_t windows_run() const noexcept { return windows_; }
  /// Events executed, summed over shards.
  std::uint64_t events_executed() const;
  /// Cancelled-but-stored entries summed over shards — the per-shard-
  /// summed `sim.queue.cancelled_live` reading (a single global gauge
  /// would race under shards; each shard's queue keeps its own count and
  /// readers sum at barriers).
  std::size_t cancelled_live_total() const;

 private:
  struct MailItem {
    Time when = 0;
    std::uint64_t seq = 0;
    std::uint8_t tag = 0;  // cost center captured on the source shard
    EventFn fn;
  };
  struct MergeItem {
    Time when = 0;
    unsigned src = 0;
    std::uint64_t seq = 0;
    std::uint8_t tag = 0;
    EventFn fn;
  };
  /// Cross-pair counters a single shard owns exclusively during a phase;
  /// padded so two shards' hot counters never share a cache line.
  struct alignas(64) ShardLocal {
    std::uint64_t cross_sent = 0;
    std::uint64_t cross_received = 0;
    std::uint64_t cross_clamped = 0;
    std::uint64_t post_seq = 0;
    std::vector<MergeItem> merge_scratch;
    std::chrono::steady_clock::time_point finished{};
  };

  void run_parallel(const std::function<void(unsigned)>& fn,
                    bool stamp_finish);
  void claim_loop(const std::function<void(unsigned)>& fn, std::uint32_t gen,
                  bool stamp_finish);
  void worker_loop(unsigned index);
  void merge_into(unsigned dst, Time horizon);

  ParallelConfig config_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::unique_ptr<obs::prof::EventProfiler>> profilers_;
  std::vector<std::vector<MailItem>> mail_;  // [src * shards + dst]
  std::vector<ShardLocal> locals_;
  std::vector<std::uint64_t> stall_us_;
  Time window_start_ = 0;
  Time horizon_ = 0;  // current window's end; post() clamps against it
  std::uint64_t windows_ = 0;
  std::function<void(Time)> hook_;

  // Pool state. `generation_`/`pending_`/`job_` are guarded by mu_; shard
  // claiming runs lock-free off cursor_, which packs (generation << 32 |
  // next shard) into one atomic so a claim atomically proves the phase it
  // claims for is still current. A worker that wakes late for phase G
  // after the caller already finished G alone would otherwise hold a
  // dangling pointer to G's (stack-temporary) job and steal shards from
  // phase G+1's reset cursor — the CAS on the packed word makes such a
  // stale claim fail instead (ThreadSanitizer caught the unpacked
  // version).
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  bool job_stamps_finish_ = false;
  std::atomic<std::uint64_t> cursor_{0};
  unsigned pending_ = 0;
  std::uint32_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace ph::sim
