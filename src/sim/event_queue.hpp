// The event queue of the simulation kernel.
//
// The kernel's load is dominated by short-horizon periodic work — pings,
// inquiry scans, neighbour-table refreshes, frame deliveries milliseconds
// out — plus a thin tail of far-future timers (entry TTLs, watchdogs). A
// hierarchical timer wheel fits that shape: scheduling is O(1) bucket
// insertion instead of an O(log n) heap sift, and the far tail parks in
// coarser levels (or an overflow heap) without being re-sorted on every
// nearby event.
//
// TimerWheelQueue has 3 levels × 256 slots over a 1.024 ms base tick
// (level spans: 0.26 s / 67 s / 4.77 h) and an overflow min-heap beyond.
// A slot holds its entries unordered; when the wheel reaches a slot, the
// whole slot is moved into a small (when, id)-ordered "due" heap that
// establishes the exact global order. Everything strictly before
// `drained_before()` lives in that heap — the invariant that makes firing
// order identical to a single global heap, bit for bit (a reference
// binary heap in tests/sim/event_queue_property_test.cpp checks this in
// lockstep).
//
// Events are ordered by (when, id) where id is the insertion sequence, so
// equal timestamps fire FIFO — the determinism contract ph_chaos_
// determinism byte-compares. Cancellation is lazy (the Simulator's live
// set is the source of truth); dead entries are dropped when reached and
// compacted away once they dominate, mirroring the Medium's dead-link
// policy (dead >= 32 && 2*dead >= stored).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace ph::sim {

/// Identifies a scheduled event; 0 is never a valid id.
using EventId = std::uint64_t;

/// Open-addressing hash set of live event ids. std::unordered_set
/// allocates a node per insert, which would defeat the zero-allocation
/// schedule() path; this probes a flat power-of-two array and erases with
/// backward shifting (no tombstones, no rehash-on-erase), so at steady
/// state membership churn touches no allocator.
class FlatIdSet {
 public:
  FlatIdSet() : slots_(kInitialSlots, 0) {}

  bool insert(EventId id);
  bool erase(EventId id);
  bool contains(EventId id) const noexcept;
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static constexpr std::size_t kInitialSlots = 1024;  // power of two

  static std::size_t mix(EventId id) noexcept {
    return static_cast<std::size_t>(id * 0x9E3779B97F4A7C15ull);
  }
  std::size_t mask() const noexcept { return slots_.size() - 1; }
  void grow();

  std::vector<EventId> slots_;  // 0 = empty
  std::size_t size_ = 0;
};

/// One stored event. `id` doubles as the insertion sequence number, so
/// ordering by (when, id) is FIFO among equal timestamps. `tag` is the
/// obs::prof cost-center byte attached at schedule time; it rides along
/// so the dispatch loop can attribute the event without a lookup.
struct QueueEntry {
  Time when = 0;
  EventId id = 0;
  std::uint8_t tag = 0;
  EventFn fn;
};

/// max-heap comparator that puts the earliest (when, id) on top of
/// std::push_heap's max-heap.
struct QueueLater {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.id > b.id;
  }
};

/// Hierarchical timer wheel with an overflow heap for the far tail.
class TimerWheelQueue {
 public:
  /// `live` is the Simulator's id set — the authority on which stored
  /// entries are still scheduled. It must outlive the queue.
  explicit TimerWheelQueue(const FlatIdSet& live);
  TimerWheelQueue(const TimerWheelQueue&) = delete;
  TimerWheelQueue& operator=(const TimerWheelQueue&) = delete;

  /// Stores an entry.
  void push(Time when, EventId id, EventFn fn, std::uint8_t tag = 0);

  /// Moves the earliest live entry with when <= until into `out`; false
  /// when there is none. Dead (cancelled) entries reached on the way are
  /// discarded.
  bool pop_next(Time until, QueueEntry& out);

  /// Called by the Simulator after a successful cancel. Once dead entries
  /// dominate (same thresholds as Medium::note_dead_link) the queue
  /// compacts them away so cancel-heavy churn cannot accumulate closures.
  void note_cancelled() {
    ++dead_;
    if (dead_ >= 32 && dead_ * 2 >= stored_) compact();
  }

  /// Entries held (live + not-yet-collected dead).
  std::size_t stored() const noexcept { return stored_; }
  /// Cancelled entries still occupying queue storage — the
  /// `sim.queue.cancelled_live` gauge.
  std::size_t dead() const noexcept { return dead_; }

  /// Everything strictly before this time has been moved to the due heap;
  /// the wheel proper only holds entries at or after it. Exposed for the
  /// unit tests' invariant checks.
  Time drained_before() const noexcept { return wheel_time_; }
  /// Entries parked beyond the wheel's ~4.77 h horizon.
  std::size_t overflow_size() const noexcept { return overflow_.size(); }

 private:
  // Base tick 2^10 us = 1.024 ms; each level fans out 256× — level spans
  // 2^18 us (0.26 s), 2^26 us (67 s), 2^34 us (4.77 h).
  static constexpr unsigned kTickShift = 10;
  static constexpr unsigned kSlotBits = 8;
  static constexpr unsigned kSlots = 1u << kSlotBits;
  static constexpr unsigned kLevels = 3;
  static constexpr unsigned kWordsPerLevel = kSlots / 64;

  static constexpr unsigned level_shift(unsigned level) noexcept {
    return kTickShift + kSlotBits * level;
  }
  /// Shift that identifies a level's page: entries live at `level` iff
  /// their page bits (everything above the slot index) match the wheel's.
  static constexpr unsigned page_shift(unsigned level) noexcept {
    return kTickShift + kSlotBits * (level + 1);
  }

  /// Entries every slot has room for from construction on.
  static constexpr std::size_t kSlotChunk = 4;
  static constexpr std::size_t kSlabEntries = kLevels * kSlots * kSlotChunk;

  /// Allocator of one slot's vector. Each slot owns a fixed chunk of one
  /// slab the queue allocates up front; the slot's first buffer (at most
  /// kSlotChunk entries) is that chunk, and only growth past it reaches
  /// the heap. The chunk is handed out once: after that every request,
  /// from this allocator or from a copy taken since, goes to the heap, so a
  /// shrink, swap or copy of a slot can never make two buffers share it.
  /// Every copy, rebound ones included, remembers the chunk so it never
  /// frees it and compares equal to the original.
  template <class T>
  class SlotAllocator {
   public:
    using value_type = T;
    // The buffer travels with its allocator, so a moved or swapped slot
    // still releases its chunk through an allocator that recognises it.
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;

    explicit SlotAllocator(T* chunk) noexcept
        : chunk_(chunk), unused_(chunk) {}
    /// Rebinding has no chunk of the new type to hand out.
    template <class U>
    explicit SlotAllocator(const SlotAllocator<U>& other) noexcept
        : chunk_(other.chunk_) {}

    T* allocate(std::size_t n) {
      if (unused_ != nullptr && n <= kSlotChunk) {
        return std::exchange(unused_, nullptr);
      }
      return std::allocator<T>{}.allocate(n);
    }
    void deallocate(T* p, std::size_t n) noexcept {
      if (p != chunk_) std::allocator<T>{}.deallocate(p, n);
    }

    friend bool operator==(const SlotAllocator& a,
                           const SlotAllocator& b) noexcept {
      return a.chunk_ == b.chunk_;
    }

   private:
    template <class U>
    friend class SlotAllocator;

    const void* chunk_ = nullptr;  // this slot's chunk, handed out or not
    T* unused_ = nullptr;          // the chunk while not yet handed out
  };

  using Slot = std::vector<QueueEntry, SlotAllocator<QueueEntry>>;

  struct SlabDeleter {
    void operator()(QueueEntry* slab) const noexcept {
      std::allocator<QueueEntry>{}.deallocate(slab, kSlabEntries);
    }
  };

  Slot& slot(unsigned level, unsigned index) noexcept {
    return slots_[level * kSlots + index];
  }

  /// Files an entry into due/slot/overflow based on wheel_time_.
  void place(QueueEntry&& entry);
  void push_due(QueueEntry&& entry);
  /// First occupied slot index >= from at `level`, or -1.
  int next_occupied(unsigned level, unsigned from) const noexcept;
  void set_bit(unsigned level, unsigned index) noexcept;
  void clear_bit(unsigned level, unsigned index) noexcept;
  /// Advances the wheel to the next occupied window whose start is
  /// <= until, moving/cascading its entries. False if none qualifies.
  bool advance(Time until);
  /// Re-files one slot's entries against the current wheel_time_.
  void cascade(unsigned level, unsigned index);
  /// Called whenever wheel_time_ lands on a level-1 window boundary:
  /// cascades every higher-level slot whose window the wheel is entering,
  /// top level first. Keeping this invariant — a window is cascaded the
  /// moment the wheel enters it — is what stops a busy level 0 from
  /// starving entries parked one level up (they would otherwise fire
  /// after later-scheduled same-window events).
  void enter_windows();
  /// Pulls overflow entries whose page entered the wheel's range.
  void drain_overflow();
  void compact();

  const FlatIdSet& live_;
  std::size_t dead_ = 0;
  Time wheel_time_ = 0;  // slot-boundary; see drained_before()
  std::size_t stored_ = 0;
  std::vector<QueueEntry> due_;       // (when, id) min-heap
  std::vector<QueueEntry> overflow_;  // (when, id) min-heap, far future
  /// Uninitialised storage for every slot's first kSlotChunk entries;
  /// declared before slots_, whose entries live in it, so it is freed
  /// after them.
  std::unique_ptr<QueueEntry, SlabDeleter> slab_;
  std::vector<Slot> slots_;  // kLevels × kSlots
  std::array<std::uint64_t, kLevels * kWordsPerLevel> occupied_{};
};

}  // namespace ph::sim
