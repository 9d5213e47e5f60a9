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
// A slot holds its keys unordered; when the wheel reaches a slot, the
// whole slot is moved into a small (when, seq)-ordered "due" heap that
// establishes the exact global order. Everything strictly before
// `drained_before()` lives in that heap — the invariant that makes firing
// order identical to a single global heap, bit for bit (a reference
// binary heap in tests/sim/event_queue_property_test.cpp checks this in
// lockstep).
//
// Slots, the due heap and the overflow heap hold 24-byte QueueKeys, not
// events. Each key names a cell of a free-listed closure table the queue
// owns; the EventFn (112 bytes) stays in its cell from push() until the
// event fires, when pop_next() moves it out and frees the cell. Cascades
// and heap sifts therefore move keys only. The table grows in fixed
// chunks that never move, and no reference into it outlives a pop_next()
// call, so events may schedule freely from inside a dispatch.
//
// A slot is a chain of fixed blocks of kBlockKeys keys, recorded as {first
// block, last block, key count}. Appending fills the last block and takes
// a fresh one from the queue's block pool when it is full; draining,
// cascading or compacting a slot walks its chain in insertion order and
// hands each emptied block back to the pool, never to malloc (under ASan a
// pooled block's keys are poisoned until it is handed out again). The pool
// grows in fixed chunks that never move, like the cell table. So no key
// relocates once it is in a slot, and the blocks a queue retains follow
// the most keys it ever stored at once plus at most one partly filled
// block per occupied slot — not the sum of every slot's own worst burst.
// A crowd world, whose 256 devices all finish an inquiry round in the
// same millisecond, stores at most ~7,300 keys at once, while its slots'
// own peaks add up to ~500,000.
//
// Events are ordered by (when, seq), where seq is the queue's own
// insertion sequence, so equal timestamps fire FIFO — the determinism
// contract ph_chaos_determinism byte-compares.
//
// The queue is also the one record of which events are live. push()
// returns an EventId naming the event's cell and that cell's generation;
// a cell's stamp holds its generation plus a dead bit. Storing a closure
// bumps the generation, and cancel() or firing sets the dead bit, so a
// handle is pending exactly while its stamp matches, and a handle whose
// cell has since been reused matches nothing. Cancellation is lazy: a
// cancelled key is dropped, and its closure destroyed, when the wheel
// reaches it, or when keys are compacted once dead ones dominate,
// mirroring the Medium's dead-link policy (dead >= 32 && 2*dead >=
// stored).
//
// The constructor makes one slab allocation holding the first chunk of
// closure cells and the first chunk of key blocks (3,072 × 128 B + 64 ×
// 776 B ≈ 443 KB). It is one allocation on purpose, and it stays above
// glibc's 128 KB mmap threshold: freeing an mmapped block raises glibc's
// dynamic mmap and trim thresholds, so back-to-back short worlds (a
// Table-8 replication builds five) keep their heap pages between worlds.
// Without it every world teardown trims the heap and the next world
// faults the pages back in, which perfbench table8 pays for in system CPU
// (EXPERIMENTS.md "Timer wheel: keys, not events").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace ph::sim {

/// Identifies a scheduled event: its closure cell in the low bits, that
/// cell's generation above them. 0 is never a valid id.
using EventId = std::uint64_t;

/// One popped event, as pop_next() hands it to the dispatch loop. `seq`
/// is the insertion sequence number, so ordering by (when, seq) is FIFO
/// among equal timestamps. `tag` is the obs::prof cost-center byte
/// attached at schedule time; it rides along so the dispatch loop can
/// attribute the event without a lookup.
struct QueueEntry {
  Time when = 0;
  std::uint64_t seq = 0;
  std::uint8_t tag = 0;
  EventFn fn;
};

/// What the wheel's slots and heaps store for one event: its order, its
/// cost-center tag and the index of the cell holding its closure.
struct QueueKey {
  Time when = 0;
  std::uint64_t seq = 0;
  std::uint32_t cell = 0;
  std::uint8_t tag = 0;
};

/// max-heap comparator that puts the earliest (when, seq) on top of
/// std::push_heap's max-heap.
struct QueueLater {
  template <class E>
  bool operator()(const E& a, const E& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

/// Hierarchical timer wheel with an overflow heap for the far tail.
class TimerWheelQueue {
 public:
  /// Bits of an EventId that name the cell; the generation takes the rest.
  static constexpr unsigned kCellBits = 24;
  static_assert(64 - kCellBits >= 40,
                "a handle's generation must not wrap within a run");
  /// Keys a slot block holds.
  static constexpr std::uint32_t kBlockKeys = 32;
  /// Wheel slots (levels × slots per level).
  static constexpr std::size_t kSlotCount = 3 * 256;

  TimerWheelQueue();
  ~TimerWheelQueue();
  TimerWheelQueue(const TimerWheelQueue&) = delete;
  TimerWheelQueue& operator=(const TimerWheelQueue&) = delete;

  /// Stores an event, its closure in a free cell and its key in the
  /// wheel, as the next in sequence. Returns its handle.
  EventId push(Time when, EventFn fn, std::uint8_t tag = 0);

  /// Moves the earliest live entry with when <= until and seq <= last_seq
  /// into `out` and frees its cell; false when there is none. Dead
  /// (cancelled) entries reached on the way are discarded, their closures
  /// destroyed.
  bool pop_next(Time until, QueueEntry& out,
                std::uint64_t last_seq = ~std::uint64_t{0});

  /// Marks a pending event dead; false if it already fired or was
  /// cancelled, or never existed (EventId{} included). Once dead entries
  /// dominate (same thresholds as Medium::note_dead_link) the queue
  /// compacts them away so cancel-heavy churn cannot accumulate closures.
  bool cancel(EventId id);

  /// True while the event has neither fired nor been cancelled.
  bool pending(EventId id) const noexcept {
    const std::uint64_t index = id & kCellMask;
    return index < cells_made_ &&
           cell(static_cast<std::uint32_t>(index)).stamp ==
               (id >> kCellBits) << 1;
  }

  /// Sequence number of the latest push (0 before the first).
  std::uint64_t last_seq() const noexcept { return last_seq_; }

  /// A time no later than the earliest stored key (cancelled ones
  /// included); Time max when nothing is stored. Unlike pop_next it never
  /// advances the wheel, so a caller can size a wait with it.
  Time next_due_bound() const noexcept;

  /// Pending events (stored minus cancelled).
  std::size_t live() const noexcept { return stored_ - dead_; }
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
  /// Most keys stored at once since construction. Every stored key holds
  /// a closure cell until it leaves the queue, so this is the cell
  /// table's high water.
  std::size_t peak_stored() const noexcept { return cells_made_; }
  /// Keys the slot blocks handed out so far can hold: the wheel's retained
  /// key storage. A chunk's blocks not yet handed out are never touched.
  std::size_t block_key_capacity() const noexcept {
    return blocks_made_ * kBlockKeys;
  }

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

  static_assert(kLevels * kSlots == kSlotCount);
  static_assert((kBlockKeys & (kBlockKeys - 1)) == 0,
                "a slot's fill level within its last block is a mask");
  /// Closure cells per table chunk; the first chunk lives in the slab.
  static constexpr std::size_t kCellChunk = 3072;
  /// Key blocks per pool chunk; the first chunk lives in the slab.
  static constexpr std::size_t kBlockChunk = 64;
  static constexpr std::uint32_t kNoCell = ~std::uint32_t{0};
  static constexpr std::uint64_t kCellMask =
      (std::uint64_t{1} << kCellBits) - 1;
  /// Low bit of a cell's stamp; the generation sits above it.
  static constexpr std::uint64_t kDead = 1;

  /// One closure cell: the stored event's EventFn while its key is in the
  /// wheel, the next free cell's index while on the free list, and the
  /// stamp (generation << 1 | dead) that outlives both. Cells are only
  /// ever placed in raw chunk storage, never constructed whole.
  struct Cell {
    ~Cell() {}
    union {
      EventFn fn;
      std::uint32_t next_free;
    };
    std::uint64_t stamp;
  };

  /// A run of keys of one slot, in insertion order, and the next block of
  /// the slot's chain (or of the pool's free list). Blocks are placed in
  /// raw chunk storage when first handed out.
  struct Block {
    Block* next = nullptr;
    QueueKey keys[kBlockKeys];
  };

  /// One wheel slot: a chain of blocks, every one full but the last.
  /// Empty slots hold no blocks.
  struct Slot {
    Block* first = nullptr;
    Block* last = nullptr;
    std::uint32_t count = 0;
  };

  /// The one up-front allocation (see the file comment). Raw bytes: a
  /// cell or block begins its life when it is first used.
  struct Slab {
    alignas(Cell) std::byte cells[kCellChunk * sizeof(Cell)];
    alignas(Block) std::byte blocks[kBlockChunk * sizeof(Block)];
  };

  Slot& slot(unsigned level, unsigned index) noexcept {
    return slots_[level * kSlots + index];
  }
  Cell& cell(std::uint32_t index) noexcept {
    return cells_[index / kCellChunk][index % kCellChunk];
  }
  const Cell& cell(std::uint32_t index) const noexcept {
    return cells_[index / kCellChunk][index % kCellChunk];
  }

  /// Moves `fn` into a free cell (growing the table by a chunk when none
  /// is left), bumps the cell's generation and returns its index.
  std::uint32_t store(EventFn&& fn);
  /// Destroys the cell's closure, marks it dead and puts the cell on the
  /// free list.
  void release(std::uint32_t index) noexcept;
  /// Releases a cancelled key's cell and uncounts it; false (and nothing
  /// done) if the key is still live.
  bool discard_if_dead(const QueueKey& key) noexcept;

  /// A block from the pool's free list, else a fresh one (growing the
  /// pool by a chunk when none is left); its `next` is null.
  Block* take_block();
  /// Returns the chain first..last to the pool.
  void free_blocks(Block* first, Block* last) noexcept;
  /// Appends a key to a slot's last block.
  void append(Slot& bucket, const QueueKey& key);
  /// Empties a slot and clears its bit, then calls `fn` on each of its keys
  /// in insertion order, returning each block to the pool once walked.
  /// `fn` may append to other slots.
  template <class Fn>
  void drain_slot(unsigned level, unsigned index, Fn fn);
  /// Drops the slot's cancelled keys, keeping the rest in order, and
  /// returns the blocks left empty to the pool.
  void compact_slot(unsigned level, unsigned index) noexcept;

  /// Files a key into due/slot/overflow based on wheel_time_.
  void place(const QueueKey& key);
  void push_due(const QueueKey& key);
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

  std::uint64_t last_seq_ = 0;
  std::size_t dead_ = 0;
  Time wheel_time_ = 0;  // slot-boundary; see drained_before()
  std::size_t stored_ = 0;
  std::vector<QueueKey> due_;       // (when, seq) min-heap
  std::vector<QueueKey> overflow_;  // (when, seq) min-heap, far future
  /// Declared before the cell and block tables, which point into it, so
  /// it is freed after them.
  std::unique_ptr<Slab> slab_;
  std::array<Slot, kSlotCount> slots_{};
  /// Chunks of kCellChunk cells; cells_[0] is the slab's.
  std::vector<Cell*> cells_;
  std::uint32_t cells_made_ = 0;  // cells ever handed out (high-water)
  std::uint32_t free_cell_ = kNoCell;
  /// Chunks of kBlockChunk blocks; blocks_[0] is the slab's.
  std::vector<Block*> blocks_;
  std::size_t blocks_made_ = 0;  // blocks ever handed out (high-water)
  Block* free_block_ = nullptr;
  std::array<std::uint64_t, kLevels * kWordsPerLevel> occupied_{};
};

}  // namespace ph::sim
