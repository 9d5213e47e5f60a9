#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <new>

#include "util/arena.hpp"
#include "util/check.hpp"

namespace ph::sim {

// --- TimerWheelQueue --------------------------------------------------------

TimerWheelQueue::TimerWheelQueue() : slab_(new Slab) {
  // One slab, not a chunk per table, so building a Simulator costs a
  // handful of allocations: short runs that build many worlds (a Table-8
  // replication builds five) never outgrow it.
  cells_.push_back(reinterpret_cast<Cell*>(slab_->cells));
  blocks_.push_back(reinterpret_cast<Block*>(slab_->blocks));
  due_.reserve(64);
  overflow_.reserve(64);
}

TimerWheelQueue::~TimerWheelQueue() {
  // Closures still stored die in the order their keys are held: slot by
  // slot, then the overflow heap, then the due heap.
  for (const Slot& bucket : slots_) {
    const Block* block = bucket.first;
    for (std::uint32_t left = bucket.count; left > 0;) {
      const std::uint32_t n = std::min(left, kBlockKeys);
      for (std::uint32_t i = 0; i < n; ++i) {
        cell(block->keys[i].cell).fn.~EventFn();
      }
      left -= n;
      block = block->next;
    }
  }
  for (const QueueKey& key : overflow_) cell(key.cell).fn.~EventFn();
  for (const QueueKey& key : due_) cell(key.cell).fn.~EventFn();
  for (std::size_t i = 1; i < cells_.size(); ++i) {
    std::allocator<Cell>{}.deallocate(cells_[i], kCellChunk);
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    // Pooled blocks are poisoned; the allocator gets its memory back clean.
    PH_ASAN_UNPOISON(blocks_[i], kBlockChunk * sizeof(Block));
    if (i > 0) std::allocator<Block>{}.deallocate(blocks_[i], kBlockChunk);
  }
}

std::uint32_t TimerWheelQueue::store(EventFn&& fn) {
  std::uint32_t index = free_cell_;
  if (index != kNoCell) {
    free_cell_ = cell(index).next_free;
  } else {
    PH_CHECK_MSG(cells_made_ <= kCellMask,
                 "TimerWheelQueue: pending events exceed the EventId cell "
                 "field");
    if (cells_made_ == cells_.size() * kCellChunk) {
      cells_.push_back(std::allocator<Cell>{}.allocate(kCellChunk));
    }
    index = cells_made_++;
    cell(index).stamp = 0;
  }
  Cell& c = cell(index);
  ::new (static_cast<void*>(&c.fn)) EventFn(std::move(fn));
  // The next generation, live: (generation + 1) << 1 whether or not the
  // dead bit was set. A fresh cell starts at generation 1, so no handle
  // is 0.
  c.stamp = (c.stamp | kDead) + 1;
  return index;
}

void TimerWheelQueue::release(std::uint32_t index) noexcept {
  Cell& c = cell(index);
  c.fn.~EventFn();
  c.next_free = free_cell_;
  c.stamp |= kDead;
  free_cell_ = index;
}

bool TimerWheelQueue::discard_if_dead(const QueueKey& key) noexcept {
  if ((cell(key.cell).stamp & kDead) == 0) return false;
  release(key.cell);
  --stored_;
  --dead_;
  return true;
}

TimerWheelQueue::Block* TimerWheelQueue::take_block() {
  if (Block* const block = free_block_) {
    free_block_ = block->next;
    block->next = nullptr;
    PH_ASAN_UNPOISON(block->keys, sizeof(block->keys));
    return block;
  }
  if (blocks_made_ == blocks_.size() * kBlockChunk) {
    blocks_.push_back(std::allocator<Block>{}.allocate(kBlockChunk));
  }
  Block* const raw = blocks_[blocks_made_ / kBlockChunk] +
                     blocks_made_ % kBlockChunk;
  ++blocks_made_;
  return ::new (static_cast<void*>(raw)) Block;
}

void TimerWheelQueue::free_blocks(Block* first, Block* last) noexcept {
#if defined(PH_HAS_ASAN)
  // Idle keys are poisoned, so a walk that strays past a slot's chain into
  // a pooled block aborts under ASan instead of reading stale keys.
  for (Block* block = first;; block = block->next) {
    PH_ASAN_POISON(block->keys, sizeof(block->keys));
    if (block == last) break;
  }
#endif
  last->next = free_block_;
  free_block_ = first;
}

void TimerWheelQueue::append(Slot& bucket, const QueueKey& key) {
  const std::uint32_t at = bucket.count & (kBlockKeys - 1);
  if (at == 0) {
    Block* const block = take_block();
    if (bucket.count == 0) {
      bucket.first = block;
    } else {
      bucket.last->next = block;
    }
    bucket.last = block;
  }
  bucket.last->keys[at] = key;
  ++bucket.count;
}

template <class Fn>
void TimerWheelQueue::drain_slot(unsigned level, unsigned index, Fn fn) {
  Slot& bucket = slot(level, index);
  Block* block = bucket.first;
  std::uint32_t left = bucket.count;
  bucket = Slot{};
  clear_bit(level, index);
  while (left > 0) {
    const std::uint32_t n = std::min(left, kBlockKeys);
    for (std::uint32_t i = 0; i < n; ++i) fn(block->keys[i]);
    left -= n;
    Block* const next = block->next;
    free_blocks(block, block);
    block = next;
  }
}

void TimerWheelQueue::compact_slot(unsigned level, unsigned index) noexcept {
  Slot& bucket = slot(level, index);
  // Survivors slide forward over the chain: the write position never
  // passes the read position, so no key is read after being overwritten.
  const Block* read = bucket.first;
  Block* write = bucket.first;
  std::uint32_t written = 0;  // keys in the write block
  std::uint32_t kept = 0;
  for (std::uint32_t left = bucket.count; left > 0;) {
    const std::uint32_t n = std::min(left, kBlockKeys);
    for (std::uint32_t i = 0; i < n; ++i) {
      const QueueKey& key = read->keys[i];
      if (discard_if_dead(key)) continue;
      if (written == kBlockKeys) {
        write = write->next;
        written = 0;
      }
      write->keys[written++] = key;
      ++kept;
    }
    left -= n;
    read = read->next;
  }
  if (kept == 0) {
    free_blocks(bucket.first, bucket.last);
    bucket = Slot{};
    clear_bit(level, index);
    return;
  }
  if (write != bucket.last) {
    free_blocks(write->next, bucket.last);
    write->next = nullptr;
    bucket.last = write;
  }
  bucket.count = kept;
}

void TimerWheelQueue::set_bit(unsigned level, unsigned index) noexcept {
  occupied_[level * kWordsPerLevel + index / 64] |= 1ull << (index % 64);
}

void TimerWheelQueue::clear_bit(unsigned level, unsigned index) noexcept {
  occupied_[level * kWordsPerLevel + index / 64] &= ~(1ull << (index % 64));
}

int TimerWheelQueue::next_occupied(unsigned level,
                                   unsigned from) const noexcept {
  const std::uint64_t* words = &occupied_[level * kWordsPerLevel];
  unsigned word = from / 64;
  std::uint64_t bits = words[word] & (~0ull << (from % 64));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(word * 64 +
                              static_cast<unsigned>(std::countr_zero(bits)));
    }
    if (++word == kWordsPerLevel) return -1;
    bits = words[word];
  }
}

void TimerWheelQueue::push_due(const QueueKey& key) {
  due_.push_back(key);
  std::push_heap(due_.begin(), due_.end(), QueueLater{});
}

void TimerWheelQueue::place(const QueueKey& key) {
  if (key.when < wheel_time_) {
    // Its window was already drained; the due heap establishes its order
    // against the keys drained with it.
    push_due(key);
    return;
  }
  for (unsigned level = 0; level < kLevels; ++level) {
    if ((key.when >> page_shift(level)) == (wheel_time_ >> page_shift(level))) {
      const unsigned index =
          static_cast<unsigned>(key.when >> level_shift(level)) &
          (kSlots - 1);
      append(slot(level, index), key);
      set_bit(level, index);
      return;
    }
  }
  overflow_.push_back(key);
  std::push_heap(overflow_.begin(), overflow_.end(), QueueLater{});
}

EventId TimerWheelQueue::push(Time when, EventFn fn, std::uint8_t tag) {
  const std::uint32_t index = store(std::move(fn));
  place(QueueKey{when, ++last_seq_, index, tag});
  ++stored_;
  return ((cell(index).stamp >> 1) << kCellBits) | index;
}

bool TimerWheelQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  cell(static_cast<std::uint32_t>(id & kCellMask)).stamp |= kDead;
  ++dead_;
  if (dead_ >= 32 && dead_ * 2 >= stored_) compact();
  return true;
}

void TimerWheelQueue::drain_overflow() {
  const unsigned top_shift = page_shift(kLevels - 1);
  while (!overflow_.empty() &&
         (overflow_.front().when >> top_shift) == (wheel_time_ >> top_shift)) {
    std::pop_heap(overflow_.begin(), overflow_.end(), QueueLater{});
    const QueueKey key = overflow_.back();
    overflow_.pop_back();
    if (!discard_if_dead(key)) place(key);
  }
}

void TimerWheelQueue::cascade(unsigned level, unsigned index) {
  // place() only appends to levels below this one (the keys now share the
  // lower page with wheel_time_).
  drain_slot(level, index, [this](const QueueKey& key) {
    if (!discard_if_dead(key)) place(key);
  });
}

void TimerWheelQueue::enter_windows() {
  if ((wheel_time_ & ((Time{1} << page_shift(kLevels - 1)) - 1)) == 0) {
    drain_overflow();
  }
  for (unsigned level = kLevels - 1; level >= 1; --level) {
    if ((wheel_time_ & ((Time{1} << level_shift(level)) - 1)) != 0) continue;
    const unsigned index =
        static_cast<unsigned>(wheel_time_ >> level_shift(level)) &
        (kSlots - 1);
    cascade(level, index);
  }
}

bool TimerWheelQueue::advance(Time until) {
  for (;;) {
    // Level 0: the next occupied slot in the current page moves wholesale
    // into the due heap.
    {
      const std::uint64_t tick = wheel_time_ >> kTickShift;
      const unsigned cur = static_cast<unsigned>(tick) & (kSlots - 1);
      const int found = next_occupied(0, cur);
      if (found >= 0) {
        const std::uint64_t slot_tick =
            (tick & ~static_cast<std::uint64_t>(kSlots - 1)) |
            static_cast<unsigned>(found);
        const Time slot_start = slot_tick << kTickShift;
        if (slot_start > until) return false;
        wheel_time_ = (slot_tick + 1) << kTickShift;
        drain_slot(0, static_cast<unsigned>(found),
                   [this](const QueueKey& key) {
                     if (!discard_if_dead(key)) push_due(key);
                   });
        // Processing slot 255 rolls wheel_time_ onto the next level-1
        // window: cascade what we just entered before anything can be
        // scheduled into (and fired from) level 0 ahead of it.
        if ((wheel_time_ & ((Time{1} << level_shift(1)) - 1)) == 0) {
          enter_windows();
        }
        return true;
      }
    }

    // Level-0 page empty: step to this page's next occupied level-1 slot.
    // Slots behind and including the wheel's own index are empty — every
    // entered window was cascaded on entry — so the jump only skips empty
    // windows and wheel_time_ is monotonic.
    {
      const unsigned cur =
          static_cast<unsigned>(wheel_time_ >> level_shift(1)) & (kSlots - 1);
      const int found = next_occupied(1, cur);
      if (found >= 0) {
        const Time page_base =
            (wheel_time_ >> page_shift(1)) << page_shift(1);
        const Time slot_start =
            page_base | (static_cast<Time>(found) << level_shift(1));
        if (slot_start > until) return false;
        wheel_time_ = slot_start;
        cascade(1, static_cast<unsigned>(found));
        continue;
      }
    }

    // Level-1 page spent: same step at level 2. Entering a level-2 slot
    // lands on its first level-1 window, whose slot is necessarily empty
    // (nothing files into level 1 from outside the wheel's level-2 page),
    // so cascading just this slot is enough.
    {
      const unsigned cur =
          static_cast<unsigned>(wheel_time_ >> level_shift(2)) & (kSlots - 1);
      const int found = next_occupied(2, cur);
      if (found >= 0) {
        const Time page_base =
            (wheel_time_ >> page_shift(2)) << page_shift(2);
        const Time slot_start =
            page_base | (static_cast<Time>(found) << level_shift(2));
        if (slot_start > until) return false;
        wheel_time_ = slot_start;
        cascade(2, static_cast<unsigned>(found));
        continue;
      }
    }

    // Beyond the wheel: jump to the overflow top's page and pull it in.
    if (!overflow_.empty()) {
      const unsigned top_shift = page_shift(kLevels - 1);
      const Time page_start =
          (overflow_.front().when >> top_shift) << top_shift;
      if (page_start > until) return false;
      wheel_time_ = page_start;
      drain_overflow();
      continue;
    }
    return false;
  }
}

Time TimerWheelQueue::next_due_bound() const noexcept {
  // Keys in the due heap precede the wheel's; within the wheel every
  // level-0 key precedes every level-1 key (a later level-0 page), and so
  // on up to the overflow heap. So the first occupied store bounds them
  // all, and a slot's start bounds its keys.
  if (!due_.empty()) return due_.front().when;
  for (unsigned level = 0; level < kLevels; ++level) {
    const unsigned cur =
        static_cast<unsigned>(wheel_time_ >> level_shift(level)) &
        (kSlots - 1);
    const int found = next_occupied(level, cur);
    if (found >= 0) {
      const Time page_base =
          (wheel_time_ >> page_shift(level)) << page_shift(level);
      return page_base | (static_cast<Time>(found) << level_shift(level));
    }
  }
  if (!overflow_.empty()) return overflow_.front().when;
  return std::numeric_limits<Time>::max();
}

bool TimerWheelQueue::pop_next(Time until, QueueEntry& out,
                               std::uint64_t last_seq) {
  for (;;) {
    while (!due_.empty() && discard_if_dead(due_.front())) {
      std::pop_heap(due_.begin(), due_.end(), QueueLater{});
      due_.pop_back();
    }
    if (!due_.empty()) {
      if (due_.front().when > until || due_.front().seq > last_seq) {
        return false;
      }
      std::pop_heap(due_.begin(), due_.end(), QueueLater{});
      const QueueKey key = due_.back();
      due_.pop_back();
      out.when = key.when;
      out.seq = key.seq;
      out.tag = key.tag;
      out.fn = std::move(cell(key.cell).fn);
      release(key.cell);
      --stored_;
      return true;
    }
    if (stored_ == 0) return false;
    if (!advance(until)) return false;
  }
}

void TimerWheelQueue::compact() {
  // discard_if_dead uncounts each key it drops, so every cancelled key
  // being reached here leaves dead_ at zero.
  const auto is_dead = [this](const QueueKey& key) {
    return discard_if_dead(key);
  };
  std::erase_if(due_, is_dead);
  std::make_heap(due_.begin(), due_.end(), QueueLater{});
  std::erase_if(overflow_, is_dead);
  std::make_heap(overflow_.begin(), overflow_.end(), QueueLater{});
  for (unsigned level = 0; level < kLevels; ++level) {
    for (unsigned index = 0; index < kSlots; ++index) {
      // Jump to the next occupied slot: compaction runs every few dozen
      // cancels, and walking all 768 slots dominated cancel churn.
      const int found = next_occupied(level, index);
      if (found < 0) break;
      index = static_cast<unsigned>(found);
      compact_slot(level, index);
    }
  }
  assert(dead_ == 0);
}

}  // namespace ph::sim
