// Epoch arena and buffer pool — bulk-lifetime memory for the hot paths.
//
// The simulator's three hottest heap populations share a shape: many
// small objects created at a furious rate whose lifetimes end together —
// frame payloads die when the delivery event fires, sampler ring points
// die with the run, trace records die when the flight-recorder ring
// evicts them. General-purpose new/delete pays full price per object;
// these helpers amortize it to one allocation per chunk (Arena) or one
// per high-water-mark buffer (BufferPool) and recycle the memory.
//
// ASan integration: recycled memory is *poisoned* while it sits idle
// (Arena::reset, BufferPool release) and unpoisoned on reuse, so the
// asan-ubsan preset (ph_sanitize_smoke) still catches use-after-free on
// recycled blocks — the exact bug class manual pooling usually hides.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__has_feature)
#  if __has_feature(address_sanitizer)
#    define PH_HAS_ASAN 1
#  endif
#elif defined(__SANITIZE_ADDRESS__)
#  define PH_HAS_ASAN 1
#endif

#if defined(PH_HAS_ASAN)
#  include <sanitizer/asan_interface.h>
#  define PH_ASAN_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#  define PH_ASAN_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#  define PH_ASAN_POISON(addr, size) ((void)(addr), (void)(size))
#  define PH_ASAN_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace ph::util {

/// Chunked bump allocator with epoch-bulk reclamation. allocate() bumps a
/// pointer inside the current chunk (O(1), no per-object bookkeeping);
/// reset() ends the epoch, poisons every chunk and rewinds — the chunks
/// themselves are kept for the next epoch, so a steady-state epoch cycle
/// performs no allocator calls at all. Objects placed in an arena must be
/// trivially destructible (nobody will run their destructors).
class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    // Unpoison before handing memory back to the allocator.
    for (Chunk& chunk : chunks_) {
      PH_ASAN_UNPOISON(chunk.data.get(), chunk.size);
    }
  }

  void* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t)) {
    // Align the address, not just the offset: chunk bases come from
    // operator new[] and only guarantee __STDCPP_DEFAULT_NEW_ALIGNMENT__.
    Chunk* chunk = current_ < chunks_.size() ? &chunks_[current_] : nullptr;
    std::size_t offset = chunk != nullptr ? aligned_offset(*chunk, align) : 0;
    if (chunk == nullptr || offset + size > chunk->size) {
      advance_chunk(size, align);
      chunk = &chunks_[current_];
      offset = aligned_offset(*chunk, align);
    }
    std::byte* out = chunk->data.get() + offset;
    chunk->used = offset + size;
    PH_ASAN_UNPOISON(out, size);
    bytes_allocated_ += size;
    return out;
  }

  /// Typed helper: `n` default-constructed T. T must be trivially
  /// destructible — the arena never runs destructors.
  template <class T>
  T* allocate_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    T* out = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) ::new (static_cast<void*>(out + i)) T();
    return out;
  }

  /// Ends the epoch: every chunk is rewound and poisoned. All pointers
  /// previously handed out are invalid; ASan builds trap any use.
  void reset() {
    for (Chunk& chunk : chunks_) {
      PH_ASAN_POISON(chunk.data.get(), chunk.size);
      chunk.used = 0;
    }
    current_ = 0;
    ++epoch_;
  }

  std::size_t chunk_count() const noexcept { return chunks_.size(); }
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Bytes handed out since construction (across all epochs).
  std::uint64_t bytes_allocated() const noexcept { return bytes_allocated_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t aligned(std::size_t offset, std::size_t align) noexcept {
    return (offset + align - 1) & ~(align - 1);
  }

  /// First offset at or past chunk.used whose *address* satisfies align.
  static std::size_t aligned_offset(const Chunk& chunk,
                                    std::size_t align) noexcept {
    const auto base = reinterpret_cast<std::uintptr_t>(chunk.data.get());
    return static_cast<std::size_t>(aligned(base + chunk.used, align) - base);
  }

  void advance_chunk(std::size_t size, std::size_t align) {
    // Reuse a rewound chunk from an earlier epoch if it fits; otherwise
    // grow by one chunk sized for the request.
    while (current_ + 1 < chunks_.size()) {
      ++current_;
      Chunk& chunk = chunks_[current_];
      if (aligned_offset(chunk, align) + size <= chunk.size) return;
    }
    const std::size_t need = size + align;
    const std::size_t bytes = need > chunk_bytes_ ? need : chunk_bytes_;
    Chunk chunk;
    chunk.data = std::make_unique<std::byte[]>(bytes);
    chunk.size = bytes;
    chunks_.push_back(std::move(chunk));
    current_ = chunks_.size() - 1;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t bytes_allocated_ = 0;
};

/// Allocator for large vectors that live as long as one simulated world,
/// such as a flight-recorder journal: the storage is mapped straight from
/// the kernel and unmapped when freed, never carved from malloc's heap.
/// Freeing a multi-megabyte block that malloc had mapped raises glibc's
/// dynamic mmap threshold to that block's size (up to 32 MiB); from then
/// on every smaller block, the next world's journal included, comes from
/// the brk heap, whose freed pages the process keeps. ASan builds use
/// operator new instead, so ASan still checks the storage.
template <class T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() noexcept = default;
  template <class U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
#if defined(PH_HAS_ASAN)
    return std::allocator<T>{}.allocate(n);
#else
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
#endif
  }
  void deallocate(T* p, std::size_t n) noexcept {
#if defined(PH_HAS_ASAN)
    std::allocator<T>{}.deallocate(p, n);
#else
    ::munmap(p, n * sizeof(T));
#endif
  }

  friend bool operator==(const MappedAllocator&,
                         const MappedAllocator&) noexcept {
    return true;
  }
};

class BufferPool;

/// A byte buffer borrowed from a BufferPool. Returns its storage to the
/// pool on destruction — or frees it outright if the pool died first
/// (scheduled delivery closures can outlive the Medium that pooled them).
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(PooledBuffer&&) noexcept = default;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      release();
      core_ = std::move(other.core_);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { release(); }

  const std::uint8_t* data() const noexcept { return buf_.data(); }
  std::size_t size() const noexcept { return buf_.size(); }
  bool empty() const noexcept { return buf_.empty(); }

 private:
  friend class BufferPool;
  struct Core;

  PooledBuffer(std::weak_ptr<Core> core, std::vector<std::uint8_t> buf)
      : core_(std::move(core)), buf_(std::move(buf)) {}

  void release();

  std::weak_ptr<Core> core_;
  std::vector<std::uint8_t> buf_;
};

/// Free-list of byte buffers for frame payloads. acquire() copies the
/// payload into a recycled buffer (no allocation once the pool is warm,
/// as long as payloads stay at or below the high-water size); the
/// PooledBuffer handle returns it on destruction. Idle buffers are ASan-
/// poisoned in the free list.
class BufferPool {
 public:
  /// Smallest capacity a pooled buffer is given: daemon datagrams, session
  /// control frames and community RPCs all fit.
  static constexpr std::size_t kMinCapacity = 256;

  BufferPool() : core_(std::make_shared<PooledBuffer::Core>()) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  PooledBuffer acquire(const std::uint8_t* data, std::size_t size);

  std::size_t idle() const noexcept;
  std::uint64_t reused() const noexcept;
  std::uint64_t fresh() const noexcept;

 private:
  std::shared_ptr<PooledBuffer::Core> core_;
};

struct PooledBuffer::Core {
  std::vector<std::vector<std::uint8_t>> free;
  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
};

inline void PooledBuffer::release() {
  if (buf_.capacity() == 0) return;
  if (auto core = core_.lock()) {
    // clear() before poisoning: the vector's own bookkeeping must not
    // touch the poisoned region later.
    buf_.clear();
    PH_ASAN_POISON(buf_.data(), buf_.capacity());
    core->free.push_back(std::move(buf_));
  }
  buf_ = {};
  core_.reset();
}

inline BufferPool::~BufferPool() {
  for (std::vector<std::uint8_t>& buf : core_->free) {
    PH_ASAN_UNPOISON(buf.data(), buf.capacity());
  }
}

inline PooledBuffer BufferPool::acquire(const std::uint8_t* data,
                                        std::size_t size) {
  std::vector<std::uint8_t> buf;
  if (!core_->free.empty()) {
    buf = std::move(core_->free.back());
    core_->free.pop_back();
    PH_ASAN_UNPOISON(buf.data(), buf.capacity());
    ++core_->reused;
  } else {
    ++core_->fresh;
  }
  // Every buffer holds at least a control-sized frame, so a recycled
  // buffer that last carried a ping does not regrow for the next reply.
  if (buf.capacity() < size) buf.reserve(std::max(size, kMinCapacity));
  buf.assign(data, data + size);  // assign, not resize: no zero-fill pass
  return PooledBuffer(core_, std::move(buf));
}

inline std::size_t BufferPool::idle() const noexcept {
  return core_->free.size();
}
inline std::uint64_t BufferPool::reused() const noexcept {
  return core_->reused;
}
inline std::uint64_t BufferPool::fresh() const noexcept {
  return core_->fresh;
}

}  // namespace ph::util
