// EventFn — a move-only, small-buffer-optimized callable for simulator
// events.
//
// Every scheduled event used to carry a `std::function<void()>`, whose
// small-object buffer (16 bytes in libstdc++) is far too small for the
// Medium's delivery closures (this + endpoints + span id + payload handle
// ≈ 60–90 bytes), so steady-state scheduling heap-allocated one closure
// per event. EventFn inlines up to kInlineSize bytes of capture state in
// the queue's closure cell itself; only outsized closures (link-open
// continuations that carry a whole TechProfile) fall back to the heap.
// The allocation test (tests/sim/alloc_test.cpp) interposes operator new
// to assert the steady-state event loop performs zero allocations per
// event.
//
// Unlike std::function it is move-only (captured payloads need no copy),
// but like std::function it may be invoked repeatedly — periodic tasks
// re-use the same stored callable across occurrences.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ph::sim {

class EventFn {
 public:
  /// Inline capture capacity. Sized so the hot networking closures
  /// (datagram/link-frame delivery: this pointer, endpoints, trace span,
  /// pooled payload handle) stay in their queue cell, which makes an
  /// EventFn 112 bytes; the timer wheel moves only keys naming the cells.
  static constexpr std::size_t kInlineSize = 96;

  EventFn() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_v<D&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &inline_ops<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &heap_ops<D>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the callable lives inline in this EventFn (no heap).
  bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_storage;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs the callable into `dst` from `src` and destroys the
    /// source — the queue moves it into its cell and out again to fire.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_storage;
  };

  template <class D>
  static constexpr Ops inline_ops = {
      [](void* storage) { (*std::launder(reinterpret_cast<D*>(storage)))(); },
      [](void* dst, void* src) noexcept {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* storage) noexcept {
        std::launder(reinterpret_cast<D*>(storage))->~D();
      },
      true,
  };

  template <class D>
  static constexpr Ops heap_ops = {
      [](void* storage) {
        (**std::launder(reinterpret_cast<D**>(storage)))();
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
      },
      [](void* storage) noexcept {
        delete *std::launder(reinterpret_cast<D**>(storage));
      },
      false,
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

}  // namespace ph::sim
