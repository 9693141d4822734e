// EventFn: a small-buffer-optimized, move-only callable for DES events.
//
// The event queue is the hottest structure in the simulator — every flash
// command, accelerator batch, and heartbeat flows through it — and the
// previous std::function<void()> representation heap-allocated for any
// capture beyond ~2 pointers. EventFn keeps 64 bytes of inline storage,
// which covers every lambda the engine schedules (the largest captures
// this + a reference + two scalars + a std::vector ≈ 56 bytes); larger or
// over-aligned callables fall back to a single heap allocation. Unlike
// std::function, EventFn accepts move-only callables (e.g. captures holding
// std::unique_ptr), so event payloads never need to be made copyable.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace fw::sim {

class EventFn {
 public:
  /// Inline capture budget. Sized so the engine's largest hot-path lambda
  /// (this + reference + index + id + moved-in std::vector) stays inline.
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking empty EventFn");
    ops_->invoke(buf_);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when a callable of type F is stored inline (no heap allocation).
  template <typename F>
  static constexpr bool stores_inline() {
    return fits_inline<std::remove_cvref_t<F>>();
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move the callable from `src` storage into `dst` (raw, uninitialized)
    /// and destroy the source; with dst == nullptr, destroy only.
    void (*relocate)(void* src, void* dst) noexcept;
    /// Inline, trivially copyable, trivially destructible: moving is a
    /// memcpy of the buffer and destruction is a no-op. This keeps the
    /// moves into and out of the queue's slots (and the shards' outboxes)
    /// free of indirect calls for the scalar/pointer-capturing lambdas that
    /// dominate engine traffic.
    bool trivial;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static void inline_invoke(void* storage) {
    (*std::launder(reinterpret_cast<Fn*>(storage)))();
  }

  template <typename Fn>
  static void inline_relocate(void* src, void* dst) noexcept {
    Fn* f = std::launder(reinterpret_cast<Fn*>(src));
    if (dst != nullptr) ::new (dst) Fn(std::move(*f));
    f->~Fn();
  }

  template <typename Fn>
  static void heap_invoke(void* storage) {
    (**std::launder(reinterpret_cast<Fn**>(storage)))();
  }

  template <typename Fn>
  static void heap_relocate(void* src, void* dst) noexcept {
    Fn** p = std::launder(reinterpret_cast<Fn**>(src));
    if (dst != nullptr) {
      ::new (dst) Fn*(*p);
    } else {
      delete *p;
    }
    // The pointer itself is trivially destructible; nothing else to do.
  }

  template <typename Fn>
  static constexpr Ops inline_ops{&inline_invoke<Fn>, &inline_relocate<Fn>,
                                  std::is_trivially_copyable_v<Fn> &&
                                      std::is_trivially_destructible_v<Fn>};
  template <typename Fn>
  static constexpr Ops heap_ops{&heap_invoke<Fn>, &heap_relocate<Fn>, false};

  void steal(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->trivial) {
        // Unconditional full-buffer copy: branchless, vectorizes, and the
        // stored callable is bitwise-relocatable by construction.
        std::memcpy(buf_, other.buf_, kInlineBytes);
      } else {
        other.ops_->relocate(other.buf_, buf_);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->relocate(buf_, nullptr);
      ops_ = nullptr;
    }
  }

  // Zero-initialized so the trivial-relocate memcpy (which copies the full
  // buffer regardless of the stored callable's size) never reads
  // indeterminate bytes. The compiler folds the zeroing into the
  // placement-new stores on the hot construction path.
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes] = {};
  const Ops* ops_ = nullptr;
};

}  // namespace fw::sim
