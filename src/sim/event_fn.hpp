// Small-buffer, move-only callable for simulator events.
//
// std::function<void()> heap-allocates as soon as a capture outgrows the
// implementation's small inline buffer (16 bytes on libstdc++), and the
// hottest schedule sites — message delivery, timer re-arm, processor
// completion — capture a few pointers plus ids, just over that line. A
// 48-byte inline buffer absorbs all of them, so steady-state scheduling
// performs zero callable allocations; bench_micro's event-queue benchmark
// reports the allocation count as a counter. Move-only, so events may also
// own non-copyable state.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "util/arena.hpp"

namespace p2prm::sim {

class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at every schedule call site.
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = inline_vt<Fn>();
    } else {
      // Spill path: size-classed pool instead of the global heap. The
      // vtable is instantiated per Fn, so the destroy hook knows sizeof(Fn)
      // and can return the block to its exact size class.
      heap_ = util::pool_new<Fn>(std::forward<F>(f));
      vt_ = heap_vt<Fn>();
      heap_constructions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  EventFn(EventFn&& other) noexcept : vt_(other.vt_) {
    if (vt_) vt_->move(*this, other);
    other.vt_ = nullptr;
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this == &other) return *this;
    reset();
    vt_ = other.vt_;
    if (vt_) vt_->move(*this, other);
    other.vt_ = nullptr;
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { vt_->invoke(*this); }
  explicit operator bool() const { return vt_ != nullptr; }

  // Process-wide count of callables that spilled to the heap (capture too
  // large or not nothrow-movable). Relaxed atomic, so concurrent
  // constructions stay safe; benches snapshot it around a workload.
  [[nodiscard]] static std::uint64_t heap_constructions() {
    return heap_constructions_.load(std::memory_order_relaxed);
  }

 private:
  struct VTable {
    void (*invoke)(EventFn&);
    void (*move)(EventFn& dst, EventFn& src);
    void (*destroy)(EventFn&);
  };

  template <typename Fn>
  Fn* inline_target() {
    return std::launder(reinterpret_cast<Fn*>(buf_));
  }

  template <typename Fn>
  static const VTable* inline_vt() {
    static constexpr VTable vt{
        [](EventFn& self) { (*self.inline_target<Fn>())(); },
        [](EventFn& dst, EventFn& src) {
          ::new (static_cast<void*>(dst.buf_))
              Fn(std::move(*src.inline_target<Fn>()));
          src.inline_target<Fn>()->~Fn();
        },
        [](EventFn& self) { self.inline_target<Fn>()->~Fn(); }};
    return &vt;
  }

  template <typename Fn>
  static const VTable* heap_vt() {
    static constexpr VTable vt{
        [](EventFn& self) { (*static_cast<Fn*>(self.heap_))(); },
        [](EventFn& dst, EventFn& src) {
          dst.heap_ = src.heap_;
          src.heap_ = nullptr;
        },
        [](EventFn& self) { util::pool_delete(static_cast<Fn*>(self.heap_)); }};
    return &vt;
  }

  void reset() {
    if (vt_ == nullptr) return;
    vt_->destroy(*this);
    vt_ = nullptr;
    heap_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  void* heap_ = nullptr;
  const VTable* vt_ = nullptr;

  inline static std::atomic<std::uint64_t> heap_constructions_{0};
};

}  // namespace p2prm::sim
