// Small-buffer move-only callable for the event hot path.
//
// Every pending event used to be a std::function<void()>; almost all of them
// capture a coroutine handle or a handful of POD fields, far below
// std::function's heap-allocation threshold on some ABIs and — worse — paying
// its double-indirect dispatch and exception-safe copy machinery on every
// heap sift. SmallFn stores callables up to kInlineBytes inline (48 bytes
// covers every capture in this repository), falls back to the heap for
// larger ones, and is move-only: events are scheduled once, fired once.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace nicbar::sim {

class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor): "no callback"

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &vtable_inline<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &vtable_heap<Fn>;
    }
  }

  SmallFn(SmallFn&& o) noexcept : vt_(o.vt_) {
    if (vt_ != nullptr) vt_->relocate(buf_, o.buf_);
    o.vt_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      vt_ = o.vt_;
      if (vt_ != nullptr) vt_->relocate(buf_, o.buf_);
      o.vt_ = nullptr;
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { vt_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline = sizeof(Fn) <= kInlineBytes &&
                                      alignof(Fn) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static constexpr VTable vtable_inline{
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* dst, void* src) noexcept {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable vtable_heap{
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* dst, void* src) noexcept {
        // The stored pointer is trivially destructible; just copy it over.
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace nicbar::sim
