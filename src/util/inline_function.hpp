// InlineFunction: a move-only callable wrapper with a small-buffer
// optimization sized for the simulator's hot path.
//
// std::function heap-allocates any capture larger than ~two pointers; the
// event queue schedules millions of delivery closures per bench, each
// capturing a full Envelope (~64 bytes). InlineFunction stores callables
// up to InlineSize bytes in place and falls back to a heap box above
// that, so the common scheduling path performs no allocation at all.
//
// The default capacity is 88 bytes: with the three dispatch pointers
// that makes sizeof(InlineFunction) == 112, one EventQueue slab slot.
// The largest hot closure — the network's delivery capture of
// {Network*, Envelope, epoch} — is 64 bytes and stays inline; anything
// bigger (the membership oracle's view closure, cold path) takes the
// box. tests/perf_structures_test.cpp pins these sizes.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote {

inline constexpr std::size_t kInlineFunctionDefaultCapacity = 88;

template <typename Signature,
          std::size_t InlineSize = kInlineFunctionDefaultCapacity>
class InlineFunction;  // primary template; only R(Args...) is defined

template <typename R, typename... Args, std::size_t InlineSize>
class InlineFunction<R(Args...), InlineSize> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit)
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  R operator()(Args... args) {
    ensure(invoke_ != nullptr, "calling an empty InlineFunction");
    return invoke_(&storage_, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(&storage_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  using Invoke = R (*)(void*, Args&&...);
  /// Move-constructs the callable at `dst` from `src` and destroys `src`.
  using Relocate = void (*)(void* dst, void* src);
  using Destroy = void (*)(void*);

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= InlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      install<D>(std::forward<F>(f));
    } else {
      // Too big (or throwing move): box it; the unique_ptr itself is the
      // inline callable.
      install<Box<D>>(Box<D>{std::make_unique<D>(std::forward<F>(f))});
    }
  }

  template <typename D, typename F>
  void install(F&& f) {
    ::new (static_cast<void*>(&storage_)) D(std::forward<F>(f));
    invoke_ = [](void* s, Args&&... args) -> R {
      return (*std::launder(reinterpret_cast<D*>(s)))(
          std::forward<Args>(args)...);
    };
    relocate_ = [](void* dst, void* src) {
      D* from = std::launder(reinterpret_cast<D*>(src));
      ::new (dst) D(std::move(*from));
      from->~D();
    };
    destroy_ = [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); };
  }

  template <typename D>
  struct Box {
    std::unique_ptr<D> fn;
    R operator()(Args... args) { return (*fn)(std::forward<Args>(args)...); }
  };

  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    if (relocate_ != nullptr) relocate_(&storage_, &other.storage_);
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[InlineSize];
  Invoke invoke_ = nullptr;
  Relocate relocate_ = nullptr;
  Destroy destroy_ = nullptr;
};

}  // namespace dynvote
