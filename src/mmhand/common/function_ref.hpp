#pragma once

// Non-owning callable reference.
//
// `std::function` small-object storage tops out around two pointers, so
// the capture-heavy lambdas the conv layers hand to `parallel_for` would
// spill to the heap on every call — one allocation per parallel region,
// per batch, forever.  `FunctionRef` is the classic two-word
// (object pointer, trampoline pointer) view: it never copies or owns
// the callable, so constructing one from a lambda temporary is free.
//
// The referenced callable must outlive every invocation.  That holds
// for `parallel_for`'s usage by construction: the submitting thread
// blocks until the region drains, so a lambda temporary in the call
// expression lives past the last `fn(i)`.

#include <memory>
#include <type_traits>
#include <utility>

namespace mmhand {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design —
  // call sites pass lambdas exactly as they passed them to std::function.
  FunctionRef(F&& f) noexcept
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace mmhand
