/**
 * @file
 * InlineFunction: a fixed-capacity callable for the timed path's
 * continuations (event bodies, cache completions, link deliveries).
 *
 * Unlike std::function it never allocates: the closure lives in an
 * inline buffer of Cap bytes, and a closure that does not fit, is
 * over-aligned, or is not trivially copyable and trivially
 * destructible fails to compile at the line that builds it. The
 * object is one invoker pointer plus the buffer, itself trivially
 * copyable, so a copy is a memcpy and there is no manager to call on
 * copy or destruction. Capturing a pointer, an address, a few scalars
 * or another InlineFunction by value fits; capturing a std::function,
 * a std::string or a container does not.
 *
 * Setup-time hooks that may own state (audits, coherence hooks, pool
 * tasks) stay std::function.
 */

#ifndef CMPSIM_SIM_INLINE_FUNCTION_H
#define CMPSIM_SIM_INLINE_FUNCTION_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cmpsim {

template <typename Sig, std::size_t Cap>
class InlineFunction;

/** Fixed-capacity `R(Args...)` callable; see the file comment. */
template <typename R, typename... Args, std::size_t Cap>
class InlineFunction<R(Args...), Cap>
{
  public:
    /** Alignment the buffer guarantees a closure. */
    static constexpr std::size_t kAlign = alignof(void *);

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    /** Store closure @p f inline. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f)
    {
        using Closure = std::decay_t<F>;
        static_assert(sizeof(Closure) <= Cap,
                      "closure exceeds the InlineFunction capacity");
        static_assert(alignof(Closure) <= kAlign,
                      "closure is over-aligned for InlineFunction");
        static_assert(std::is_trivially_copyable_v<Closure> &&
                          std::is_trivially_destructible_v<Closure>,
                      "InlineFunction holds only trivially copyable, "
                      "trivially destructible closures");
        ::new (static_cast<void *>(storage_))
            Closure(std::forward<F>(f));
        invoke_ = [](void *storage, Args... args) -> R {
            return (*std::launder(static_cast<Closure *>(storage)))(
                std::forward<Args>(args)...);
        };
    }

    InlineFunction &
    operator=(std::nullptr_t)
    {
        invoke_ = nullptr;
        return *this;
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    /** Call the closure; its captures may change (a `mutable`
     *  lambda), as with std::function. @pre *this is non-empty. */
    R
    operator()(Args... args) const
    {
        return invoke_(storage_, std::forward<Args>(args)...);
    }

  private:
    using Invoker = R (*)(void *, Args...);

    Invoker invoke_ = nullptr;
    alignas(kAlign) mutable unsigned char storage_[Cap];
};

} // namespace cmpsim

#endif // CMPSIM_SIM_INLINE_FUNCTION_H
