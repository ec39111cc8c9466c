/**
 * @file
 * Named elementwise operator functors.
 *
 * Every lifted operator (core/operators.hpp) and function
 * (core/functions.hpp) applies one of these functors, and every
 * engine applies the same functor: the tree walk per sample, the
 * batch plan's interpreter strips and constant folds, and the
 * kernel layer's scalar rung (core/simd_kernels.cpp) through
 * applyLoop below. A lambda expression has a unique closure type;
 * a named functor is recognizable by type, which is what lets the
 * plan look an operator up in the native-op table
 * (UNCERTAIN_NATIVE_OPS in core/simd_kernels.hpp, expanded to
 * simd::nativeOp in core/simd.hpp) and run it through the SIMD
 * kernels or the JIT. Unknown functors keep the scalar strip loop.
 *
 * The functors are empty types (so StepInfo::cseSafe holds via
 * std::is_empty_v) with generic call operators and SFINAE-friendly
 * trailing return types, so the lifted operators work over
 * arbitrary base types, not just arithmetic ones.
 *
 * Add, Sub, Mul and Neg wrap modulo 2^width when the result is a
 * signed integer: the arithmetic runs in the unsigned type of the
 * same width, which is what the vector instructions and the JIT
 * compute. Signed overflow in the plain operators would be UB.
 * Integer Div is total too: a zero divisor throws uncertain::Error
 * ("integer division by zero"), and MIN / -1 wraps to MIN like Neg.
 *
 * Min/Max deliberately spell out the std::min/std::max selection
 * ((y < x) ? y : x) rather than delegating, so the vector kernels
 * can reproduce the exact semantics — including which operand is
 * returned for equal values and NaN — with a compare + blend.
 */

#ifndef UNCERTAIN_CORE_OPS_HPP
#define UNCERTAIN_CORE_OPS_HPP

#include <cstddef>
#include <type_traits>

#include "support/error.hpp"

namespace uncertain {
namespace core {
namespace ops {

/** out[i] = op(srcs[i]...) for i in [0, n): the elementwise loop of
 *  the interpreter strips and the kernel layer's scalar rung. */
template <typename F, typename Out, typename... Srcs>
void
applyLoop(const F& op, Out* out, std::size_t n, const Srcs*... srcs)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<Out>(op(srcs[i]...));
}

namespace detail {

/** Does an arithmetic result of type R wrap through its unsigned
 *  type? (Operands narrower than int promote, so R is int or wider.) */
template <typename R>
inline constexpr bool kWraps = std::is_integral_v<R> && std::is_signed_v<R>;

template <typename R>
using Unsigned = std::make_unsigned_t<R>;

} // namespace detail

// ---- arithmetic ------------------------------------------------------

struct Add
{
    template <typename X, typename Y>
    constexpr auto
    operator()(const X& x, const Y& y) const -> decltype(x + y)
    {
        using R = decltype(x + y);
        if constexpr (detail::kWraps<R>) {
            using U = detail::Unsigned<R>;
            return static_cast<R>(static_cast<U>(x) + static_cast<U>(y));
        } else {
            return x + y;
        }
    }
};

struct Sub
{
    template <typename X, typename Y>
    constexpr auto
    operator()(const X& x, const Y& y) const -> decltype(x - y)
    {
        using R = decltype(x - y);
        if constexpr (detail::kWraps<R>) {
            using U = detail::Unsigned<R>;
            return static_cast<R>(static_cast<U>(x) - static_cast<U>(y));
        } else {
            return x - y;
        }
    }
};

struct Mul
{
    template <typename X, typename Y>
    constexpr auto
    operator()(const X& x, const Y& y) const -> decltype(x * y)
    {
        using R = decltype(x * y);
        if constexpr (detail::kWraps<R>) {
            using U = detail::Unsigned<R>;
            return static_cast<R>(static_cast<U>(x) * static_cast<U>(y));
        } else {
            return x * y;
        }
    }
};

struct Neg
{
    template <typename X>
    constexpr auto
    operator()(const X& x) const -> decltype(-x)
    {
        using R = decltype(-x);
        if constexpr (detail::kWraps<R>) {
            using U = detail::Unsigned<R>;
            return static_cast<R>(U{} - static_cast<U>(x));
        } else {
            return -x;
        }
    }
};

struct Div
{
    template <typename X, typename Y>
    constexpr auto
    operator()(const X& x, const Y& y) const -> decltype(x / y)
    {
        using R = decltype(x / y);
        if constexpr (std::is_integral_v<R>) {
            UNCERTAIN_REQUIRE(static_cast<R>(y) != R{0},
                              "integer division by zero");
            if constexpr (detail::kWraps<R>)
                if (static_cast<R>(y) == R{-1})
                    return Neg{}(static_cast<R>(x));
        }
        return x / y;
    }
};

/** std::min semantics: (y < x) ? y : x — returns x on ties and NaN. */
struct Min
{
    template <typename X>
    constexpr X
    operator()(const X& x, const X& y) const
    {
        return (y < x) ? y : x;
    }
};

/** std::max semantics: (x < y) ? y : x — returns x on ties and NaN. */
struct Max
{
    template <typename X>
    constexpr X
    operator()(const X& x, const X& y) const
    {
        return (x < y) ? y : x;
    }
};

// ---- order and equality (result coerced to bool, as the lifted
// ---- compare operators always did) ----------------------------------

struct Lt
{
    template <typename X, typename Y>
    constexpr bool
    operator()(const X& x, const Y& y) const
    {
        return x < y;
    }
};

struct Gt
{
    template <typename X, typename Y>
    constexpr bool
    operator()(const X& x, const Y& y) const
    {
        return x > y;
    }
};

struct Le
{
    template <typename X, typename Y>
    constexpr bool
    operator()(const X& x, const Y& y) const
    {
        return x <= y;
    }
};

struct Ge
{
    template <typename X, typename Y>
    constexpr bool
    operator()(const X& x, const Y& y) const
    {
        return x >= y;
    }
};

struct Eq
{
    template <typename X, typename Y>
    constexpr bool
    operator()(const X& x, const Y& y) const
    {
        return x == y;
    }
};

struct Ne
{
    template <typename X, typename Y>
    constexpr bool
    operator()(const X& x, const Y& y) const
    {
        return x != y;
    }
};

// ---- logical (no short-circuiting inside a sampling pass) -----------

struct And
{
    constexpr bool operator()(bool x, bool y) const { return x && y; }
};

struct Or
{
    constexpr bool operator()(bool x, bool y) const { return x || y; }
};

struct Not
{
    constexpr bool operator()(bool x) const { return !x; }
};

// ---- ternary selection ----------------------------------------------

/** cond ? x : y, the kernel behind uncertain::select. */
struct Select
{
    template <typename X>
    constexpr X
    operator()(bool c, const X& x, const X& y) const
    {
        return c ? x : y;
    }
};

} // namespace ops
} // namespace core
} // namespace uncertain

#endif // UNCERTAIN_CORE_OPS_HPP
