/**
 * @file
 * The lifted operator algebra of Table 1.
 *
 * Math   (+ - * /)      :: U<T> -> U<T> -> U<T>
 * Order  (< > <= >=)    :: U<T> -> U<T> -> U<bool>
 * Equality (== !=)      :: U<T> -> U<T> -> U<bool>  (see caveat below)
 * Logical (&& || !)     :: U<bool> -> U<bool> -> U<bool>
 *
 * Mixed base types are supported exactly as the paper describes
 * ("a lifted operator may have any type"): the result base type is
 * whatever the underlying C++ operator produces, so for example
 * Uncertain<int> / Uncertain<int> with a double-producing functor is
 * expressible via lift().
 *
 * Plain values mix freely with uncertain ones; they are coerced to
 * point masses (section 3.3).
 *
 * Caveats mirroring the paper:
 *  - `==` between continuous variables is almost surely false, just
 *    as exact float equality is meaningless; use approxEqual() or
 *    compare with E(). `==` is meaningful for discrete base types.
 *  - `&&`/`||` on Uncertain<bool> cannot short-circuit; both operand
 *    networks are evaluated within each sampling pass (sharing draws
 *    via the epoch cache, so `x && x` is exactly `x`).
 */

#ifndef UNCERTAIN_CORE_OPERATORS_HPP
#define UNCERTAIN_CORE_OPERATORS_HPP

#include <cmath>
#include <string>
#include <type_traits>
#include <utility>

#include "core/ops.hpp"
#include "core/uncertain.hpp"

namespace uncertain {

namespace core {

/**
 * Lift an arbitrary binary function over two uncertain operands,
 * constructing the corresponding inner node.
 */
template <typename F, typename A, typename B>
auto
liftBinary(F f, const Uncertain<A>& a, const Uncertain<B>& b,
           std::string label = "apply")
    -> Uncertain<std::decay_t<std::invoke_result_t<F, A, B>>>
{
    using R = std::decay_t<std::invoke_result_t<F, A, B>>;
    return Uncertain<R>(std::make_shared<core::ApplyNode<R, F, A, B>>(
        std::move(f), std::move(label), a.node(), b.node()));
}

/**
 * Lift an arbitrary ternary function over three uncertain operands.
 * The basis of uncertain::select (core/functions.hpp).
 */
template <typename F, typename A, typename B, typename C>
auto
liftTernary(F f, const Uncertain<A>& a, const Uncertain<B>& b,
            const Uncertain<C>& c, std::string label = "apply")
    -> Uncertain<std::decay_t<std::invoke_result_t<F, A, B, C>>>
{
    using R = std::decay_t<std::invoke_result_t<F, A, B, C>>;
    return Uncertain<R>(std::make_shared<core::ApplyNode<R, F, A, B, C>>(
        std::move(f), std::move(label), a.node(), b.node(), c.node()));
}

} // namespace core

// ----------------------------------------------------------------------
// Arithmetic operators.
// ----------------------------------------------------------------------

// The lifted functors are the *named* types in core/ops.hpp rather
// than per-macro lambdas: the batch plan recognizes a step's operator
// by type (std::type_index) and looks it up in the native-op table
// (simd::nativeOp) to run it through the SIMD kernels or the JIT.

#define UNCERTAIN_DEFINE_BINARY_OP(symbol, label, functor)                 \
    template <typename A, typename B>                                     \
        requires requires(A a, B b) { a symbol b; }                       \
    auto operator symbol(const Uncertain<A>& a, const Uncertain<B>& b)    \
    {                                                                     \
        return core::liftBinary(core::ops::functor{}, a, b, label);       \
    }                                                                     \
    template <typename A, core::NotUncertain B>                           \
        requires requires(A a, B b) { a symbol b; }                       \
    auto operator symbol(const Uncertain<A>& a, const B& b)               \
    {                                                                     \
        return a symbol Uncertain<std::decay_t<B>>(b);                    \
    }                                                                     \
    template <core::NotUncertain A, typename B>                           \
        requires requires(A a, B b) { a symbol b; }                       \
    auto operator symbol(const A& a, const Uncertain<B>& b)               \
    {                                                                     \
        return Uncertain<std::decay_t<A>>(a) symbol b;                    \
    }

UNCERTAIN_DEFINE_BINARY_OP(+, "+", Add)
UNCERTAIN_DEFINE_BINARY_OP(-, "-", Sub)
UNCERTAIN_DEFINE_BINARY_OP(*, "*", Mul)
UNCERTAIN_DEFINE_BINARY_OP(/, "/", Div)

// ----------------------------------------------------------------------
// Order and equality operators: U<T> -> U<T> -> U<bool>.
// ----------------------------------------------------------------------

#define UNCERTAIN_DEFINE_COMPARE_OP(symbol, label, functor)                \
    template <typename A, typename B>                                     \
        requires requires(A a, B b) {                                     \
            { a symbol b } -> std::convertible_to<bool>;                  \
        }                                                                 \
    Uncertain<bool> operator symbol(const Uncertain<A>& a,               \
                                    const Uncertain<B>& b)                \
    {                                                                     \
        return core::liftBinary(core::ops::functor{}, a, b, label);       \
    }                                                                     \
    template <typename A, core::NotUncertain B>                           \
        requires requires(A a, B b) {                                     \
            { a symbol b } -> std::convertible_to<bool>;                  \
        }                                                                 \
    Uncertain<bool> operator symbol(const Uncertain<A>& a, const B& b)    \
    {                                                                     \
        return a symbol Uncertain<std::decay_t<B>>(b);                    \
    }                                                                     \
    template <core::NotUncertain A, typename B>                           \
        requires requires(A a, B b) {                                     \
            { a symbol b } -> std::convertible_to<bool>;                  \
        }                                                                 \
    Uncertain<bool> operator symbol(const A& a, const Uncertain<B>& b)    \
    {                                                                     \
        return Uncertain<std::decay_t<A>>(a) symbol b;                    \
    }

UNCERTAIN_DEFINE_COMPARE_OP(<, "<", Lt)
UNCERTAIN_DEFINE_COMPARE_OP(>, ">", Gt)
UNCERTAIN_DEFINE_COMPARE_OP(<=, "<=", Le)
UNCERTAIN_DEFINE_COMPARE_OP(>=, ">=", Ge)
UNCERTAIN_DEFINE_COMPARE_OP(==, "==", Eq)
UNCERTAIN_DEFINE_COMPARE_OP(!=, "!=", Ne)

#undef UNCERTAIN_DEFINE_BINARY_OP
#undef UNCERTAIN_DEFINE_COMPARE_OP

// ----------------------------------------------------------------------
// Logical operators on Uncertain<bool>. No short-circuiting: the
// joint event is evaluated per sampling pass.
// ----------------------------------------------------------------------

inline Uncertain<bool>
operator&&(const Uncertain<bool>& a, const Uncertain<bool>& b)
{
    return core::liftBinary(core::ops::And{}, a, b, "and");
}

inline Uncertain<bool>
operator&&(bool a, const Uncertain<bool>& b)
{
    return Uncertain<bool>(a) && b;
}

inline Uncertain<bool>
operator&&(const Uncertain<bool>& a, bool b)
{
    return a && Uncertain<bool>(b);
}

inline Uncertain<bool>
operator||(const Uncertain<bool>& a, const Uncertain<bool>& b)
{
    return core::liftBinary(core::ops::Or{}, a, b, "or");
}

inline Uncertain<bool>
operator||(bool a, const Uncertain<bool>& b)
{
    return Uncertain<bool>(a) || b;
}

inline Uncertain<bool>
operator||(const Uncertain<bool>& a, bool b)
{
    return a || Uncertain<bool>(b);
}

inline Uncertain<bool>
operator!(const Uncertain<bool>& a)
{
    return a.map(core::ops::Not{}, "not");
}

/** Unary negation of a numeric uncertain value. */
template <typename A>
    requires requires(A a) { -a; }
auto
operator-(const Uncertain<A>& a)
{
    return a.map(core::ops::Neg{}, "negate");
}

// ----------------------------------------------------------------------
// Equality helpers for continuous base types.
// ----------------------------------------------------------------------

/**
 * Tolerant equality: Pr[|a - b| <= halfWidth]. The usable analogue of
 * `==` for continuous variables (an exact equality event has
 * probability zero). With halfWidth = 0.5 this is "rounds to the
 * same integer" and matches the Game of Life birth rule
 * `NumLive == 3` for real-valued neighbor counts.
 */
template <typename A, typename B>
    requires requires(A a, B b) { a - b; }
Uncertain<bool>
approxEqual(const Uncertain<A>& a, const Uncertain<B>& b,
            double halfWidth)
{
    return core::liftBinary(
        [halfWidth](const A& x, const B& y) -> bool {
            return std::fabs(static_cast<double>(x - y)) <= halfWidth;
        },
        a, b, "approx==");
}

template <typename A, core::NotUncertain B>
    requires requires(A a, B b) { a - b; }
Uncertain<bool>
approxEqual(const Uncertain<A>& a, const B& b, double halfWidth)
{
    return approxEqual(a, Uncertain<std::decay_t<B>>(b), halfWidth);
}

} // namespace uncertain

#endif // UNCERTAIN_CORE_OPERATORS_HPP
