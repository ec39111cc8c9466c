/**
 * @file
 * Lifted math functions over uncertain values.
 *
 * Anything expressible as a pure function of base values lifts into
 * the algebra as an inner node ("a lifted operator may have any
 * type", section 3.3). This header provides the <cmath> vocabulary
 * so application code can write uncertain::sqrt(speed) instead of
 * spelling out map() calls.
 */

#ifndef UNCERTAIN_CORE_FUNCTIONS_HPP
#define UNCERTAIN_CORE_FUNCTIONS_HPP

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "core/operators.hpp"
#include "core/uncertain.hpp"

namespace uncertain {

#define UNCERTAIN_DEFINE_UNARY_FN(fn)                                  \
    template <typename A>                                              \
        requires requires(A a) { std::fn(a); }                         \
    auto fn(const Uncertain<A>& a)                                     \
    {                                                                  \
        return a.map([](const A& x) { return std::fn(x); }, #fn);      \
    }

UNCERTAIN_DEFINE_UNARY_FN(sqrt)
UNCERTAIN_DEFINE_UNARY_FN(cbrt)
UNCERTAIN_DEFINE_UNARY_FN(exp)
UNCERTAIN_DEFINE_UNARY_FN(log)
UNCERTAIN_DEFINE_UNARY_FN(log2)
UNCERTAIN_DEFINE_UNARY_FN(log10)
UNCERTAIN_DEFINE_UNARY_FN(sin)
UNCERTAIN_DEFINE_UNARY_FN(cos)
UNCERTAIN_DEFINE_UNARY_FN(tan)
UNCERTAIN_DEFINE_UNARY_FN(tanh)
UNCERTAIN_DEFINE_UNARY_FN(floor)
UNCERTAIN_DEFINE_UNARY_FN(ceil)
UNCERTAIN_DEFINE_UNARY_FN(round)
UNCERTAIN_DEFINE_UNARY_FN(fabs)

#undef UNCERTAIN_DEFINE_UNARY_FN

/** |x| for any type with std::abs support. A signed integer wraps
 *  like ops::Neg, so abs(MIN) is MIN instead of UB. */
template <typename A>
    requires requires(A a) { std::abs(a); }
auto
abs(const Uncertain<A>& a)
{
    return a.map(
        [](const A& x) {
            if constexpr (std::is_integral_v<A> && std::is_signed_v<A>)
                return x < 0 ? core::ops::Neg{}(x) : +x;
            else
                return std::abs(x);
        },
        "abs");
}

/** x^y with an uncertain base and plain exponent. */
template <typename A>
    requires requires(A a, double e) { std::pow(a, e); }
auto
pow(const Uncertain<A>& a, double exponent)
{
    return a.map(
        [exponent](const A& x) { return std::pow(x, exponent); },
        "pow");
}

/** x^y with both operands uncertain. */
template <typename A, typename B>
    requires requires(A a, B b) { std::pow(a, b); }
auto
pow(const Uncertain<A>& a, const Uncertain<B>& b)
{
    return core::liftBinary(
        [](const A& x, const B& y) { return std::pow(x, y); }, a, b,
        "pow");
}

/** Per-sample minimum of two uncertain values. The ops::Min functor
 *  spells out std::min's (y < x) ? y : x selection so the SIMD
 *  backend can reproduce it with a compare + blend. */
template <typename A>
Uncertain<A>
min(const Uncertain<A>& a, const Uncertain<A>& b)
{
    return core::liftBinary(core::ops::Min{}, a, b, "min");
}

/** Per-sample maximum of two uncertain values (std::max semantics). */
template <typename A>
Uncertain<A>
max(const Uncertain<A>& a, const Uncertain<A>& b)
{
    return core::liftBinary(core::ops::Max{}, a, b, "max");
}

/** Per-sample clamp into [lo, hi]. */
template <typename A>
Uncertain<A>
clamp(const Uncertain<A>& a, A lo, A hi)
{
    return a.map(
        [lo, hi](const A& x) { return std::clamp(x, lo, hi); },
        "clamp");
}

/** The event lo <= a <= hi (one shared draw per pass). */
template <typename A>
Uncertain<bool>
between(const Uncertain<A>& a, A lo, A hi)
{
    return a.map(
        [lo, hi](const A& x) -> bool { return x >= lo && x <= hi; },
        "between");
}

/**
 * Per-sample selection: cond ? ifTrue : ifFalse, lifted as a single
 * ternary node. Unlike a host-language ?: (which would force the
 * condition through a conditional *now*), select keeps the branch
 * inside the network: each sampling pass draws the condition once —
 * shared with any other use of it — and takes that pass's branch.
 * Both branches are sampled every pass (a lifted function, not
 * short-circuit control flow). Fully supported by the exact backend.
 */
template <typename A>
Uncertain<A>
select(const Uncertain<bool>& cond, const Uncertain<A>& ifTrue,
       const Uncertain<A>& ifFalse)
{
    return core::liftTernary(core::ops::Select{}, cond, ifTrue,
                             ifFalse, "select");
}

/** select() with a plain false-branch value. */
template <typename A, core::NotUncertain B>
    requires std::convertible_to<B, A>
Uncertain<A>
select(const Uncertain<bool>& cond, const Uncertain<A>& ifTrue,
       const B& ifFalse)
{
    return select(cond, ifTrue, Uncertain<A>(static_cast<A>(ifFalse)));
}

/** select() with a plain true-branch value. */
template <typename A, core::NotUncertain B>
    requires std::convertible_to<B, A>
Uncertain<A>
select(const Uncertain<bool>& cond, const B& ifTrue,
       const Uncertain<A>& ifFalse)
{
    return select(cond, Uncertain<A>(static_cast<A>(ifTrue)), ifFalse);
}

/** select() between two plain values. */
template <typename A>
Uncertain<A>
select(const Uncertain<bool>& cond, const A& ifTrue, const A& ifFalse)
{
    return select(cond, Uncertain<A>(ifTrue), Uncertain<A>(ifFalse));
}

} // namespace uncertain

#endif // UNCERTAIN_CORE_FUNCTIONS_HPP
