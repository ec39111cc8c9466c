/**
 * @file
 * Compile-time mapping from named operator functors (core/ops.hpp) to
 * the plan-level JIT's op vocabulary (core/jit/jit_compiler.hpp) —
 * the JIT analog of simd::VectorForm. batch_plan.hpp consults
 * OpFor<F, R, As...> while building a step: when the specialization
 * exists, the step record carries the jit::Op so a fused group made
 * entirely of such steps can be compiled into one native fragment.
 *
 * The table deliberately covers only what the emitter can lower with
 * bit-identical semantics: f64 arithmetic and ordered compares, i64
 * add/sub, bool logic, and f64 select. int32 ops are intentionally
 * absent — a group containing one refuses to JIT and falls back to
 * the SIMD/scalar strips, which the refused-group test relies on.
 */

#ifndef UNCERTAIN_CORE_JIT_JIT_FORM_HPP
#define UNCERTAIN_CORE_JIT_JIT_FORM_HPP

#include <cstdint>

#include "core/jit/jit_compiler.hpp"
#include "core/ops.hpp"

namespace uncertain {
namespace jit {

/** OpFor<F, R, As...>: does functor F applied to operand base types
 *  As... producing base type R have a JIT lowering? */
template <typename F, typename R, typename... As>
struct OpFor
{
    static constexpr bool available = false;
};

#define UNCERTAIN_FRAGMENT_OP(Functor, OpName, R, ...)                    \
    template <>                                                           \
    struct OpFor<core::ops::Functor, R, __VA_ARGS__>                      \
    {                                                                     \
        static constexpr bool available = true;                           \
        static constexpr Op op = Op::OpName;                              \
    }

UNCERTAIN_FRAGMENT_OP(Add, AddF64, double, double, double);
UNCERTAIN_FRAGMENT_OP(Sub, SubF64, double, double, double);
UNCERTAIN_FRAGMENT_OP(Mul, MulF64, double, double, double);
UNCERTAIN_FRAGMENT_OP(Div, DivF64, double, double, double);
UNCERTAIN_FRAGMENT_OP(Min, MinF64, double, double, double);
UNCERTAIN_FRAGMENT_OP(Max, MaxF64, double, double, double);
UNCERTAIN_FRAGMENT_OP(Neg, NegF64, double, double);

UNCERTAIN_FRAGMENT_OP(Lt, LtF64, bool, double, double);
UNCERTAIN_FRAGMENT_OP(Gt, GtF64, bool, double, double);
UNCERTAIN_FRAGMENT_OP(Le, LeF64, bool, double, double);
UNCERTAIN_FRAGMENT_OP(Ge, GeF64, bool, double, double);
UNCERTAIN_FRAGMENT_OP(Eq, EqF64, bool, double, double);
UNCERTAIN_FRAGMENT_OP(Ne, NeF64, bool, double, double);

UNCERTAIN_FRAGMENT_OP(Add, AddI64, std::int64_t, std::int64_t, std::int64_t);
UNCERTAIN_FRAGMENT_OP(Sub, SubI64, std::int64_t, std::int64_t, std::int64_t);

UNCERTAIN_FRAGMENT_OP(And, AndBool, bool, bool, bool);
UNCERTAIN_FRAGMENT_OP(Or, OrBool, bool, bool, bool);
UNCERTAIN_FRAGMENT_OP(Not, NotBool, bool, bool);

UNCERTAIN_FRAGMENT_OP(Select, SelectF64, double, bool, double, double);

#undef UNCERTAIN_FRAGMENT_OP

} // namespace jit
} // namespace uncertain

#endif // UNCERTAIN_CORE_JIT_JIT_FORM_HPP
