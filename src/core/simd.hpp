/**
 * @file
 * Plan-facing SIMD layer: the execution-backend selector and the
 * compile-time mapping from named operator functors (core/ops.hpp)
 * to the vector kernels in core/simd_kernels.hpp.
 *
 * batch_plan.hpp consults VectorForm<F, R, As...> while building a
 * step: when the specialization for the step's functor and operand
 * types exists, the step gains an alternative strip micro-op that
 * processes whole lanes through simd_kernels; otherwise the scalar
 * strip loop stands. The trait is pure type-level — it never
 * instantiates F — so lifted operators over user-defined base types
 * are untouched.
 *
 * The kernels this maps onto are bit-identical to the scalar loops
 * (no FMA contraction, no reassociation, compare+blend Min/Max; see
 * simd_kernels.hpp), which is what lets the plan switch backends
 * without changing a single output bit.
 */

#ifndef UNCERTAIN_CORE_SIMD_HPP
#define UNCERTAIN_CORE_SIMD_HPP

#include <cstddef>
#include <cstdint>

#include "core/ops.hpp"
#include "core/simd_kernels.hpp"

namespace uncertain {
namespace simd {

/**
 * Which strip implementation a compiled plan uses. The running CPU
 * picks the code under Auto; Simd and Scalar override it per plan.
 *
 * - Auto:   compile fused elementwise groups to native fragments when
 *           the plan-level JIT is available (jit::available()), else
 *           vectorize when activeIsa() reports AVX2, else compile the
 *           scalar strips. A group the fragment emitter refuses
 *           (e.g. an int32 op) runs the SIMD strips instead — the
 *           fallback order is always jit -> simd -> scalar,
 *           bit-identical at every rung.
 * - Simd:   always route vectorizable strips through the kernel
 *           layer. Safe on any machine — without AVX2 the kernels
 *           run their scalar emulation — so tests can exercise the
 *           SIMD code path everywhere.
 * - Scalar: always the plain scalar interpreter strips.
 */
enum class ExecBackend : std::uint8_t
{
    Auto = 0,
    Simd = 1,
    Scalar = 2,
};

/** Human-readable backend name ("auto", "simd", "scalar"). */
inline const char*
backendName(ExecBackend backend)
{
    switch (backend) {
    case ExecBackend::Simd: return "simd";
    case ExecBackend::Scalar: return "scalar";
    case ExecBackend::Auto: break;
    }
    return "auto";
}

/**
 * VectorForm<F, R, As...>: does functor F applied to operand base
 * types As... producing base type R have a vector kernel? The
 * primary template says no; each specialization below wires one
 * (functor, signature) pair to a kernel. `run` takes column/register
 * pointers in *storage* types (bool columns store uint8_t bytes).
 */
template <typename F, typename R, typename... As>
struct VectorForm
{
    static constexpr bool available = false;
};

// ---- double arithmetic ----------------------------------------------

#define UNCERTAIN_SIMD_BIN_F64(Functor, Kernel)                          \
    template <>                                                          \
    struct VectorForm<core::ops::Functor, double, double, double>        \
    {                                                                    \
        static constexpr bool available = true;                          \
        static void                                                      \
        run(Isa isa, const double* a, const double* b, double* out,      \
            std::size_t n)                                               \
        {                                                                \
            binaryF64(isa, BinF64::Kernel, a, b, out, n);                \
        }                                                                \
        /* Broadcast-constant forms: one operand is a point mass, so  */ \
        /* the kernel holds it in a register instead of streaming a   */ \
        /* splatted column. Same arithmetic, one fewer load stream.   */ \
        static void                                                      \
        runConstB(Isa isa, const double* a, double b, double* out,       \
                  std::size_t n)                                         \
        {                                                                \
            binaryF64ConstB(isa, BinF64::Kernel, a, b, out, n);          \
        }                                                                \
        static void                                                      \
        runConstA(Isa isa, double a, const double* b, double* out,       \
                  std::size_t n)                                         \
        {                                                                \
            binaryF64ConstA(isa, BinF64::Kernel, a, b, out, n);          \
        }                                                                \
    }

UNCERTAIN_SIMD_BIN_F64(Add, Add);
UNCERTAIN_SIMD_BIN_F64(Sub, Sub);
UNCERTAIN_SIMD_BIN_F64(Mul, Mul);
UNCERTAIN_SIMD_BIN_F64(Div, Div);
UNCERTAIN_SIMD_BIN_F64(Min, Min);
UNCERTAIN_SIMD_BIN_F64(Max, Max);

#undef UNCERTAIN_SIMD_BIN_F64

template <>
struct VectorForm<core::ops::Neg, double, double>
{
    static constexpr bool available = true;
    static void
    run(Isa isa, const double* a, double* out, std::size_t n)
    {
        negF64(isa, a, out, n);
    }
};

// ---- double comparisons (bool columns store 0/1 bytes) --------------

#define UNCERTAIN_SIMD_CMP_F64(Functor, Pred)                            \
    template <>                                                          \
    struct VectorForm<core::ops::Functor, bool, double, double>          \
    {                                                                    \
        static constexpr bool available = true;                          \
        static void                                                      \
        run(Isa isa, const double* a, const double* b,                   \
            std::uint8_t* out, std::size_t n)                            \
        {                                                                \
            compareF64(isa, Cmp::Pred, a, b, out, n);                    \
        }                                                                \
    }

UNCERTAIN_SIMD_CMP_F64(Lt, Lt);
UNCERTAIN_SIMD_CMP_F64(Gt, Gt);
UNCERTAIN_SIMD_CMP_F64(Le, Le);
UNCERTAIN_SIMD_CMP_F64(Ge, Ge);
UNCERTAIN_SIMD_CMP_F64(Eq, Eq);
UNCERTAIN_SIMD_CMP_F64(Ne, Ne);

#undef UNCERTAIN_SIMD_CMP_F64

// ---- int32 arithmetic and comparisons -------------------------------

#define UNCERTAIN_SIMD_BIN_I32(Functor, Kernel)                          \
    template <>                                                          \
    struct VectorForm<core::ops::Functor, std::int32_t, std::int32_t,    \
                      std::int32_t>                                      \
    {                                                                    \
        static constexpr bool available = true;                          \
        static void                                                      \
        run(Isa isa, const std::int32_t* a, const std::int32_t* b,       \
            std::int32_t* out, std::size_t n)                            \
        {                                                                \
            binaryI32(isa, BinI32::Kernel, a, b, out, n);                \
        }                                                                \
    }

UNCERTAIN_SIMD_BIN_I32(Add, Add);
UNCERTAIN_SIMD_BIN_I32(Sub, Sub);
UNCERTAIN_SIMD_BIN_I32(Mul, Mul);
UNCERTAIN_SIMD_BIN_I32(Min, Min);
UNCERTAIN_SIMD_BIN_I32(Max, Max);

#undef UNCERTAIN_SIMD_BIN_I32

#define UNCERTAIN_SIMD_CMP_I32(Functor, Pred)                            \
    template <>                                                          \
    struct VectorForm<core::ops::Functor, bool, std::int32_t,            \
                      std::int32_t>                                      \
    {                                                                    \
        static constexpr bool available = true;                          \
        static void                                                      \
        run(Isa isa, const std::int32_t* a, const std::int32_t* b,       \
            std::uint8_t* out, std::size_t n)                            \
        {                                                                \
            compareI32(isa, Cmp::Pred, a, b, out, n);                    \
        }                                                                \
    }

UNCERTAIN_SIMD_CMP_I32(Lt, Lt);
UNCERTAIN_SIMD_CMP_I32(Gt, Gt);
UNCERTAIN_SIMD_CMP_I32(Le, Le);
UNCERTAIN_SIMD_CMP_I32(Ge, Ge);
UNCERTAIN_SIMD_CMP_I32(Eq, Eq);
UNCERTAIN_SIMD_CMP_I32(Ne, Ne);

#undef UNCERTAIN_SIMD_CMP_I32

// ---- int64 arithmetic -----------------------------------------------

#define UNCERTAIN_SIMD_BIN_I64(Functor, Kernel)                          \
    template <>                                                          \
    struct VectorForm<core::ops::Functor, std::int64_t, std::int64_t,    \
                      std::int64_t>                                      \
    {                                                                    \
        static constexpr bool available = true;                          \
        static void                                                      \
        run(Isa isa, const std::int64_t* a, const std::int64_t* b,       \
            std::int64_t* out, std::size_t n)                            \
        {                                                                \
            binaryI64(isa, BinI64::Kernel, a, b, out, n);                \
        }                                                                \
    }

UNCERTAIN_SIMD_BIN_I64(Add, Add);
UNCERTAIN_SIMD_BIN_I64(Sub, Sub);

#undef UNCERTAIN_SIMD_BIN_I64

// ---- logical --------------------------------------------------------

template <>
struct VectorForm<core::ops::And, bool, bool, bool>
{
    static constexpr bool available = true;
    static void
    run(Isa isa, const std::uint8_t* a, const std::uint8_t* b,
        std::uint8_t* out, std::size_t n)
    {
        boolBinary(isa, BoolOp::And, a, b, out, n);
    }
};

template <>
struct VectorForm<core::ops::Or, bool, bool, bool>
{
    static constexpr bool available = true;
    static void
    run(Isa isa, const std::uint8_t* a, const std::uint8_t* b,
        std::uint8_t* out, std::size_t n)
    {
        boolBinary(isa, BoolOp::Or, a, b, out, n);
    }
};

template <>
struct VectorForm<core::ops::Not, bool, bool>
{
    static constexpr bool available = true;
    static void
    run(Isa isa, const std::uint8_t* a, std::uint8_t* out,
        std::size_t n)
    {
        boolNot(isa, a, out, n);
    }
};

// ---- ternary selection ----------------------------------------------

template <>
struct VectorForm<core::ops::Select, double, bool, double, double>
{
    static constexpr bool available = true;
    static void
    run(Isa isa, const std::uint8_t* c, const double* x,
        const double* y, double* out, std::size_t n)
    {
        selectF64(isa, c, x, y, out, n);
    }
};

} // namespace simd
} // namespace uncertain

#endif // UNCERTAIN_CORE_SIMD_HPP
