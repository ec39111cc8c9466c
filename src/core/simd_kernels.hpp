/**
 * @file
 * The kernel layer: the native-op table, the elementwise kernels that
 * run it, the ziggurat accept pass, and the runtime CPU-feature
 * dispatch behind them.
 *
 * This header (and its .cpp) is the bottom of the SIMD layer: it
 * links against nothing else in the library — random/ (the
 * ziggurat) calls down into it, the plan (core/simd.hpp,
 * core/batch_plan.hpp) and the JIT (core/jit/) build on it. Its only
 * include from the library is the header-only core/ops.hpp, in the
 * .cpp. It is compiled into its own CMake target (uncertain_simd)
 * with -ffp-contract=off so that no kernel, scalar or vector, ever
 * fuses a mul+add into an FMA: that is what makes the vector paths
 * bit-identical to the scalar interpreter (see docs/API.md
 * "Execution backends" for the fp contract).
 *
 * There are two rungs: AVX2, and the scalar rung that is the
 * reference. Every kernel takes an explicit Isa and runs the AVX2
 * body only if the binary carries it AND the running CPU supports
 * it; otherwise (a pre-AVX2 x86-64 CPU, aarch64 and every other
 * non-x86-64 target, a -DUNCERTAIN_SIMD=OFF build) it runs the
 * scalar rung. Passing Isa::Avx2 is therefore always safe; tests use
 * explicit Isa values to check lane-width parity, production callers
 * pass activeIsa().
 *
 * Element order is never changed and floating point is never
 * reassociated: a kernel computes out[i] = op(a[i], b[i]) with one
 * IEEE operation per element, exactly like the scalar loop, so
 * results are bit-identical across Isa values — including NaN
 * propagation and signed zeros (Min/Max are implemented as
 * compare+blend reproducing (y < x) ? y : x, not as vminpd, whose
 * NaN convention differs).
 */

#ifndef UNCERTAIN_CORE_SIMD_KERNELS_HPP
#define UNCERTAIN_CORE_SIMD_KERNELS_HPP

#include <cstddef>
#include <cstdint>

namespace uncertain {
namespace simd {

/** Instruction sets the dispatcher knows about, weakest first. */
enum class Isa : std::uint8_t
{
    Scalar = 0, //!< the portable scalar rung (always available)
    Avx2 = 1,   //!< 4 x double / 4 x u64 packs + gathers (x86-64)
};

/**
 * The Isa kernels execute for production callers: Avx2 when this
 * binary carries the AVX2 bodies and the running CPU supports them,
 * else Scalar. Detected once per process and never changes after,
 * so plans and caches may resolve against it once. This is what
 * PlanOptions::backend == Auto resolves against.
 */
Isa activeIsa();

/** Doubles per vector register a call with @p isa runs at: 4 if
 *  it runs the AVX2 body, else 1. */
std::size_t laneWidth(Isa isa);

/** Human-readable name ("scalar", "avx2"). */
const char* isaName(Isa isa);

// ---- the native-op table ---------------------------------------------

/**
 * Every (functor, signature) pair with a native lowering, one row
 * each: X(Op name, core::ops functor, result type, operand types...).
 * Types are base types; a bool column stores 0/1 bytes. This list is
 * the one functor -> Op table. The Op enum below, the plan's lookup
 * (simd::nativeOp in core/simd.hpp) and the kernels' scalar rung are
 * all expanded from it. The SIMD kernels cover every row; the JIT
 * emitter (core/jit/jit_compiler.cpp) refuses the int32 rows, which
 * then run the SIMD strips.
 */
#define UNCERTAIN_NATIVE_OPS(X)                                          \
    X(AddF64, Add, double, double, double)                               \
    X(SubF64, Sub, double, double, double)                               \
    X(MulF64, Mul, double, double, double)                               \
    X(DivF64, Div, double, double, double)                               \
    X(MinF64, Min, double, double, double)                               \
    X(MaxF64, Max, double, double, double)                               \
    X(NegF64, Neg, double, double)                                       \
    X(LtF64, Lt, bool, double, double)                                   \
    X(GtF64, Gt, bool, double, double)                                   \
    X(LeF64, Le, bool, double, double)                                   \
    X(GeF64, Ge, bool, double, double)                                   \
    X(EqF64, Eq, bool, double, double)                                   \
    X(NeF64, Ne, bool, double, double)                                   \
    X(AddI64, Add, std::int64_t, std::int64_t, std::int64_t)             \
    X(SubI64, Sub, std::int64_t, std::int64_t, std::int64_t)             \
    X(AndBool, And, bool, bool, bool)                                    \
    X(OrBool, Or, bool, bool, bool)                                      \
    X(NotBool, Not, bool, bool)                                          \
    X(SelectF64, Select, double, bool, double, double)                   \
    X(AddI32, Add, std::int32_t, std::int32_t, std::int32_t)             \
    X(SubI32, Sub, std::int32_t, std::int32_t, std::int32_t)             \
    X(MulI32, Mul, std::int32_t, std::int32_t, std::int32_t)             \
    X(MinI32, Min, std::int32_t, std::int32_t, std::int32_t)             \
    X(MaxI32, Max, std::int32_t, std::int32_t, std::int32_t)             \
    X(LtI32, Lt, bool, std::int32_t, std::int32_t)                       \
    X(GtI32, Gt, bool, std::int32_t, std::int32_t)                       \
    X(LeI32, Le, bool, std::int32_t, std::int32_t)                       \
    X(GeI32, Ge, bool, std::int32_t, std::int32_t)                       \
    X(EqI32, Eq, bool, std::int32_t, std::int32_t)                       \
    X(NeI32, Ne, bool, std::int32_t, std::int32_t)

/** One enumerator per row of UNCERTAIN_NATIVE_OPS, in row order. */
enum class Op : std::uint8_t
{
#define UNCERTAIN_OP_ENUMERATOR(name, ...) name,
    UNCERTAIN_NATIVE_OPS(UNCERTAIN_OP_ENUMERATOR)
#undef UNCERTAIN_OP_ENUMERATOR
};

/** One source operand of an elementwise call. */
struct Src
{
    /** n elements in the operand's column type; always valid. */
    const void* column = nullptr;
    /**
     * When every element of the column holds one value: that value's
     * bytes (no alignment required). A kernel may broadcast it from a
     * register instead of streaming the column; the f64 arithmetic
     * kernels do, with the same arithmetic per element.
     */
    const void* splat = nullptr;
};

/**
 * out[i] = op(srcs[0][i], ...) for i in [0, n), with as many srcs as
 * the op's row has operands. The AVX2 rung runs whole packs where
 * @p isa asks for it and the CPU has it; the scalar rung runs the
 * rest, and everything elsewhere: the core::ops functor loop
 * (ops::applyLoop), the loop the interpreter strips run. Both rungs
 * give the same bits (Min/Max compare+blend, ordered compares,
 * wrapping integer arithmetic, one IEEE operation per element).
 */
void elementwise(Isa isa, Op op, const Src* srcs, void* out,
                 std::size_t n);

// ---- ziggurat Gaussian fast-accept pass ------------------------------

/**
 * The common-case layer of the Marsaglia-Tsang ziggurat over @p n
 * pre-drawn 64-bit words: for each word, compute hz (low 32 bits as
 * int32), iz = hz & 127, and on the ~97.7% fast path write
 * out[i] = mu + sigma * (double(hz) * wn[iz]). Indices whose |hz|
 * fails the kn[iz] acceptance test are appended to @p rejects
 * (caller-allocated, capacity >= n) in ascending order; their out
 * slot holds an unspecified value (the vector path stores whole
 * packs) until overwritten — the caller runs the scalar tail/wedge
 * fix-up for them in that order, which reproduces the scalar loop's
 * Rng consumption sequence exactly. Returns the reject count.
 *
 * kn/wn are the 128-entry ziggurat tables (random/gaussian.cpp owns
 * them; this layer just reads). Accepted values are bit-identical
 * to the scalar path: double(hz) and the int32 magnitude test are
 * exact, wn[iz] is fetched (gathered) unmodified, and the
 * mu + sigma * x polynomial is evaluated mul-then-add with no FMA
 * contraction on either path.
 */
std::size_t zigguratAccept(Isa isa, const std::uint64_t* words,
                           std::size_t n, const std::uint32_t* kn,
                           const double* wn, double mu, double sigma,
                           double* out, std::uint32_t* rejects);

} // namespace simd
} // namespace uncertain

#endif // UNCERTAIN_CORE_SIMD_KERNELS_HPP
