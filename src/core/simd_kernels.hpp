/**
 * @file
 * Declarations of the SIMD hot-path kernels and the runtime
 * CPU-feature dispatch behind them.
 *
 * This header (and its .cpp) is the bottom of the SIMD layer: it has
 * NO dependencies on the rest of the library — random/ (the
 * ziggurat) calls down into it, and core/simd.hpp
 * builds the plan-facing trait layer on top of it. It is compiled
 * into its own CMake target (uncertain_simd) with -ffp-contract=off
 * so that no kernel, scalar-emulation or vector, ever fuses a
 * mul+add into an FMA: that is what makes the vector paths
 * bit-identical to the scalar interpreter (see docs/API.md
 * "Execution backends" for the fp contract).
 *
 * There are two tiers: AVX2, and the portable scalar emulation that
 * is the reference. Every kernel takes an explicit Isa and runs the
 * AVX2 body only if the binary carries it AND the running CPU
 * supports it; otherwise (a pre-AVX2 x86-64 CPU, aarch64 and every
 * other non-x86-64 target, a -DUNCERTAIN_SIMD=OFF build) it runs the
 * scalar emulation. Passing Isa::Avx2 is therefore always safe;
 * tests use explicit Isa values to check lane-width parity,
 * production callers pass activeIsa().
 *
 * Element order is never changed and floating point is never
 * reassociated: a binary kernel computes out[i] = a[i] op b[i] with
 * one IEEE operation per element, exactly like the scalar loop, so
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
    Scalar = 0, //!< portable scalar emulation (always available)
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

// ---- fused elementwise strip kernels --------------------------------

/** Binary double -> double micro-ops with a vector form. */
enum class BinF64 : std::uint8_t { Add, Sub, Mul, Div, Min, Max };

/** Comparison predicates (shared by the f64 and i32 kernels). */
enum class Cmp : std::uint8_t { Lt, Gt, Le, Ge, Eq, Ne };

/** Binary int32 -> int32 micro-ops with a vector form. */
enum class BinI32 : std::uint8_t { Add, Sub, Mul, Min, Max };

/** Binary int64 -> int64 micro-ops with a vector form. */
enum class BinI64 : std::uint8_t { Add, Sub };

/** Logical micro-ops over 0/1 bytes (Store<bool>). */
enum class BoolOp : std::uint8_t { And, Or };

void binaryF64(Isa isa, BinF64 op, const double* a, const double* b,
               double* out, std::size_t n);

/**
 * Broadcast-constant forms of binaryF64: one operand is the same
 * value for every element, so the kernel keeps it in a register
 * instead of streaming a splatted column from L1. Bit-identical to
 * binaryF64 over a column filled with that value (same per-element
 * arithmetic, one fewer load stream). The fusion pass emits these
 * when an operand is a hoisted point-mass column.
 */
void binaryF64ConstB(Isa isa, BinF64 op, const double* a, double b,
                     double* out, std::size_t n);
void binaryF64ConstA(Isa isa, BinF64 op, double a, const double* b,
                     double* out, std::size_t n);

/** out[i] = (a[i] cmp b[i]) as a 0/1 byte (IEEE ordered compares:
 *  every predicate except Ne is false on NaN operands, Ne true). */
void compareF64(Isa isa, Cmp op, const double* a, const double* b,
                std::uint8_t* out, std::size_t n);

void binaryI32(Isa isa, BinI32 op, const std::int32_t* a,
               const std::int32_t* b, std::int32_t* out, std::size_t n);

void compareI32(Isa isa, Cmp op, const std::int32_t* a,
                const std::int32_t* b, std::uint8_t* out,
                std::size_t n);

void binaryI64(Isa isa, BinI64 op, const std::int64_t* a,
               const std::int64_t* b, std::int64_t* out, std::size_t n);

/** out[i] = a[i] op b[i] over 0/1 bytes. */
void boolBinary(Isa isa, BoolOp op, const std::uint8_t* a,
                const std::uint8_t* b, std::uint8_t* out,
                std::size_t n);

/** out[i] = a[i] == 0 ? 1 : 0 (logical not over 0/1 bytes). */
void boolNot(Isa isa, const std::uint8_t* a, std::uint8_t* out,
             std::size_t n);

/** out[i] = -a[i] (sign-bit flip; bit-exact for NaN and +-0). */
void negF64(Isa isa, const double* a, double* out, std::size_t n);

/** out[i] = c[i] ? x[i] : y[i] with c a 0/1 byte column. */
void selectF64(Isa isa, const std::uint8_t* c, const double* x,
               const double* y, double* out, std::size_t n);

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
