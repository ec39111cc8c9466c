/**
 * @file
 * SIMD kernel implementations and runtime CPU-feature dispatch.
 *
 * Layout: one portable scalar-emulation function per kernel (the
 * reference semantics, and the body every other path must match
 * bit-for-bit), plus an AVX2 specialization guarded by
 * function-level target attributes so the translation unit itself
 * stays baseline-encodable — the AVX2 bodies are only ever entered
 * after __builtin_cpu_supports("avx2") says the instructions exist.
 * Every other target (a pre-AVX2 x86-64 CPU, aarch64, a
 * -DUNCERTAIN_SIMD=OFF build) runs the scalar emulation.
 *
 * This TU is compiled with -ffp-contract=off (see src/core/
 * CMakeLists.txt): neither the emulation loops nor the tails may
 * fuse mul+add into FMA, because the explicit vector code uses
 * separate mul and add instructions and the two must round
 * identically.
 */

#include "core/simd_kernels.hpp"

#include <cstring>
#include <type_traits>

#if !defined(UNCERTAIN_SIMD_DISABLED) && defined(__GNUC__) \
    && (defined(__x86_64__) || defined(__i386__) || defined(_M_X64))
#define UNCERTAIN_SIMD_X86 1
#include <immintrin.h>
#define UNCERTAIN_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace uncertain {
namespace simd {

namespace {

Isa
detectIsaOnce()
{
#if defined(UNCERTAIN_SIMD_X86)
    if (__builtin_cpu_supports("avx2"))
        return Isa::Avx2;
#endif
    return Isa::Scalar;
}

/** Does a call made with @p isa run the AVX2 body? Only if it asked
 *  for AVX2 and the binary and the CPU both have it (activeIsa() is
 *  Scalar whenever the AVX2 code is compiled out). */
bool
runsAvx2(Isa isa)
{
    return isa == Isa::Avx2 && activeIsa() == Isa::Avx2;
}

// =====================================================================
// Scalar emulation: the reference semantics for every kernel.
// =====================================================================

// Integer add/sub/mul wrap modulo 2^width, which is what the vector
// instructions compute. Signed overflow is UB in C++, so the scalar
// bodies (and the vector paths' tails) do the arithmetic unsigned.
template <typename S>
inline S
wrapAdd(S a, S b)
{
    using U = std::make_unsigned_t<S>;
    return static_cast<S>(static_cast<U>(a) + static_cast<U>(b));
}

template <typename S>
inline S
wrapSub(S a, S b)
{
    using U = std::make_unsigned_t<S>;
    return static_cast<S>(static_cast<U>(a) - static_cast<U>(b));
}

template <typename S>
inline S
wrapMul(S a, S b)
{
    using U = std::make_unsigned_t<S>;
    return static_cast<S>(static_cast<U>(a) * static_cast<U>(b));
}

void
binaryF64Scalar(BinF64 op, const double* a, const double* b,
                double* out, std::size_t n)
{
    switch (op) {
    case BinF64::Add:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] + b[i];
        break;
    case BinF64::Sub:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] - b[i];
        break;
    case BinF64::Mul:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * b[i];
        break;
    case BinF64::Div:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] / b[i];
        break;
    case BinF64::Min: // ops::Min: (y < x) ? y : x
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (b[i] < a[i]) ? b[i] : a[i];
        break;
    case BinF64::Max: // ops::Max: (x < y) ? y : x
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (a[i] < b[i]) ? b[i] : a[i];
        break;
    }
}

void
binaryF64ConstBScalar(BinF64 op, const double* a, double b,
                      double* out, std::size_t n)
{
    switch (op) {
    case BinF64::Add:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] + b;
        break;
    case BinF64::Sub:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] - b;
        break;
    case BinF64::Mul:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * b;
        break;
    case BinF64::Div:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] / b;
        break;
    case BinF64::Min:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (b < a[i]) ? b : a[i];
        break;
    case BinF64::Max:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (a[i] < b) ? b : a[i];
        break;
    }
}

void
binaryF64ConstAScalar(BinF64 op, double a, const double* b,
                      double* out, std::size_t n)
{
    switch (op) {
    case BinF64::Add:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a + b[i];
        break;
    case BinF64::Sub:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a - b[i];
        break;
    case BinF64::Mul:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a * b[i];
        break;
    case BinF64::Div:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a / b[i];
        break;
    case BinF64::Min:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (b[i] < a) ? b[i] : a;
        break;
    case BinF64::Max:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (a < b[i]) ? b[i] : a;
        break;
    }
}

void
compareF64Scalar(Cmp op, const double* a, const double* b,
                 std::uint8_t* out, std::size_t n)
{
    switch (op) {
    case Cmp::Lt:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] < b[i] ? 1 : 0;
        break;
    case Cmp::Gt:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] > b[i] ? 1 : 0;
        break;
    case Cmp::Le:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] <= b[i] ? 1 : 0;
        break;
    case Cmp::Ge:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] >= b[i] ? 1 : 0;
        break;
    case Cmp::Eq:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] == b[i] ? 1 : 0;
        break;
    case Cmp::Ne:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] != b[i] ? 1 : 0;
        break;
    }
}

void
binaryI32Scalar(BinI32 op, const std::int32_t* a, const std::int32_t* b,
                std::int32_t* out, std::size_t n)
{
    switch (op) {
    case BinI32::Add:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = wrapAdd(a[i], b[i]);
        break;
    case BinI32::Sub:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = wrapSub(a[i], b[i]);
        break;
    case BinI32::Mul:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = wrapMul(a[i], b[i]);
        break;
    case BinI32::Min:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (b[i] < a[i]) ? b[i] : a[i];
        break;
    case BinI32::Max:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (a[i] < b[i]) ? b[i] : a[i];
        break;
    }
}

void
compareI32Scalar(Cmp op, const std::int32_t* a, const std::int32_t* b,
                 std::uint8_t* out, std::size_t n)
{
    switch (op) {
    case Cmp::Lt:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] < b[i] ? 1 : 0;
        break;
    case Cmp::Gt:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] > b[i] ? 1 : 0;
        break;
    case Cmp::Le:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] <= b[i] ? 1 : 0;
        break;
    case Cmp::Ge:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] >= b[i] ? 1 : 0;
        break;
    case Cmp::Eq:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] == b[i] ? 1 : 0;
        break;
    case Cmp::Ne:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] != b[i] ? 1 : 0;
        break;
    }
}

void
binaryI64Scalar(BinI64 op, const std::int64_t* a, const std::int64_t* b,
                std::int64_t* out, std::size_t n)
{
    switch (op) {
    case BinI64::Add:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = wrapAdd(a[i], b[i]);
        break;
    case BinI64::Sub:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = wrapSub(a[i], b[i]);
        break;
    }
}

void
boolBinaryScalar(BoolOp op, const std::uint8_t* a, const std::uint8_t* b,
                 std::uint8_t* out, std::size_t n)
{
    // Columns hold 0/1 bytes, so & and | coincide with && and ||.
    if (op == BoolOp::And) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] & b[i];
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] | b[i];
    }
}

void
boolNotScalar(const std::uint8_t* a, std::uint8_t* out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = a[i] == 0 ? 1 : 0;
}

void
negF64Scalar(const double* a, double* out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = -a[i];
}

void
selectF64Scalar(const std::uint8_t* c, const double* x, const double* y,
                double* out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = c[i] ? x[i] : y[i];
}

/** Scalar ziggurat accept over words [i0, n), appending rejects. */
std::size_t
zigguratAcceptScalar(const std::uint64_t* words, std::size_t i0,
                     std::size_t n, const std::uint32_t* kn,
                     const double* wn, double mu, double sigma,
                     double* out, std::uint32_t* rejects,
                     std::size_t nRejects)
{
    for (std::size_t i = i0; i < n; ++i) {
        const auto hz = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(words[i]));
        const std::uint32_t iz = static_cast<std::uint32_t>(hz) & 127u;
        // Magnitude via unsigned negation: |INT32_MIN| overflows int.
        const std::uint32_t mag =
            hz < 0 ? ~static_cast<std::uint32_t>(hz) + 1u
                   : static_cast<std::uint32_t>(hz);
        if (mag < kn[iz])
            out[i] = mu + sigma * (static_cast<double>(hz) * wn[iz]);
        else
            rejects[nRejects++] = static_cast<std::uint32_t>(i);
    }
    return nRejects;
}

// =====================================================================
// AVX2: 4-lane double / u64 packs, gathers. Entered only after
// runtime detection; the target attribute keeps the rest of the TU
// baseline-encodable.
// =====================================================================

#if defined(UNCERTAIN_SIMD_X86)

// Op dispatch happens ONCE per strip, never per iteration: each op
// gets its own tight loop via a template parameter. A `switch (op)`
// inside the vector loop measured ~3.5x slower on the mul strip —
// GCC cannot loop-unswitch across intrinsics, so the per-iteration
// dispatch survives into the hot loop. (The scalar emulation kernels
// above hoist the switch by hand for the same reason.)

/** One 4-lane pack of a BinF64 op (shared by the column and
 *  broadcast-constant loops below). */
template <BinF64 Op>
UNCERTAIN_TARGET_AVX2 inline __m256d
binF64PackAvx2(__m256d va, __m256d vb)
{
    if constexpr (Op == BinF64::Add)
        return _mm256_add_pd(va, vb);
    else if constexpr (Op == BinF64::Sub)
        return _mm256_sub_pd(va, vb);
    else if constexpr (Op == BinF64::Mul)
        return _mm256_mul_pd(va, vb);
    else if constexpr (Op == BinF64::Div)
        return _mm256_div_pd(va, vb);
    else if constexpr (Op == BinF64::Min)
        // (b < a) ? b : a — compare+blend, NOT minpd (whose NaN
        // and -0.0 conventions differ from the scalar ternary).
        return _mm256_blendv_pd(va, vb,
                                _mm256_cmp_pd(vb, va, _CMP_LT_OQ));
    else {
        static_assert(Op == BinF64::Max);
        return _mm256_blendv_pd(va, vb,
                                _mm256_cmp_pd(va, vb, _CMP_LT_OQ));
    }
}

// The f64 loops are unrolled 4x (16 elements per iteration): at one
// pack per iteration the loop bookkeeping is as many uops as the
// work, and on a 4-wide core that caps throughput at ~1 cycle per
// pack; unrolling measured ~1.3-1.7x on the 256-element strips the
// fused kernels issue.
template <BinF64 Op>
UNCERTAIN_TARGET_AVX2 void
binaryF64Avx2Loop(const double* a, const double* b, double* out,
                  std::size_t n4)
{
    std::size_t i = 0;
    for (; i + 16 <= n4; i += 16) {
        _mm256_storeu_pd(out + i,
                         binF64PackAvx2<Op>(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
        _mm256_storeu_pd(
            out + i + 4, binF64PackAvx2<Op>(_mm256_loadu_pd(a + i + 4),
                                            _mm256_loadu_pd(b + i + 4)));
        _mm256_storeu_pd(
            out + i + 8, binF64PackAvx2<Op>(_mm256_loadu_pd(a + i + 8),
                                            _mm256_loadu_pd(b + i + 8)));
        _mm256_storeu_pd(out + i + 12,
                         binF64PackAvx2<Op>(
                             _mm256_loadu_pd(a + i + 12),
                             _mm256_loadu_pd(b + i + 12)));
    }
    for (; i < n4; i += 4)
        _mm256_storeu_pd(out + i,
                         binF64PackAvx2<Op>(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
}

UNCERTAIN_TARGET_AVX2 void
binaryF64Avx2(BinF64 op, const double* a, const double* b, double* out,
              std::size_t n)
{
    const std::size_t n4 = n & ~std::size_t{3};
    switch (op) {
    case BinF64::Add: binaryF64Avx2Loop<BinF64::Add>(a, b, out, n4); break;
    case BinF64::Sub: binaryF64Avx2Loop<BinF64::Sub>(a, b, out, n4); break;
    case BinF64::Mul: binaryF64Avx2Loop<BinF64::Mul>(a, b, out, n4); break;
    case BinF64::Div: binaryF64Avx2Loop<BinF64::Div>(a, b, out, n4); break;
    case BinF64::Min: binaryF64Avx2Loop<BinF64::Min>(a, b, out, n4); break;
    case BinF64::Max: binaryF64Avx2Loop<BinF64::Max>(a, b, out, n4); break;
    }
    if (n4 < n)
        binaryF64Scalar(op, a + n4, b + n4, out + n4, n - n4);
}

/** Pack helper with the constant on the side ConstOnB selects. */
template <BinF64 Op, bool ConstOnB>
UNCERTAIN_TARGET_AVX2 inline __m256d
binF64ConstPackAvx2(__m256d vcol, __m256d vc)
{
    if constexpr (ConstOnB)
        return binF64PackAvx2<Op>(vcol, vc);
    else
        return binF64PackAvx2<Op>(vc, vcol);
}

template <BinF64 Op, bool ConstOnB>
UNCERTAIN_TARGET_AVX2 void
binaryF64ConstAvx2Loop(const double* col, double c, double* out,
                       std::size_t n4)
{
    const __m256d vc = _mm256_set1_pd(c);
    std::size_t i = 0;
    for (; i + 16 <= n4; i += 16) {
        _mm256_storeu_pd(out + i,
                         binF64ConstPackAvx2<Op, ConstOnB>(
                             _mm256_loadu_pd(col + i), vc));
        _mm256_storeu_pd(out + i + 4,
                         binF64ConstPackAvx2<Op, ConstOnB>(
                             _mm256_loadu_pd(col + i + 4), vc));
        _mm256_storeu_pd(out + i + 8,
                         binF64ConstPackAvx2<Op, ConstOnB>(
                             _mm256_loadu_pd(col + i + 8), vc));
        _mm256_storeu_pd(out + i + 12,
                         binF64ConstPackAvx2<Op, ConstOnB>(
                             _mm256_loadu_pd(col + i + 12), vc));
    }
    for (; i < n4; i += 4)
        _mm256_storeu_pd(out + i,
                         binF64ConstPackAvx2<Op, ConstOnB>(
                             _mm256_loadu_pd(col + i), vc));
}

template <bool ConstOnB>
UNCERTAIN_TARGET_AVX2 void
binaryF64ConstAvx2(BinF64 op, const double* col, double c, double* out,
                   std::size_t n)
{
    const std::size_t n4 = n & ~std::size_t{3};
    switch (op) {
    case BinF64::Add:
        binaryF64ConstAvx2Loop<BinF64::Add, ConstOnB>(col, c, out, n4);
        break;
    case BinF64::Sub:
        binaryF64ConstAvx2Loop<BinF64::Sub, ConstOnB>(col, c, out, n4);
        break;
    case BinF64::Mul:
        binaryF64ConstAvx2Loop<BinF64::Mul, ConstOnB>(col, c, out, n4);
        break;
    case BinF64::Div:
        binaryF64ConstAvx2Loop<BinF64::Div, ConstOnB>(col, c, out, n4);
        break;
    case BinF64::Min:
        binaryF64ConstAvx2Loop<BinF64::Min, ConstOnB>(col, c, out, n4);
        break;
    case BinF64::Max:
        binaryF64ConstAvx2Loop<BinF64::Max, ConstOnB>(col, c, out, n4);
        break;
    }
    if (n4 < n) {
        if constexpr (ConstOnB)
            binaryF64ConstBScalar(op, col + n4, c, out + n4, n - n4);
        else
            binaryF64ConstAScalar(op, c, col + n4, out + n4, n - n4);
    }
}

template <Cmp Op>
UNCERTAIN_TARGET_AVX2 void
compareF64Avx2Loop(const double* a, const double* b, std::uint8_t* out,
                   std::size_t n4)
{
    for (std::size_t i = 0; i < n4; i += 4) {
        const __m256d va = _mm256_loadu_pd(a + i);
        const __m256d vb = _mm256_loadu_pd(b + i);
        __m256d m;
        if constexpr (Op == Cmp::Lt)
            m = _mm256_cmp_pd(va, vb, _CMP_LT_OQ);
        else if constexpr (Op == Cmp::Gt)
            m = _mm256_cmp_pd(va, vb, _CMP_GT_OQ);
        else if constexpr (Op == Cmp::Le)
            m = _mm256_cmp_pd(va, vb, _CMP_LE_OQ);
        else if constexpr (Op == Cmp::Ge)
            m = _mm256_cmp_pd(va, vb, _CMP_GE_OQ);
        else if constexpr (Op == Cmp::Eq)
            m = _mm256_cmp_pd(va, vb, _CMP_EQ_OQ);
        else {
            static_assert(Op == Cmp::Ne);
            m = _mm256_cmp_pd(va, vb, _CMP_NEQ_UQ);
        }
        const int bits = _mm256_movemask_pd(m);
        out[i] = static_cast<std::uint8_t>(bits & 1);
        out[i + 1] = static_cast<std::uint8_t>((bits >> 1) & 1);
        out[i + 2] = static_cast<std::uint8_t>((bits >> 2) & 1);
        out[i + 3] = static_cast<std::uint8_t>((bits >> 3) & 1);
    }
}

UNCERTAIN_TARGET_AVX2 void
compareF64Avx2(Cmp op, const double* a, const double* b,
               std::uint8_t* out, std::size_t n)
{
    const std::size_t n4 = n & ~std::size_t{3};
    switch (op) {
    case Cmp::Lt: compareF64Avx2Loop<Cmp::Lt>(a, b, out, n4); break;
    case Cmp::Gt: compareF64Avx2Loop<Cmp::Gt>(a, b, out, n4); break;
    case Cmp::Le: compareF64Avx2Loop<Cmp::Le>(a, b, out, n4); break;
    case Cmp::Ge: compareF64Avx2Loop<Cmp::Ge>(a, b, out, n4); break;
    case Cmp::Eq: compareF64Avx2Loop<Cmp::Eq>(a, b, out, n4); break;
    case Cmp::Ne: compareF64Avx2Loop<Cmp::Ne>(a, b, out, n4); break;
    }
    if (n4 < n)
        compareF64Scalar(op, a + n4, b + n4, out + n4, n - n4);
}

template <BinI32 Op>
UNCERTAIN_TARGET_AVX2 void
binaryI32Avx2Loop(const std::int32_t* a, const std::int32_t* b,
                  std::int32_t* out, std::size_t n8)
{
    for (std::size_t i = 0; i < n8; i += 8) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        __m256i r;
        if constexpr (Op == BinI32::Add)
            r = _mm256_add_epi32(va, vb);
        else if constexpr (Op == BinI32::Sub)
            r = _mm256_sub_epi32(va, vb);
        else if constexpr (Op == BinI32::Mul)
            r = _mm256_mullo_epi32(va, vb);
        else if constexpr (Op == BinI32::Min)
            r = _mm256_min_epi32(va, vb);
        else {
            static_assert(Op == BinI32::Max);
            r = _mm256_max_epi32(va, vb);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
    }
}

UNCERTAIN_TARGET_AVX2 void
binaryI32Avx2(BinI32 op, const std::int32_t* a, const std::int32_t* b,
              std::int32_t* out, std::size_t n)
{
    const std::size_t n8 = n & ~std::size_t{7};
    switch (op) {
    case BinI32::Add: binaryI32Avx2Loop<BinI32::Add>(a, b, out, n8); break;
    case BinI32::Sub: binaryI32Avx2Loop<BinI32::Sub>(a, b, out, n8); break;
    case BinI32::Mul: binaryI32Avx2Loop<BinI32::Mul>(a, b, out, n8); break;
    case BinI32::Min: binaryI32Avx2Loop<BinI32::Min>(a, b, out, n8); break;
    case BinI32::Max: binaryI32Avx2Loop<BinI32::Max>(a, b, out, n8); break;
    }
    if (n8 < n)
        binaryI32Scalar(op, a + n8, b + n8, out + n8, n - n8);
}

template <Cmp Op>
UNCERTAIN_TARGET_AVX2 void
compareI32Avx2Loop(const std::int32_t* a, const std::int32_t* b,
                   std::uint8_t* out, std::size_t n8)
{
    for (std::size_t i = 0; i < n8; i += 8) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        int bits;
        if constexpr (Op == Cmp::Lt)
            bits = _mm256_movemask_ps(
                _mm256_castsi256_ps(_mm256_cmpgt_epi32(vb, va)));
        else if constexpr (Op == Cmp::Gt)
            bits = _mm256_movemask_ps(
                _mm256_castsi256_ps(_mm256_cmpgt_epi32(va, vb)));
        else if constexpr (Op == Cmp::Le)
            bits = _mm256_movemask_ps(_mm256_castsi256_ps(
                       _mm256_cmpgt_epi32(va, vb)))
                   ^ 0xFF;
        else if constexpr (Op == Cmp::Ge)
            bits = _mm256_movemask_ps(_mm256_castsi256_ps(
                       _mm256_cmpgt_epi32(vb, va)))
                   ^ 0xFF;
        else if constexpr (Op == Cmp::Eq)
            bits = _mm256_movemask_ps(
                _mm256_castsi256_ps(_mm256_cmpeq_epi32(va, vb)));
        else {
            static_assert(Op == Cmp::Ne);
            bits = _mm256_movemask_ps(_mm256_castsi256_ps(
                       _mm256_cmpeq_epi32(va, vb)))
                   ^ 0xFF;
        }
        for (int j = 0; j < 8; ++j)
            out[i + static_cast<std::size_t>(j)] =
                static_cast<std::uint8_t>((bits >> j) & 1);
    }
}

UNCERTAIN_TARGET_AVX2 void
compareI32Avx2(Cmp op, const std::int32_t* a, const std::int32_t* b,
               std::uint8_t* out, std::size_t n)
{
    const std::size_t n8 = n & ~std::size_t{7};
    switch (op) {
    case Cmp::Lt: compareI32Avx2Loop<Cmp::Lt>(a, b, out, n8); break;
    case Cmp::Gt: compareI32Avx2Loop<Cmp::Gt>(a, b, out, n8); break;
    case Cmp::Le: compareI32Avx2Loop<Cmp::Le>(a, b, out, n8); break;
    case Cmp::Ge: compareI32Avx2Loop<Cmp::Ge>(a, b, out, n8); break;
    case Cmp::Eq: compareI32Avx2Loop<Cmp::Eq>(a, b, out, n8); break;
    case Cmp::Ne: compareI32Avx2Loop<Cmp::Ne>(a, b, out, n8); break;
    }
    if (n8 < n)
        compareI32Scalar(op, a + n8, b + n8, out + n8, n - n8);
}

template <BinI64 Op>
UNCERTAIN_TARGET_AVX2 void
binaryI64Avx2Loop(const std::int64_t* a, const std::int64_t* b,
                  std::int64_t* out, std::size_t n4)
{
    for (std::size_t i = 0; i < n4; i += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const __m256i r = Op == BinI64::Add ? _mm256_add_epi64(va, vb)
                                            : _mm256_sub_epi64(va, vb);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
    }
}

UNCERTAIN_TARGET_AVX2 void
binaryI64Avx2(BinI64 op, const std::int64_t* a, const std::int64_t* b,
              std::int64_t* out, std::size_t n)
{
    const std::size_t n4 = n & ~std::size_t{3};
    if (op == BinI64::Add)
        binaryI64Avx2Loop<BinI64::Add>(a, b, out, n4);
    else
        binaryI64Avx2Loop<BinI64::Sub>(a, b, out, n4);
    if (n4 < n)
        binaryI64Scalar(op, a + n4, b + n4, out + n4, n - n4);
}

template <BoolOp Op>
UNCERTAIN_TARGET_AVX2 void
boolBinaryAvx2Loop(const std::uint8_t* a, const std::uint8_t* b,
                   std::uint8_t* out, std::size_t n32)
{
    for (std::size_t i = 0; i < n32; i += 32) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const __m256i r = Op == BoolOp::And ? _mm256_and_si256(va, vb)
                                            : _mm256_or_si256(va, vb);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
    }
}

UNCERTAIN_TARGET_AVX2 void
boolBinaryAvx2(BoolOp op, const std::uint8_t* a, const std::uint8_t* b,
               std::uint8_t* out, std::size_t n)
{
    const std::size_t n32 = n & ~std::size_t{31};
    if (op == BoolOp::And)
        boolBinaryAvx2Loop<BoolOp::And>(a, b, out, n32);
    else
        boolBinaryAvx2Loop<BoolOp::Or>(a, b, out, n32);
    if (n32 < n)
        boolBinaryScalar(op, a + n32, b + n32, out + n32, n - n32);
}

UNCERTAIN_TARGET_AVX2 void
boolNotAvx2(const std::uint8_t* a, std::uint8_t* out, std::size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi8(1);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i r =
            _mm256_and_si256(_mm256_cmpeq_epi8(va, zero), one);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
    }
    if (i < n)
        boolNotScalar(a + i, out + i, n - i);
}

UNCERTAIN_TARGET_AVX2 void
negF64Avx2(const double* a, double* out, std::size_t n)
{
    const __m256d sign = _mm256_set1_pd(-0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i,
                         _mm256_xor_pd(_mm256_loadu_pd(a + i), sign));
    if (i < n)
        negF64Scalar(a + i, out + i, n - i);
}

UNCERTAIN_TARGET_AVX2 void
selectF64Avx2(const std::uint8_t* c, const double* x, const double* y,
              double* out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        std::int32_t cword;
        std::memcpy(&cword, c + i, 4);
        const __m256i cq =
            _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(cword));
        const __m256d mask = _mm256_castsi256_pd(
            _mm256_cmpgt_epi64(cq, _mm256_setzero_si256()));
        const __m256d r = _mm256_blendv_pd(_mm256_loadu_pd(y + i),
                                           _mm256_loadu_pd(x + i), mask);
        _mm256_storeu_pd(out + i, r);
    }
    if (i < n)
        selectF64Scalar(c + i, x + i, y + i, out + i, n - i);
}

// ---- ziggurat fast-accept pass ---------------------------------------

UNCERTAIN_TARGET_AVX2 std::size_t
zigguratAcceptAvx2(const std::uint64_t* words, std::size_t n,
                   const std::uint32_t* kn, const double* wn, double mu,
                   double sigma, double* out, std::uint32_t* rejects)
{
    const __m256d muV = _mm256_set1_pd(mu);
    const __m256d sigmaV = _mm256_set1_pd(sigma);
    const __m128i signFlip = _mm_set1_epi32(
        static_cast<std::int32_t>(0x80000000u));
    std::size_t nRejects = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // hz and the 7-bit layer indices come out via scalar loads:
        // the 128-entry tables are too small for vpgatherdd to win —
        // measured on AVX2 Xeons, the gather pair costs ~1.4x the
        // whole accept loop done with scalar table loads + inserts.
        const auto h0 = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(words[i]));
        const auto h1 = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(words[i + 1]));
        const auto h2 = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(words[i + 2]));
        const auto h3 = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(words[i + 3]));
        const std::uint32_t i0 = static_cast<std::uint32_t>(h0) & 127u;
        const std::uint32_t i1 = static_cast<std::uint32_t>(h1) & 127u;
        const std::uint32_t i2 = static_cast<std::uint32_t>(h2) & 127u;
        const std::uint32_t i3 = static_cast<std::uint32_t>(h3) & 127u;
        const __m128i hz = _mm_setr_epi32(h0, h1, h2, h3);
        const __m128i knV = _mm_setr_epi32(
            static_cast<std::int32_t>(kn[i0]),
            static_cast<std::int32_t>(kn[i1]),
            static_cast<std::int32_t>(kn[i2]),
            static_cast<std::int32_t>(kn[i3]));
        const __m256d wnV =
            _mm256_setr_pd(wn[i0], wn[i1], wn[i2], wn[i3]);
        // |hz| as a bit pattern: abs(INT32_MIN) stays 0x80000000,
        // exactly the scalar unsigned-negation magnitude.
        const __m128i mag = _mm_abs_epi32(hz);
        // Unsigned mag < kn via sign-flipped signed compare.
        const __m128i accept =
            _mm_cmpgt_epi32(_mm_xor_si128(knV, signFlip),
                            _mm_xor_si128(mag, signFlip));
        const __m256d x = _mm256_mul_pd(_mm256_cvtepi32_pd(hz), wnV);
        // mu + sigma * x with explicit mul then add: matches the
        // FMA-free scalar path bit for bit.
        _mm256_storeu_pd(
            out + i, _mm256_add_pd(muV, _mm256_mul_pd(sigmaV, x)));
        int miss = _mm_movemask_ps(_mm_castsi128_ps(accept)) ^ 0xF;
        while (miss != 0) {
            const int lane = __builtin_ctz(static_cast<unsigned>(miss));
            miss &= miss - 1;
            rejects[nRejects++] = static_cast<std::uint32_t>(
                i + static_cast<std::size_t>(lane));
        }
    }
    // Clear the upper YMM halves before the SSE-encoded scalar tail:
    // left dirty, every SSE instruction after this call pays the
    // AVX-SSE transition penalty (GCC omits the vzeroupper at -O2).
    _mm256_zeroupper();
    return zigguratAcceptScalar(words, i, n, kn, wn, mu, sigma, out,
                                rejects, nRejects);
}

#endif // UNCERTAIN_SIMD_X86

} // namespace

// =====================================================================
// Public dispatch.
// =====================================================================

Isa
activeIsa()
{
    static const Isa isa = detectIsaOnce();
    return isa;
}

std::size_t
laneWidth(Isa isa)
{
    return runsAvx2(isa) ? 4 : 1;
}

const char*
isaName(Isa isa)
{
    return isa == Isa::Avx2 ? "avx2" : "scalar";
}

void
binaryF64(Isa isa, BinF64 op, const double* a, const double* b,
          double* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        binaryF64Avx2(op, a, b, out, n);
        return;
    }
#endif
    (void)isa;
    binaryF64Scalar(op, a, b, out, n);
}

void
binaryF64ConstB(Isa isa, BinF64 op, const double* a, double b,
                double* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        binaryF64ConstAvx2<true>(op, a, b, out, n);
        return;
    }
#endif
    (void)isa;
    binaryF64ConstBScalar(op, a, b, out, n);
}

void
binaryF64ConstA(Isa isa, BinF64 op, double a, const double* b,
                double* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        binaryF64ConstAvx2<false>(op, b, a, out, n);
        return;
    }
#endif
    (void)isa;
    binaryF64ConstAScalar(op, a, b, out, n);
}

void
compareF64(Isa isa, Cmp op, const double* a, const double* b,
           std::uint8_t* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        compareF64Avx2(op, a, b, out, n);
        return;
    }
#endif
    (void)isa;
    compareF64Scalar(op, a, b, out, n);
}

void
binaryI32(Isa isa, BinI32 op, const std::int32_t* a,
          const std::int32_t* b, std::int32_t* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        binaryI32Avx2(op, a, b, out, n);
        return;
    }
#endif
    (void)isa;
    binaryI32Scalar(op, a, b, out, n);
}

void
compareI32(Isa isa, Cmp op, const std::int32_t* a, const std::int32_t* b,
           std::uint8_t* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        compareI32Avx2(op, a, b, out, n);
        return;
    }
#endif
    (void)isa;
    compareI32Scalar(op, a, b, out, n);
}

void
binaryI64(Isa isa, BinI64 op, const std::int64_t* a,
          const std::int64_t* b, std::int64_t* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        binaryI64Avx2(op, a, b, out, n);
        return;
    }
#endif
    (void)isa;
    binaryI64Scalar(op, a, b, out, n);
}

void
boolBinary(Isa isa, BoolOp op, const std::uint8_t* a,
           const std::uint8_t* b, std::uint8_t* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        boolBinaryAvx2(op, a, b, out, n);
        return;
    }
#endif
    (void)isa;
    boolBinaryScalar(op, a, b, out, n);
}

void
boolNot(Isa isa, const std::uint8_t* a, std::uint8_t* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        boolNotAvx2(a, out, n);
        return;
    }
#endif
    (void)isa;
    boolNotScalar(a, out, n);
}

void
negF64(Isa isa, const double* a, double* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        negF64Avx2(a, out, n);
        return;
    }
#endif
    (void)isa;
    negF64Scalar(a, out, n);
}

void
selectF64(Isa isa, const std::uint8_t* c, const double* x,
          const double* y, double* out, std::size_t n)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa)) {
        selectF64Avx2(c, x, y, out, n);
        return;
    }
#endif
    (void)isa;
    selectF64Scalar(c, x, y, out, n);
}

std::size_t
zigguratAccept(Isa isa, const std::uint64_t* words, std::size_t n,
               const std::uint32_t* kn, const double* wn, double mu,
               double sigma, double* out, std::uint32_t* rejects)
{
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa))
        return zigguratAcceptAvx2(words, n, kn, wn, mu, sigma, out,
                                  rejects);
#endif
    (void)isa;
    return zigguratAcceptScalar(words, 0, n, kn, wn, mu, sigma, out,
                                rejects, 0);
}

} // namespace simd
} // namespace uncertain
