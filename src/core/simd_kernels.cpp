/**
 * @file
 * The kernel layer's implementations and runtime CPU-feature dispatch.
 *
 * Layout: elementwise() dispatches once per call on the Op, expanding
 * the native-op table (UNCERTAIN_NATIVE_OPS) into one case per row.
 * Each row runs its AVX2 rung over whole packs, when the call asks
 * for AVX2 and the CPU has it, then the scalar rung — the core::ops
 * functor loop — over the rest. The AVX2 bodies are guarded by
 * function-level target attributes so the translation unit itself
 * stays baseline-encodable: they are only ever entered after
 * __builtin_cpu_supports("avx2") says the instructions exist. Every
 * other target (a pre-AVX2 x86-64 CPU, aarch64, a
 * -DUNCERTAIN_SIMD=OFF build) runs the scalar rung alone.
 *
 * This TU is compiled with -ffp-contract=off (see src/core/
 * CMakeLists.txt): neither the scalar loops nor the tails may fuse
 * mul+add into FMA, because the explicit vector code uses separate
 * mul and add instructions and the two must round identically.
 */

#include "core/simd_kernels.hpp"

#include <cstring>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/ops.hpp"

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

/** Column element type of base type T: bool columns hold 0/1 bytes. */
template <typename T>
using Elem = std::conditional_t<std::is_same_v<T, bool>, std::uint8_t, T>;

// =====================================================================
// Scalar rung: the reference semantics for every kernel.
// =====================================================================

/** Elements [from, n) of row (F, R, As...): the core::ops functor
 *  loop, over the same columns the interpreter strips read. */
template <typename F, typename R, typename... As>
void
functorLoop(const Src* srcs, void* out, std::size_t from, std::size_t n)
{
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        core::ops::applyLoop(
            F{}, static_cast<Elem<R>*>(out) + from, n - from,
            (static_cast<const Elem<As>*>(srcs[I].column) + from)...);
    }(std::index_sequence_for<As...>{});
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
// AVX2: 4-lane double / u64 packs, 8-lane int32 packs, 32-lane bytes,
// gathers. Entered only after runtime detection; the target attribute
// keeps the rest of the TU baseline-encodable. Each kernel covers the
// longest whole-pack prefix of the strip and returns its length; the
// scalar rung runs the tail.
// =====================================================================

#if defined(UNCERTAIN_SIMD_X86)

// Op dispatch happens ONCE per strip, never per iteration: each op
// gets its own tight loop via a template parameter. A `switch (op)`
// inside the vector loop measured ~3.5x slower on the mul strip —
// GCC cannot loop-unswitch across intrinsics, so the per-iteration
// dispatch survives into the hot loop.

/** One 4-lane pack of a binary f64 op. */
template <Op O>
UNCERTAIN_TARGET_AVX2 inline __m256d
f64Op(__m256d va, __m256d vb)
{
    if constexpr (O == Op::AddF64)
        return _mm256_add_pd(va, vb);
    else if constexpr (O == Op::SubF64)
        return _mm256_sub_pd(va, vb);
    else if constexpr (O == Op::MulF64)
        return _mm256_mul_pd(va, vb);
    else if constexpr (O == Op::DivF64)
        return _mm256_div_pd(va, vb);
    else if constexpr (O == Op::MinF64)
        // (b < a) ? b : a — compare+blend, NOT minpd (whose NaN
        // and -0.0 conventions differ from the scalar ternary).
        return _mm256_blendv_pd(va, vb,
                                _mm256_cmp_pd(vb, va, _CMP_LT_OQ));
    else {
        static_assert(O == Op::MaxF64);
        return _mm256_blendv_pd(va, vb,
                                _mm256_cmp_pd(va, vb, _CMP_LT_OQ));
    }
}

/** Which operand of a binary f64 kernel is broadcast from a register
 *  instead of streamed from its column. */
enum class Splat : std::uint8_t { None, A, B };

template <Splat S, Splat Side>
UNCERTAIN_TARGET_AVX2 inline __m256d
f64Load(const double* col, __m256d vc, std::size_t i)
{
    if constexpr (S == Side)
        return vc;
    else
        return _mm256_loadu_pd(col + i);
}

template <Op O, Splat S>
UNCERTAIN_TARGET_AVX2 inline void
f64Pack(const double* a, const double* b, __m256d vc, double* out,
        std::size_t i)
{
    _mm256_storeu_pd(out + i, f64Op<O>(f64Load<S, Splat::A>(a, vc, i),
                                       f64Load<S, Splat::B>(b, vc, i)));
}

// The f64 loops are unrolled 4x (16 elements per iteration): at one
// pack per iteration the loop bookkeeping is as many uops as the
// work, and on a 4-wide core that caps throughput at ~1 cycle per
// pack; unrolling measured ~1.3-1.7x on the 256-element strips the
// fused kernels issue.
template <Op O, Splat S>
UNCERTAIN_TARGET_AVX2 inline std::size_t
f64BinaryLoop(const double* a, const double* b, __m256d vc, double* out,
              std::size_t n)
{
    const std::size_t n4 = n & ~std::size_t{3};
    std::size_t i = 0;
    for (; i + 16 <= n4; i += 16) {
        f64Pack<O, S>(a, b, vc, out, i);
        f64Pack<O, S>(a, b, vc, out, i + 4);
        f64Pack<O, S>(a, b, vc, out, i + 8);
        f64Pack<O, S>(a, b, vc, out, i + 12);
    }
    for (; i < n4; i += 4)
        f64Pack<O, S>(a, b, vc, out, i);
    return n4;
}

/** A splat operand is held in a register: the same arithmetic per
 *  element, one fewer load stream. */
template <Op O>
UNCERTAIN_TARGET_AVX2 inline std::size_t
f64Binary(const Src* s, double* out, std::size_t n)
{
    const auto* a = static_cast<const double*>(s[0].column);
    const auto* b = static_cast<const double*>(s[1].column);
    double c = 0.0;
    if (s[1].splat != nullptr) {
        std::memcpy(&c, s[1].splat, sizeof c);
        return f64BinaryLoop<O, Splat::B>(a, b, _mm256_set1_pd(c), out,
                                          n);
    }
    if (s[0].splat != nullptr) {
        std::memcpy(&c, s[0].splat, sizeof c);
        return f64BinaryLoop<O, Splat::A>(a, b, _mm256_set1_pd(c), out,
                                          n);
    }
    return f64BinaryLoop<O, Splat::None>(a, b, _mm256_setzero_pd(), out,
                                         n);
}

/** Ordered predicates (false on NaN) except Ne, which is unordered. */
template <Op O>
constexpr int kF64Predicate = O == Op::LtF64   ? _CMP_LT_OQ
                              : O == Op::GtF64 ? _CMP_GT_OQ
                              : O == Op::LeF64 ? _CMP_LE_OQ
                              : O == Op::GeF64 ? _CMP_GE_OQ
                              : O == Op::EqF64 ? _CMP_EQ_OQ
                                               : _CMP_NEQ_UQ;

template <Op O>
UNCERTAIN_TARGET_AVX2 inline std::size_t
f64Compare(const Src* s, std::uint8_t* out, std::size_t n)
{
    const auto* a = static_cast<const double*>(s[0].column);
    const auto* b = static_cast<const double*>(s[1].column);
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        const int bits = _mm256_movemask_pd(_mm256_cmp_pd(
            _mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
            kF64Predicate<O>));
        out[i] = static_cast<std::uint8_t>(bits & 1);
        out[i + 1] = static_cast<std::uint8_t>((bits >> 1) & 1);
        out[i + 2] = static_cast<std::uint8_t>((bits >> 2) & 1);
        out[i + 3] = static_cast<std::uint8_t>((bits >> 3) & 1);
    }
    return n4;
}

UNCERTAIN_TARGET_AVX2 inline __m256i
loadI256(const void* p)
{
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

UNCERTAIN_TARGET_AVX2 inline void
storeI256(void* p, __m256i v)
{
    _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

template <Op O>
UNCERTAIN_TARGET_AVX2 inline std::size_t
i32Binary(const Src* s, std::int32_t* out, std::size_t n)
{
    const auto* a = static_cast<const std::int32_t*>(s[0].column);
    const auto* b = static_cast<const std::int32_t*>(s[1].column);
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t i = 0; i < n8; i += 8) {
        const __m256i va = loadI256(a + i);
        const __m256i vb = loadI256(b + i);
        __m256i r;
        if constexpr (O == Op::AddI32)
            r = _mm256_add_epi32(va, vb);
        else if constexpr (O == Op::SubI32)
            r = _mm256_sub_epi32(va, vb);
        else if constexpr (O == Op::MulI32)
            r = _mm256_mullo_epi32(va, vb);
        else if constexpr (O == Op::MinI32)
            r = _mm256_min_epi32(va, vb);
        else {
            static_assert(O == Op::MaxI32);
            r = _mm256_max_epi32(va, vb);
        }
        storeI256(out + i, r);
    }
    return n8;
}

/** One bit per int32 lane of a compare mask. */
UNCERTAIN_TARGET_AVX2 inline int
laneBits(__m256i m)
{
    return _mm256_movemask_ps(_mm256_castsi256_ps(m));
}

template <Op O>
UNCERTAIN_TARGET_AVX2 inline std::size_t
i32Compare(const Src* s, std::uint8_t* out, std::size_t n)
{
    const auto* a = static_cast<const std::int32_t*>(s[0].column);
    const auto* b = static_cast<const std::int32_t*>(s[1].column);
    const std::size_t n8 = n & ~std::size_t{7};
    for (std::size_t i = 0; i < n8; i += 8) {
        const __m256i va = loadI256(a + i);
        const __m256i vb = loadI256(b + i);
        int bits;
        if constexpr (O == Op::LtI32)
            bits = laneBits(_mm256_cmpgt_epi32(vb, va));
        else if constexpr (O == Op::GtI32)
            bits = laneBits(_mm256_cmpgt_epi32(va, vb));
        else if constexpr (O == Op::LeI32)
            bits = laneBits(_mm256_cmpgt_epi32(va, vb)) ^ 0xFF;
        else if constexpr (O == Op::GeI32)
            bits = laneBits(_mm256_cmpgt_epi32(vb, va)) ^ 0xFF;
        else if constexpr (O == Op::EqI32)
            bits = laneBits(_mm256_cmpeq_epi32(va, vb));
        else {
            static_assert(O == Op::NeI32);
            bits = laneBits(_mm256_cmpeq_epi32(va, vb)) ^ 0xFF;
        }
        for (int j = 0; j < 8; ++j)
            out[i + static_cast<std::size_t>(j)] =
                static_cast<std::uint8_t>((bits >> j) & 1);
    }
    return n8;
}

template <Op O>
UNCERTAIN_TARGET_AVX2 inline std::size_t
i64Binary(const Src* s, std::int64_t* out, std::size_t n)
{
    const auto* a = static_cast<const std::int64_t*>(s[0].column);
    const auto* b = static_cast<const std::int64_t*>(s[1].column);
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        const __m256i va = loadI256(a + i);
        const __m256i vb = loadI256(b + i);
        if constexpr (O == Op::AddI64) {
            storeI256(out + i, _mm256_add_epi64(va, vb));
        } else {
            static_assert(O == Op::SubI64);
            storeI256(out + i, _mm256_sub_epi64(va, vb));
        }
    }
    return n4;
}

/** And/Or over 0/1 bytes: the bitwise ops coincide with && and ||. */
template <Op O>
UNCERTAIN_TARGET_AVX2 inline std::size_t
boolBinary(const Src* s, std::uint8_t* out, std::size_t n)
{
    const auto* a = static_cast<const std::uint8_t*>(s[0].column);
    const auto* b = static_cast<const std::uint8_t*>(s[1].column);
    const std::size_t n32 = n & ~std::size_t{31};
    for (std::size_t i = 0; i < n32; i += 32) {
        const __m256i va = loadI256(a + i);
        const __m256i vb = loadI256(b + i);
        if constexpr (O == Op::AndBool) {
            storeI256(out + i, _mm256_and_si256(va, vb));
        } else {
            static_assert(O == Op::OrBool);
            storeI256(out + i, _mm256_or_si256(va, vb));
        }
    }
    return n32;
}

UNCERTAIN_TARGET_AVX2 inline std::size_t
boolNot(const Src* s, std::uint8_t* out, std::size_t n)
{
    const auto* a = static_cast<const std::uint8_t*>(s[0].column);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi8(1);
    const std::size_t n32 = n & ~std::size_t{31};
    for (std::size_t i = 0; i < n32; i += 32)
        storeI256(out + i, _mm256_and_si256(
                               _mm256_cmpeq_epi8(loadI256(a + i), zero),
                               one));
    return n32;
}

/** Sign-bit flip: bit-exact for NaN and +-0. */
UNCERTAIN_TARGET_AVX2 inline std::size_t
negF64(const Src* s, double* out, std::size_t n)
{
    const auto* a = static_cast<const double*>(s[0].column);
    const __m256d sign = _mm256_set1_pd(-0.0);
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4)
        _mm256_storeu_pd(out + i,
                         _mm256_xor_pd(_mm256_loadu_pd(a + i), sign));
    return n4;
}

UNCERTAIN_TARGET_AVX2 inline std::size_t
selectF64(const Src* s, double* out, std::size_t n)
{
    const auto* c = static_cast<const std::uint8_t*>(s[0].column);
    const auto* x = static_cast<const double*>(s[1].column);
    const auto* y = static_cast<const double*>(s[2].column);
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        std::int32_t cword = 0;
        std::memcpy(&cword, c + i, 4);
        const __m256i cq =
            _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(cword));
        const __m256d mask = _mm256_castsi256_pd(
            _mm256_cmpgt_epi64(cq, _mm256_setzero_si256()));
        _mm256_storeu_pd(out + i,
                         _mm256_blendv_pd(_mm256_loadu_pd(y + i),
                                          _mm256_loadu_pd(x + i), mask));
    }
    return n4;
}

/** The AVX2 rung of row (O, R, As...): picks the kernel by the row's
 *  signature and returns the length of the prefix it covered. */
template <Op O, typename R, typename... As>
UNCERTAIN_TARGET_AVX2 std::size_t
avx2Prefix(const Src* s, void* out, std::size_t n)
{
    using Sig = std::tuple<R, As...>;
    using I32 = std::int32_t;
    using I64 = std::int64_t;
    auto* o = static_cast<Elem<R>*>(out);
    if constexpr (std::is_same_v<Sig, std::tuple<double, double, double>>)
        return f64Binary<O>(s, o, n);
    else if constexpr (std::is_same_v<Sig, std::tuple<bool, double, double>>)
        return f64Compare<O>(s, o, n);
    else if constexpr (std::is_same_v<Sig, std::tuple<I32, I32, I32>>)
        return i32Binary<O>(s, o, n);
    else if constexpr (std::is_same_v<Sig, std::tuple<bool, I32, I32>>)
        return i32Compare<O>(s, o, n);
    else if constexpr (std::is_same_v<Sig, std::tuple<I64, I64, I64>>)
        return i64Binary<O>(s, o, n);
    else if constexpr (std::is_same_v<Sig, std::tuple<bool, bool, bool>>)
        return boolBinary<O>(s, o, n);
    else if constexpr (O == Op::NotBool)
        return boolNot(s, o, n);
    else if constexpr (O == Op::NegF64)
        return negF64(s, o, n);
    else {
        static_assert(O == Op::SelectF64);
        return selectF64(s, o, n);
    }
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

/** Row (O, F, R, As...) over n elements: the AVX2 rung's prefix, then
 *  the scalar rung over the rest. */
template <Op O, typename F, typename R, typename... As>
void
runRow(Isa isa, const Src* srcs, void* out, std::size_t n)
{
    std::size_t done = 0;
#if defined(UNCERTAIN_SIMD_X86)
    if (runsAvx2(isa))
        done = avx2Prefix<O, R, As...>(srcs, out, n);
#endif
    (void)isa;
    functorLoop<F, R, As...>(srcs, out, done, n);
}

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
elementwise(Isa isa, Op op, const Src* srcs, void* out, std::size_t n)
{
    switch (op) {
#define UNCERTAIN_OP_CASE(name, F, ...)                                  \
    case Op::name:                                                       \
        runRow<Op::name, core::ops::F, __VA_ARGS__>(isa, srcs, out, n);  \
        return;
        UNCERTAIN_NATIVE_OPS(UNCERTAIN_OP_CASE)
#undef UNCERTAIN_OP_CASE
    }
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
