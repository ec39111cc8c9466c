/**
 * @file
 * Acceptance suite for the SIMD execution backend (core/simd_kernels
 * + the PlanOptions::backend axis). The backend's contract is strict:
 * vectorization is a pure speed transform, never a semantic one, so
 * almost every test here asserts BIT identity, not statistical
 * closeness. Pillars:
 *
 *  1. Kernel parity — every row of the native-op table, run through
 *     simd::elementwise with every Isa the dispatcher knows about,
 *     reproduces the core::ops functor loop bit for bit, including
 *     NaN propagation, signed zeros, infinities, integer wrap-around
 *     and odd tail lengths (without AVX2 a call with Isa::Avx2 runs
 *     the scalar rung, so passing both Isas is safe on any host).
 *  2. Broadcast-constant forms — a splat operand on either side of a
 *     binary f64 op equals the functor loop over the splatted column.
 *  3. RNG fills — Rng's bulk fills retrace the exact serial orbit:
 *     same outputs, same final engine state, same double mapping as
 *     Rng::nextDouble.
 *  4. Ziggurat — the vector accept pass returns the scalar pass's
 *     accepted values and reject list bit for bit, over rejects,
 *     INT32_MIN words and tails of every length mod 4.
 *  5. Plan equivalence — the optimizer off and on x {Auto, Simd,
 *     Scalar} backends produce identical sample streams, integer
 *     division by zero is refused on every path, and PlanStats/exec
 *     counters report the backend
 *     truthfully. The JIT rung (what Auto compiles fused groups to
 *     where the JIT is available) gets its own parity tests (IEEE
 *     edge cases, odd tails, refused groups, fragment-cache races)
 *     since it emits machine code instead of calling kernels.
 *  6. Law conformance — KS and TV-certification entries for the
 *     SIMD-backed ziggurat and an optimized-plan root column
 *     (SimdBackendStatistical.* / SimdBackendCertification.* run in
 *     the statistical and certification CTest shards).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/core.hpp"
#include "core/inspect.hpp"
#include "core/jit/jit_compiler.hpp"
#include "core/simd.hpp"
#include "core/simd_kernels.hpp"
#include "random/gaussian.hpp"
#include "random/rayleigh.hpp"
#include "stats/certify.hpp"
#include "support/rng.hpp"

#include "certify/certify_test_util.hpp"
#include "plan_configs.hpp"
#include "stat_assert.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace core {
namespace {

/** Every Isa the dispatcher knows; without AVX2 the kernels run the
 *  scalar rung for Isa::Avx2. */
constexpr simd::Isa kIsas[] = {simd::Isa::Scalar, simd::Isa::Avx2};

/** Lengths covering sub-pack, pack-aligned and unrolled+tail cases. */
constexpr std::size_t kLengths[] = {1, 2, 3, 4, 7, 8, 15, 16,
                                    17, 31, 64, 100};

/** Deterministic f64 operands seasoned with every IEEE edge case. */
std::vector<double>
edgeCaseDoubles(std::size_t n, std::uint64_t seed)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double edges[] = {0.0,   -0.0, 1.0,    -1.0, inf,
                            -inf,  nan,  1e-308, -2.5, 1e17};
    Rng rng = testing::testRng(seed);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Mostly ordinary values, every 5th an edge case, so compare
        // predicates see both true and false lanes next to NaNs.
        out[i] = (i % 5 == 0) ? edges[rng.nextU64() % 10]
                              : rng.nextDouble() * 20.0 - 10.0;
    }
    return out;
}

bool
bitIdentical(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size()
           && (a.empty()
               || std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(double)) == 0);
}

Uncertain<double>
gaussianLeaf(double mu, double sigma)
{
    return fromDistribution(
        std::make_shared<random::Gaussian>(mu, sigma));
}

Uncertain<double>
rayleighLeaf(double rho)
{
    return fromDistribution(std::make_shared<random::Rayleigh>(rho));
}

/**
 * A strip-heavy graph exercising the whole kernel surface: fused f64
 * chains with point-mass operands (the broadcast-constant micro-ops),
 * a shared leaf (CSE), negation, division, and a comparison/select
 * through the conditional operators.
 */
Uncertain<double>
stripHeavyGraph()
{
    auto x = gaussianLeaf(0.0, 1.0);
    auto y = rayleighLeaf(1.63);
    auto chain = ((x * 1.0101 + 0.25) * 0.5 - 1.5) / 0.75;
    auto shared = (y + x) + x;
    return chain + shared * 0.125 - (-y);
}

std::string
configName(const PlanOptions& options)
{
    return std::string(options.optimize ? "optimize on" : "optimize off")
           + " backend " + simd::backendName(options.backend);
}

std::vector<double>
planSamples(const Uncertain<double>& expr, const PlanOptions& options,
            std::size_t n, std::uint64_t seed,
            std::size_t blockSize = 1024)
{
    Rng rng = testing::testRng(seed);
    BatchSampler sampler(BatchOptions{blockSize, options});
    return expr.takeSamples(n, rng, sampler);
}

// ---- 1. lane-pack kernel parity -------------------------------------

TEST(SimdBackend, IsaIntrospectionIsConsistent)
{
    EXPECT_EQ(simd::laneWidth(simd::Isa::Scalar), 1u);
    EXPECT_STREQ(simd::isaName(simd::Isa::Scalar), "scalar");
    EXPECT_STREQ(simd::isaName(simd::Isa::Avx2), "avx2");

    // Two rungs: AVX2 (4 lanes) or the scalar rung, and a call
    // asking for AVX2 runs at whatever the CPU makes active.
    const std::size_t lanes = simd::laneWidth(simd::activeIsa());
    EXPECT_TRUE(lanes == 1u || lanes == 4u) << lanes;
    EXPECT_EQ(simd::laneWidth(simd::Isa::Avx2), lanes);

    // The JIT emits AVX2 only: available() implies an AVX2 kernel layer.
    if (jit::available()) {
        EXPECT_EQ(simd::activeIsa(), simd::Isa::Avx2);
        EXPECT_STREQ(jit::codegenIsaName(), "avx2");
    } else {
        EXPECT_STREQ(jit::codegenIsaName(), "none");
    }
}

/**
 * Calls visit.template operator()<F, R, As...>(op) for every row of
 * the native-op table, so the kernel tests below cover every Op the
 * table lists.
 */
template <typename Visit>
void
forEachNativeOp(Visit&& visit)
{
#define UNCERTAIN_TEST_ROW(name, F, ...)                                 \
    visit.template operator()<core::ops::F, __VA_ARGS__>(simd::Op::name);
    UNCERTAIN_NATIVE_OPS(UNCERTAIN_TEST_ROW)
#undef UNCERTAIN_TEST_ROW
}

template <typename R, typename... As>
constexpr bool kF64Binary =
    std::is_same_v<std::tuple<R, As...>, std::tuple<double, double, double>>;

template <typename R, typename... As>
constexpr bool kF64Compare =
    std::is_same_v<std::tuple<R, As...>, std::tuple<bool, double, double>>;

template <typename R, typename... As>
constexpr bool kTouchesF64 =
    std::is_same_v<R, double> || (std::is_same_v<As, double> || ...);

/**
 * Operand column of base type T: doubles seasoned with every IEEE edge
 * case, integers with their overflow edges (MIN, MIN+1, -1, 0, 1,
 * MAX-1, MAX) among random words, bools as 0/1 bytes.
 */
template <typename T>
std::vector<batch::Store<T>>
operandColumn(std::size_t n, std::uint64_t seed)
{
    if constexpr (std::is_same_v<T, double>) {
        return edgeCaseDoubles(n, seed);
    } else {
        Rng rng = testing::testRng(seed);
        std::vector<batch::Store<T>> out(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t word = rng.nextU64();
            if constexpr (std::is_same_v<T, bool>) {
                out[i] = static_cast<std::uint8_t>(word & 1u);
            } else {
                using L = std::numeric_limits<T>;
                const T edges[] = {L::min(), L::min() + 1, -1, 0, 1,
                                   L::max() - 1, L::max()};
                out[i] = (i % 5 == 0) ? edges[word % 7]
                                      : static_cast<T>(word);
            }
        }
        return out;
    }
}

/**
 * simd::elementwise for row (F, R, As...), called with every Isa at
 * every length in kLengths, reproduces the core::ops functor loop bit
 * for bit. Binary rows get equal lanes every third element, so the
 * compare predicates see true cases.
 */
template <typename F, typename R, typename... As>
void
expectRowMatchesFunctorLoop(simd::Op op)
{
    for (std::size_t n : kLengths) {
        std::uint64_t seed = 100 + 10 * static_cast<std::uint64_t>(op);
        std::tuple<std::vector<batch::Store<As>>...> cols{
            operandColumn<As>(n, seed++)...};
        if constexpr (sizeof...(As) == 2) {
            auto& [a, b] = cols;
            if constexpr (std::is_same_v<decltype(a), decltype(b)>)
                for (std::size_t i = 0; i < n; i += 3)
                    b[i] = a[i];
        }
        std::vector<batch::Store<R>> ref(n);
        std::array<simd::Src, 3> srcs{};
        std::apply(
            [&](const auto&... col) {
                ops::applyLoop(F{}, ref.data(), n, col.data()...);
                std::size_t k = 0;
                ((srcs[k++].column = col.data()), ...);
            },
            cols);
        for (auto isa : kIsas) {
            std::vector<batch::Store<R>> out(n);
            std::memset(out.data(), 0xCC, n * sizeof(batch::Store<R>));
            simd::elementwise(isa, op, srcs.data(), out.data(), n);
            EXPECT_EQ(std::memcmp(ref.data(), out.data(),
                                  n * sizeof(batch::Store<R>)),
                      0)
                << "op " << static_cast<int>(op) << " isa "
                << simd::isaName(isa) << " n " << n;
        }
    }
}

TEST(SimdBackend, BinaryF64MatchesScalarAcrossIsas)
{
    std::size_t rows = 0;
    forEachNativeOp([&]<typename F, typename R, typename... As>(
                        simd::Op op) {
        if constexpr (kF64Binary<R, As...>) {
            expectRowMatchesFunctorLoop<F, R, As...>(op);
            ++rows;
        }
    });
    EXPECT_EQ(rows, 6u); // Add Sub Mul Div Min Max
}

TEST(SimdBackend, ConstBroadcastFormsMatchColumnKernel)
{
    // A splat operand may be broadcast from a register; the result
    // must equal the functor loop over the splatted column, with the
    // constant on either side.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double consts[] = {1.0101, -0.0, 0.25, nan,
                             std::numeric_limits<double>::infinity()};
    std::size_t rows = 0;
    forEachNativeOp([&]<typename F, typename R, typename... As>(
                        simd::Op op) {
        if constexpr (kF64Binary<R, As...>) {
            ++rows;
            for (std::size_t n : kLengths) {
                const auto col = edgeCaseDoubles(n, 21);
                for (double c : consts) {
                    const std::vector<double> splat(n, c);
                    std::vector<double> refB(n), refA(n);
                    ops::applyLoop(F{}, refB.data(), n, col.data(),
                                   splat.data());
                    ops::applyLoop(F{}, refA.data(), n, splat.data(),
                                   col.data());
                    const simd::Src constB[] = {{col.data(), nullptr},
                                                {splat.data(), &c}};
                    const simd::Src constA[] = {{splat.data(), &c},
                                                {col.data(), nullptr}};
                    for (auto isa : kIsas) {
                        std::vector<double> outB(n, -777.0);
                        simd::elementwise(isa, op, constB, outB.data(), n);
                        EXPECT_TRUE(bitIdentical(refB, outB))
                            << "ConstB op " << static_cast<int>(op)
                            << " isa " << simd::isaName(isa) << " n " << n;
                        std::vector<double> outA(n, -777.0);
                        simd::elementwise(isa, op, constA, outA.data(), n);
                        EXPECT_TRUE(bitIdentical(refA, outA))
                            << "ConstA op " << static_cast<int>(op)
                            << " isa " << simd::isaName(isa) << " n " << n;
                    }
                }
            }
        }
    });
    EXPECT_EQ(rows, 6u);
}

TEST(SimdBackend, CompareF64MatchesScalarAcrossIsas)
{
    std::size_t rows = 0;
    forEachNativeOp([&]<typename F, typename R, typename... As>(
                        simd::Op op) {
        if constexpr (kF64Compare<R, As...>) {
            expectRowMatchesFunctorLoop<F, R, As...>(op);
            ++rows;
        }
    });
    EXPECT_EQ(rows, 6u); // Lt Gt Le Ge Eq Ne
}

TEST(SimdBackend, IntegerAndBoolKernelsMatchScalarAcrossIsas)
{
    std::size_t rows = 0;
    forEachNativeOp([&]<typename F, typename R, typename... As>(
                        simd::Op op) {
        if constexpr (!kTouchesF64<R, As...>) {
            expectRowMatchesFunctorLoop<F, R, As...>(op);
            ++rows;
        }
    });
    // int32 Add Sub Mul Min Max and six compares, int64 Add Sub,
    // bool And Or Not.
    EXPECT_EQ(rows, 16u);

    // Overflow edges: add/sub/mul wrap modulo 2^width on every Isa,
    // checked against unsigned arithmetic computed here. Every pair
    // of the edge values gives 49 lanes: full packs plus a tail.
    const std::int32_t e32[] = {
        std::numeric_limits<std::int32_t>::min(),
        std::numeric_limits<std::int32_t>::min() + 1, -1, 0, 1,
        std::numeric_limits<std::int32_t>::max() - 1,
        std::numeric_limits<std::int32_t>::max()};
    const std::int64_t e64[] = {
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::min() + 1, -1, 0, 1,
        std::numeric_limits<std::int64_t>::max() - 1,
        std::numeric_limits<std::int64_t>::max()};
    std::vector<std::int32_t> a32, b32;
    std::vector<std::int64_t> a64, b64;
    for (std::size_t i = 0; i < 7; ++i) {
        for (std::size_t j = 0; j < 7; ++j) {
            a32.push_back(e32[i]);
            b32.push_back(e32[j]);
            a64.push_back(e64[i]);
            b64.push_back(e64[j]);
        }
    }
    const std::size_t m = a32.size();
    const simd::Src s32[] = {{a32.data(), nullptr}, {b32.data(), nullptr}};
    const simd::Src s64[] = {{a64.data(), nullptr}, {b64.data(), nullptr}};
    for (auto op : {simd::Op::AddI32, simd::Op::SubI32, simd::Op::MulI32}) {
        std::vector<std::int32_t> ref(m);
        for (std::size_t i = 0; i < m; ++i) {
            const auto x = static_cast<std::uint32_t>(a32[i]);
            const auto y = static_cast<std::uint32_t>(b32[i]);
            ref[i] = static_cast<std::int32_t>(
                op == simd::Op::AddI32   ? x + y
                : op == simd::Op::SubI32 ? x - y
                                         : x * y);
        }
        for (auto isa : kIsas) {
            std::vector<std::int32_t> out(m, -7);
            simd::elementwise(isa, op, s32, out.data(), m);
            EXPECT_EQ(ref, out) << "i32 edge op " << static_cast<int>(op)
                                << " isa " << simd::isaName(isa);
        }
    }
    for (auto op : {simd::Op::AddI64, simd::Op::SubI64}) {
        std::vector<std::int64_t> ref(m);
        for (std::size_t i = 0; i < m; ++i) {
            const auto x = static_cast<std::uint64_t>(a64[i]);
            const auto y = static_cast<std::uint64_t>(b64[i]);
            ref[i] = static_cast<std::int64_t>(
                op == simd::Op::AddI64 ? x + y : x - y);
        }
        for (auto isa : kIsas) {
            std::vector<std::int64_t> out(m, -7);
            simd::elementwise(isa, op, s64, out.data(), m);
            EXPECT_EQ(ref, out) << "i64 edge op " << static_cast<int>(op)
                                << " isa " << simd::isaName(isa);
        }
    }
}

TEST(SimdBackend, NegAndSelectMatchScalarAcrossIsas)
{
    std::size_t rows = 0;
    forEachNativeOp([&]<typename F, typename R, typename... As>(
                        simd::Op op) {
        if constexpr (kTouchesF64<R, As...> && !kF64Binary<R, As...>
                      && !kF64Compare<R, As...>) {
            expectRowMatchesFunctorLoop<F, R, As...>(op);
            ++rows;
        }
    });
    EXPECT_EQ(rows, 2u); // Neg, Select
}

// ---- 3. RNG fills ----------------------------------------------------

TEST(SimdBackend, XoshiroFillU64RetracesTheSerialOrbit)
{
    const std::uint64_t seed = 0xFEEDFACE12345678ull;
    for (std::size_t n : {std::size_t{1}, std::size_t{3},
                          std::size_t{4}, std::size_t{17},
                          std::size_t{256}, std::size_t{1001}}) {
        // The serial orbit: a plain next() loop. Rng(seed) wraps
        // Xoshiro256StarStar(seed), so both start in the same state.
        Xoshiro256StarStar engine(seed);
        std::vector<std::uint64_t> ref(n);
        for (auto& w : ref)
            w = engine.next();

        Rng rng(seed);
        std::vector<std::uint64_t> out(n, 0xDEADull);
        rng.fillU64(out.data(), n);
        EXPECT_EQ(ref, out) << "fill n " << n;
        // The post-fill state continues the same orbit.
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(engine.next(), rng.nextU64())
                << "state n " << n << " word " << k;
    }
}

TEST(SimdBackend, XoshiroFillDoubleMatchesRngMapping)
{
    const std::uint64_t seed = 97;
    const std::size_t n = 513;
    for (bool open : {false, true}) {
        Rng rng(seed);
        std::vector<double> ref(n);
        for (auto& v : ref)
            v = open ? rng.nextDoubleOpen() : rng.nextDouble();
        const std::uint64_t after = rng.nextU64();

        // The Rng facade's bulk fill.
        Rng fresh(seed);
        std::vector<double> viaRng(n, -777.0);
        if (open)
            fresh.fillDoubleOpen(viaRng.data(), n);
        else
            fresh.fillDouble(viaRng.data(), n);
        EXPECT_TRUE(bitIdentical(ref, viaRng)) << "Rng fill open=" << open;
        EXPECT_EQ(after, fresh.nextU64())
            << "post-fill state open=" << open;
    }
}

TEST(SimdBackend, RngBulkFillsMatchScalarDraws)
{
    const std::size_t n = 777;
    Rng a = testing::testRng(61);
    Rng b = testing::testRng(61);
    std::vector<std::uint64_t> filled(n);
    a.fillU64(filled.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(filled[i], b.nextU64()) << "word " << i;
    // Post-fill the streams stay in lockstep.
    EXPECT_EQ(a.nextU64(), b.nextU64());
}

// ---- 4. ziggurat -----------------------------------------------------

TEST(SimdBackend, ZigguratAcceptMatchesScalarAcrossIsas)
{
    // Synthetic layer tables: random thresholds, about half with the
    // top bit set so the unsigned magnitude compare is tested on both
    // sides of 2^31, layer 1 rejecting everything (as in the real
    // tables), and layer 0 below 2^31 so an INT32_MIN word (iz == 0,
    // |hz| == 2^31) must reject — a signed compare would accept it.
    Rng rng = testing::testRng(71);
    std::uint32_t kn[128];
    double wn[128];
    for (std::size_t i = 0; i < 128; ++i) {
        kn[i] = static_cast<std::uint32_t>(rng.nextU64() >> 32);
        wn[i] = (rng.nextDouble() + 0.5) * 1e-9;
    }
    kn[0] = 0x76AD2212u;
    kn[1] = 0;
    const double mu = -1.5;
    const double sigma = 2.25;

    // Lengths 0..40 cover every tail length mod 4 next to whole
    // packs; 1001 puts many rejects (and a 1-word tail) in one call.
    std::vector<std::size_t> lengths(41);
    for (std::size_t n = 0; n < lengths.size(); ++n)
        lengths[n] = n;
    lengths.push_back(1001);
    for (std::size_t n : lengths) {
        std::vector<std::uint64_t> words(n);
        for (std::size_t i = 0; i < n; ++i) {
            words[i] = rng.nextU64();
            if (i % 7 == 3) // hz = INT32_MIN, random high half
                words[i] = (words[i] & 0xFFFFFFFF00000000ull)
                           | 0x80000000ull;
        }
        std::vector<double> ref(n, -777.0);
        std::vector<std::uint32_t> refRejects(n);
        const std::size_t refCount = simd::zigguratAccept(
            simd::Isa::Scalar, words.data(), n, kn, wn, mu, sigma,
            ref.data(), refRejects.data());
        refRejects.resize(refCount);
        for (std::size_t i = 3; i < n; i += 7)
            EXPECT_TRUE(std::binary_search(refRejects.begin(),
                                           refRejects.end(), i))
                << "INT32_MIN word " << i << " accepted, n " << n;
        if (n == 1001)
            EXPECT_GT(refCount, n / 5);

        for (auto isa : kIsas) {
            std::vector<double> out(n, -777.0);
            std::vector<std::uint32_t> rejects(n);
            const std::size_t count = simd::zigguratAccept(
                isa, words.data(), n, kn, wn, mu, sigma, out.data(),
                rejects.data());
            rejects.resize(count);
            EXPECT_EQ(refRejects, rejects)
                << "isa " << simd::isaName(isa) << " n " << n;
            // Reject slots hold unspecified values; every accepted
            // slot must match bit for bit.
            for (std::uint32_t r : refRejects)
                out[r] = ref[r];
            EXPECT_TRUE(bitIdentical(ref, out))
                << "isa " << simd::isaName(isa) << " n " << n;
        }
    }
}

// ---- 5. plan equivalence and observability ---------------------------

TEST(SimdBackend, PlanOutputsBitIdenticalAcrossBackendsAndToggles)
{
    auto expr = stripHeavyGraph();
    const std::size_t n = 6000;
    const std::uint64_t seed = 81;

    // Reference: everything off, scalar interpreter — the literal
    // transcription semantics every configuration must reproduce.
    const auto ref = planSamples(expr, PlanOptions::disabled(), n,
                                 seed);
    for (const auto& options : testing::planConfigs()) {
        EXPECT_TRUE(bitIdentical(ref, planSamples(expr, options, n, seed)))
            << configName(options);
    }
}

/**
 * Values whose type cannot take a strip register — a std::string
 * between two double steps, and the std::pair column of
 * makeCorrelated — stay columns: their steps run as groups of one
 * between fused double groups, bit-identical to the unoptimized
 * scalar plan at every configuration.
 */
TEST(SimdBackend, NonRegisterableValuesStayColumnsInEveryGroup)
{
    auto x = gaussianLeaf(0.0, 1.0);
    auto scaled = x * 2.0 + 1.0;
    auto text = scaled.map([](double v) { return std::to_string(v); },
                           "to_string");
    auto parsed = text.map(
        [](const std::string& s) {
            return std::stod(s) + static_cast<double>(s.size());
        },
        "parse");
    auto joint = makeCorrelated<double, double>(
        [](Rng& rng) {
            const double v = rng.nextDouble();
            return std::pair<double, double>{v, v * 3.0};
        },
        "joint");
    auto expr = (parsed - scaled) * 0.5
                + (joint.first * 3.0 - joint.second) + joint.first * x;

    const auto stats = planStats(expr);
    EXPECT_GE(stats.fusedKernels, 2u) << stats.toString();

    const std::size_t n = 2017;
    const std::uint64_t seed = 84;
    const auto ref = planSamples(expr, PlanOptions::disabled(), n, seed);
    for (const auto& options : testing::planConfigs()) {
        EXPECT_TRUE(bitIdentical(ref, planSamples(expr, options, n, seed)))
            << configName(options);
    }
}

/**
 * Every sample of @p expr equals @p want on the tree walk and on the
 * plan at every configuration. n = 300 is one full strip (what a
 * JIT fragment runs) plus a 44-element tail, which covers whole packs
 * and a scalar tail on every lane width.
 */
template <typename T>
void
expectOnEveryPath(const Uncertain<T>& expr, T want, const std::string& what)
{
    const std::size_t n = batch::kStripElems + 44;
    auto allEqual = [&](const std::vector<T>& samples) {
        return samples.size() == n
               && std::all_of(samples.begin(), samples.end(),
                              [&](T v) { return v == want; });
    };
    Rng treeRng = testing::testRng(95);
    EXPECT_TRUE(allEqual(expr.takeSamples(n, treeRng)))
        << what << " tree walk";
    for (const auto& options : testing::planConfigs()) {
        Rng rng = testing::testRng(95);
        BatchSampler sampler(BatchOptions{1024, options});
        EXPECT_TRUE(allEqual(expr.takeSamples(n, rng, sampler)))
            << what << " " << configName(options);
    }
}

/**
 * Integer +, -, *, /, unary - and abs wrap modulo 2^width on every
 * path: the tree walk, constant folding (optimizer on), the scalar
 * strips, the SIMD kernels and, for the int64 +, - and * rows, the
 * JIT. The reference is computed here in the unsigned type. The zero
 * operand in front puts the op and the add after it in one fused
 * group, so Auto hands the pair to the JIT where it lowers them.
 */
template <typename T>
void
expectIntegerEdgesWrap()
{
    using U = std::make_unsigned_t<T>;
    using L = std::numeric_limits<T>;
    const T edges[] = {L::min(), L::min() + 1, -1, 0, 1, L::max() - 1,
                       L::max()};
    const Uncertain<T> zero(T{0});
    for (T x : edges) {
        const Uncertain<T> a(x);
        const T negated = static_cast<T>(U{} - U(x));
        expectOnEveryPath(zero + (-a), negated, "-" + std::to_string(x));
        expectOnEveryPath(zero + abs(a), x < 0 ? negated : x,
                          "abs " + std::to_string(x));
        for (T y : edges) {
            const Uncertain<T> b(y);
            const std::string pair =
                std::to_string(x) + ", " + std::to_string(y);
            expectOnEveryPath(zero + (a + b), static_cast<T>(U(x) + U(y)),
                              "add " + pair);
            expectOnEveryPath(zero + (a - b), static_cast<T>(U(x) - U(y)),
                              "sub " + pair);
            expectOnEveryPath(zero + (a * b), static_cast<T>(U(x) * U(y)),
                              "mul " + pair);
            if (y != 0) {
                expectOnEveryPath(zero + (a / b),
                                  y == -1 ? negated
                                          : static_cast<T>(x / y),
                                  "div " + pair);
            }
        }
    }
}

TEST(SimdBackend, IntegerEdgesWrapOnEveryPath)
{
    expectIntegerEdgesWrap<std::int32_t>();
    expectIntegerEdgesWrap<std::int64_t>();
}

/** @p run must throw the Error that names an integer zero divisor. */
template <typename F>
void
expectDivisionByZero(F run, const std::string& where)
{
    try {
        run();
        ADD_FAILURE() << where << ": no error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("integer division by zero"),
                  std::string::npos)
            << where << ": " << e.what();
    }
}

TEST(SimdBackend, IntegerDivisionByZeroThrowsOnEveryPath)
{
    const Uncertain<int> counts = Uncertain<int>::fromSampler(
        [](Rng& rng) { return static_cast<int>(rng.nextBelow(7)) - 3; },
        "counts");
    const Uncertain<int> zero(0);
    const auto divided = counts / zero + 1;
    const auto folded = Uncertain<int>(1) / 0;
    const std::size_t n = 3 * batch::kStripElems + 5;

    Rng treeRng = testing::testRng(96);
    expectDivisionByZero([&] { (void)divided.takeSamples(n, treeRng); },
                         "tree walk");
    for (const auto& options : testing::planConfigs()) {
        for (const auto* expr : {&divided, &folded}) {
            Rng rng = testing::testRng(96);
            BatchSampler sampler(BatchOptions{1024, options});
            expectDivisionByZero(
                [&] { (void)expr->takeSamples(n, rng, sampler); },
                (expr == &folded ? "folded " : "") + configName(options));
        }
    }

    // A query spread over scheduler helpers: the block that throws
    // may run on a helper, and the error still reaches the caller.
    auto scheduler = std::make_shared<BlockScheduler>(2);
    BatchSampler spread(BatchOptions{256}, nullptr, scheduler);
    Rng rng = testing::testRng(97);
    expectDivisionByZero(
        [&] { (void)divided.takeSamples(8 * 256 + 3, rng, spread); },
        "scheduler helpers");
    const auto mean =
        divided.map([](int v) { return static_cast<double>(v); });
    expectDivisionByZero(
        [&] { (void)mean.expectedValue(8 * 256 + 3, rng, spread); },
        "scheduler helpers, expected value");
}

TEST(SimdBackend, PlanStatsReportTheRequestedBackend)
{
    auto expr = stripHeavyGraph();

    PlanOptions scalar;
    scalar.backend = simd::ExecBackend::Scalar;
    auto scalarStats = planStats(expr, scalar);
    EXPECT_EQ(scalarStats.backendRequested, simd::ExecBackend::Scalar);
    EXPECT_FALSE(scalarStats.simdStrips);
    EXPECT_EQ(scalarStats.simdStripOps, 0u);
    EXPECT_GT(scalarStats.scalarStripOps, 0u);
    EXPECT_NE(scalarStats.toString().find("backend scalar"),
              std::string::npos);

    PlanOptions forced;
    forced.backend = simd::ExecBackend::Simd;
    auto simdStats = planStats(expr, forced);
    EXPECT_EQ(simdStats.backendRequested, simd::ExecBackend::Simd);
    // Simd is forced even on a scalar-only host: the kernels emulate.
    EXPECT_TRUE(simdStats.simdStrips);
    EXPECT_GT(simdStats.simdStripOps, 0u);
    EXPECT_NE(simdStats.toString().find("backend simd"),
              std::string::npos);

    // Auto follows the CPU: vector strips exactly when AVX2 is active
    // (the -DUNCERTAIN_SIMD=OFF build checks the scalar branch).
    auto autoStats = planStats(expr, PlanOptions{});
    EXPECT_EQ(autoStats.backendRequested, simd::ExecBackend::Auto);
    if (simd::activeIsa() == simd::Isa::Avx2) {
        EXPECT_TRUE(autoStats.simdStrips);
        EXPECT_EQ(autoStats.laneWidth, 4u);
        EXPECT_GT(autoStats.simdStripOps, 0u);
    } else {
        EXPECT_FALSE(autoStats.simdStrips);
        EXPECT_FALSE(autoStats.jitStrips);
        EXPECT_STREQ(autoStats.isa, "scalar");
        EXPECT_EQ(autoStats.laneWidth, 1u);
        EXPECT_EQ(autoStats.simdStripOps, 0u);
    }
}

TEST(SimdBackend, ExecCountersObserveVectorStrips)
{
    auto expr = stripHeavyGraph();
    const std::size_t n = 4096;

    PlanOptions forced;
    forced.backend = simd::ExecBackend::Simd;
    BatchSampler simdSampler(BatchOptions{1024, forced});
    Rng rngA = testing::testRng(91);
    (void)expr.takeSamples(n, rngA, simdSampler);
    auto simdExec = planExecCounters(expr, simdSampler);
    EXPECT_GT(simdExec.blocksExecuted, 0u);
    EXPECT_GT(simdExec.stripsExecuted, 0u);
    EXPECT_GT(simdExec.simdStripsExecuted, 0u);

    PlanOptions scalar;
    scalar.backend = simd::ExecBackend::Scalar;
    BatchSampler scalarSampler(BatchOptions{1024, scalar});
    Rng rngB = testing::testRng(91);
    (void)expr.takeSamples(n, rngB, scalarSampler);
    auto scalarExec = planExecCounters(expr, scalarSampler);
    EXPECT_GT(scalarExec.stripsExecuted, 0u);
    EXPECT_EQ(scalarExec.simdStripsExecuted, 0u);
    // Explicit Simd/Scalar requests never route through fragments.
    EXPECT_EQ(simdExec.jitStripsExecuted, 0u);
    EXPECT_EQ(scalarExec.jitStripsExecuted, 0u);
}

// ---- 5b. the JIT rung ------------------------------------------------

/**
 * A graph that pushes every IEEE edge case through the emitter's whole
 * op surface: ±inf and ±0 products, NaN-poisoned lanes, NaN-aware
 * min/max blends, a comparison against NaN (always false) feeding a
 * select, and a division whose operand lanes hit inf/inf and 0/0.
 */
Uncertain<double>
ieeeEdgeGraph()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto x = gaussianLeaf(0.0, 1.0);
    auto y = rayleighLeaf(0.8);
    auto signedZeros = x * 0.0;   // ±0 tracking sign(x)
    auto signedInfs = x * inf;    // ±inf, NaN at x == ±0
    auto poisoned = x + nan;      // NaN every lane
    auto blended = min(signedInfs, y) + max(poisoned, signedZeros);
    auto chosen = select(x < nan, poisoned, y); // NaN compare: false
    return blended + chosen / signedInfs;       // inf/inf, 0/0 lanes
}

TEST(SimdBackend, JitPlanHandlesIeeeEdgeCasesAndOddTails)
{
    auto expr = ieeeEdgeGraph();
    // 2017 % 1024 = 993 = 3 full strips + a 225-element tail, so the
    // fragment's full-strip path and the fallback tail path both run
    // and must agree with the interpreter bit for bit (NaN payloads
    // included — bitIdentical, not ==).
    const std::size_t n = 2017;
    const std::uint64_t seed = 83;
    const auto ref = planSamples(expr, PlanOptions::disabled(), n,
                                 seed);
    for (const auto& options : testing::planConfigs()) {
        EXPECT_TRUE(bitIdentical(ref, planSamples(expr, options, n, seed)))
            << configName(options);
    }
}

TEST(SimdBackend, JitBackendReportsStatsAndCounters)
{
    auto expr = stripHeavyGraph();
    PlanOptions options; // Auto: fused groups compile to fragments
    auto stats = planStats(expr, options);
    EXPECT_EQ(stats.backendRequested, simd::ExecBackend::Auto);
    EXPECT_NE(stats.toString().find("backend auto"), std::string::npos);
    if (!jit::available()) {
        EXPECT_FALSE(stats.jitStrips);
        EXPECT_EQ(stats.jitFragments, 0u);
        return;
    }
    EXPECT_TRUE(stats.jitStrips);
    EXPECT_GT(stats.jitStripOps, 0u);
    EXPECT_GT(stats.jitFragments, 0u);
    EXPECT_GT(stats.jitCodeBytes, 0u);
    EXPECT_NE(stats.toString().find("backend auto -> jit"),
              std::string::npos);
    EXPECT_NE(stats.toString().find(" fragments "), std::string::npos);

    BatchSampler sampler(BatchOptions{1024, options});
    Rng rng = testing::testRng(92);
    (void)expr.takeSamples(4096, rng, sampler);
    auto exec = planExecCounters(expr, sampler);
    EXPECT_GT(exec.jitStripsExecuted, 0u);
    EXPECT_LE(exec.jitStripsExecuted, exec.stripsExecuted);
}

TEST(SimdBackend, JitRefusesUnsupportedIntOpsAndFallsBack)
{
    // The JIT emitter refuses the int32 rows of the native-op table,
    // so under Auto this fused i32 chain gets no fragments and falls
    // back to the SIMD strips — bit-for-bit against the scalar
    // backend.
    auto die = Uncertain<int>::fromSampler(
        [](Rng& rng) { return static_cast<int>(rng.nextBelow(6)) + 1; },
        "d6");
    auto expr = die * Uncertain<int>(3) + die;

    PlanOptions autoOpt;
    auto stats = BatchPlan::compile(expr.node(), autoOpt)->stats();
    EXPECT_EQ(stats.backendRequested, simd::ExecBackend::Auto);
    EXPECT_FALSE(stats.jitStrips);
    EXPECT_EQ(stats.jitFragments, 0u);
    if (simd::activeIsa() == simd::Isa::Avx2) {
        // The report shows where the request landed.
        EXPECT_TRUE(stats.simdStrips);
        EXPECT_GT(stats.simdStripOps, 0u);
        EXPECT_NE(stats.toString().find("backend auto -> simd"),
                  std::string::npos);
    }

    PlanOptions scalarOpt;
    scalarOpt.backend = simd::ExecBackend::Scalar;
    Rng rngA = testing::testRng(84);
    Rng rngB = testing::testRng(84);
    BatchSampler autoSampler(BatchOptions{1024, autoOpt});
    BatchSampler scalarSampler(BatchOptions{1024, scalarOpt});
    EXPECT_EQ(expr.takeSamples(4000, rngA, autoSampler),
              expr.takeSamples(4000, rngB, scalarSampler));
}

TEST(SimdBackend, JitFragmentCacheSharedAcrossPlansAndThreads)
{
    if (!jit::available())
        GTEST_SKIP() << "plan-level JIT unavailable on this host";
    jit::clearFragmentCache();

    // Distinct graphs with identical shape: every thread compiles its
    // own plan, but the strip signatures coincide, so the process-wide
    // fragment cache is hit concurrently — the TSan shard runs this
    // test to certify the cache locking.
    PlanOptions options; // Auto
    const std::size_t n = 2048;
    const std::uint64_t seed = 86;
    const auto ref = planSamples(stripHeavyGraph(), options, n, seed);

    constexpr int kThreads = 4;
    std::vector<std::vector<double>> out(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&out, &options, t] {
            out[t] = planSamples(stripHeavyGraph(), options, 2048, 86);
        });
    for (auto& th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_TRUE(bitIdentical(ref, out[t])) << "thread " << t;

    auto frag = jit::fragmentCacheStats();
    EXPECT_GT(frag.size, 0u);
    EXPECT_GT(frag.hits, 0u); // same-shape plans shared compiled code
}

// ---- 6. law conformance ----------------------------------------------

TEST(SimdBackendStatistical, FusedAffineChainFollowsTheAnalyticLaw)
{
    // x ~ N(1, 2); ((x * 3 + 1) - 0.5) * 0.25 ~ N(0.875, 1.5). The
    // chain's point-mass operands ride the broadcast-constant
    // micro-ops under the SIMD backend.
    auto expr = ((gaussianLeaf(1.0, 2.0) * 3.0 + 1.0) - 0.5) * 0.25;
    PlanOptions options;
    options.backend = simd::ExecBackend::Simd;
    auto samples = planSamples(expr, options, 30000, 101);
    random::Gaussian truth(0.875, 1.5);
    EXPECT_TRUE(testing::ksMatchesDistribution(samples, truth));
    EXPECT_TRUE(testing::momentsMatch(samples, 0.875, 1.5));
}

TEST(SimdBackendStatistical, ZigguratSampleManyMatchesTheLaw)
{
    // On hosts with AVX2 this runs the vector accept pass; elsewhere
    // the scalar layer.
    random::Gaussian dist(0.5, 1.75);
    const std::size_t n = 50000;
    std::vector<double> samples(n);
    Rng rng = testing::testRng(103);
    dist.sampleMany(rng, samples.data(), n);
    EXPECT_TRUE(testing::ksMatchesDistribution(samples, dist));
    EXPECT_TRUE(testing::momentsMatch(samples, 0.5, 1.75));
}

TEST(SimdBackendCertification, ZigguratVectorAcceptCertified)
{
    auto dist = std::make_shared<random::Gaussian>(-2.0, 0.8);
    Rng rng = testing::testRng(111);
    auto result = stats::certifyContinuous(
        "gaussian-ziggurat-simd", stats::bulkSampler(dist), *dist, rng,
        testing::certifyOptions());
    EXPECT_TRUE(testing::certifiedPass(result));
}

TEST(SimdBackendCertification, OptimizedPlanRootColumnCertified)
{
    // Root column of a fully optimized SIMD-backed plan; the affine
    // chain keeps the root law closed-form.
    auto expr = (gaussianLeaf(0.0, 1.0) * 1.25 - 0.5) * 0.8 + 2.0;
    random::Gaussian truth(1.6, 1.0);

    PlanOptions options;
    options.backend = simd::ExecBackend::Simd;
    auto sampler = [expr, options](Rng& rng, double* out,
                                   std::size_t n) {
        BatchSampler batch(BatchOptions{8192, options});
        auto samples = expr.takeSamples(n, rng, batch);
        std::copy(samples.begin(), samples.end(), out);
    };
    Rng rng = testing::testRng(113);
    auto result = stats::certifyContinuous(
        "batch-plan-root-simd", sampler, truth, rng,
        testing::certifyOptions());
    EXPECT_TRUE(testing::certifiedPass(result));
}

} // namespace
} // namespace core
} // namespace uncertain
