/**
 * @file
 * Pass-by-pass unit tests for the batch-plan optimizer
 * (core/batch_plan.hpp). The contract under test: the optimizer, at
 * every execution backend, leaves the drawn samples bit-identical to
 * the unoptimized plan, while PlanStats reports what each pass
 * actually did.
 *
 *  - structural CSE merges structurally equal interior nodes but
 *    never merges distinct stochastic leaves (Figure 8 SSA semantics);
 *  - constant folding matches scalar evaluation exactly and hoists
 *    the splats out of the per-block loop;
 *  - fusion is bit-exact on integer/comparison ops and (at least)
 *    KS-equivalent at testing::kKsAlpha on floating-point chains — on
 *    this implementation it is in fact bit-exact there too, because
 *    no pass reassociates floating point;
 *  - buffer reuse produces identical output to no-reuse plans while
 *    materializing fewer columns.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "core/inspect.hpp"
#include "random/gaussian.hpp"
#include "plan_configs.hpp"
#include "stat_assert.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace core {
namespace {

Uncertain<double>
gaussianLeaf(double mu = 0.0, double sigma = 1.0)
{
    return fromDistribution(
        std::make_shared<random::Gaussian>(mu, sigma));
}

/** Chain of @p depth additions over fresh leaves (the bench graph). */
Uncertain<double>
buildChain(int depth)
{
    auto acc = gaussianLeaf();
    for (int i = 1; i < depth; ++i)
        acc = acc + gaussianLeaf();
    return acc;
}

template <typename T>
std::vector<T>
samplesWith(const Uncertain<T>& expr, const PlanOptions& optimizer,
            std::size_t n, std::uint64_t seed,
            std::size_t blockSize = 1024)
{
    Rng rng = testing::testRng(seed);
    BatchSampler sampler(BatchOptions{blockSize, optimizer});
    return expr.takeSamples(n, rng, sampler);
}

/** The optimizer off at the default backend. */
const PlanOptions kUnoptimized{false, simd::ExecBackend::Auto};

// ---------------------------------------------------------------------
// Structural CSE.
// ---------------------------------------------------------------------

TEST(BatchOptimizer, CseMergesStructurallyEqualInteriorNodes)
{
    // Two *distinct* (x + y) node objects over the same leaves. The
    // tree walk memoizes x and y per epoch, so both sums take equal
    // values; the optimizer must prove that structurally and share
    // one column.
    auto x = gaussianLeaf();
    auto y = gaussianLeaf();
    auto s1 = x + y;
    auto s2 = x + y;
    ASSERT_NE(s1.node().get(), s2.node().get());
    auto expr = s1 * s2;

    auto stats = planStats(expr);
    EXPECT_EQ(stats.columnsLowered, 5u); // x, y, s1, s2, product
    EXPECT_EQ(stats.leafColumns, 2u);
    EXPECT_EQ(stats.cseMerged, 1u);
    EXPECT_EQ(stats.deadStepsRemoved, 0u);

    auto optimized = samplesWith(expr, PlanOptions{}, 6000, 42);
    auto plain = samplesWith(expr, PlanOptions::disabled(), 6000, 42);
    EXPECT_EQ(optimized, plain);

    // (x + y)^2 is nonnegative; a bad merge with a fresh draw is not.
    for (double v : optimized)
        ASSERT_GE(v, 0.0);
}

TEST(BatchOptimizer, CseNeverMergesDistinctStochasticLeaves)
{
    // x + y over iid leaves: the leaves are structurally identical
    // (same distribution, same parameters) but statistically
    // distinct. Var[x + y] = 2; a leaf merge would produce 2x with
    // variance 4.
    auto expr = gaussianLeaf() + gaussianLeaf();
    auto stats = planStats(expr);
    EXPECT_EQ(stats.cseMerged, 0u);
    EXPECT_EQ(stats.leafColumns, 2u);

    auto samples = samplesWith(expr, PlanOptions{}, 20000, 43);
    EXPECT_TRUE(
        testing::momentsMatch(samples, 0.0, std::sqrt(2.0)));

    // And the deliberate share keeps its Figure 8 variance of 4.
    auto x = gaussianLeaf();
    auto shared = x + x;
    auto sharedSamples = samplesWith(shared, PlanOptions{}, 20000, 44);
    EXPECT_TRUE(testing::momentsMatch(sharedSamples, 0.0, 2.0));
}

TEST(BatchOptimizer, CseSkipsStatefulFunctors)
{
    // clamp carries captured bounds: two clamp nodes have the same
    // functor *type* but different state, so they must not merge.
    auto x = gaussianLeaf();
    auto narrow = clamp(x, -0.5, 0.5);
    auto wide = clamp(x, -2.0, 2.0);
    auto expr = narrow + wide;

    auto optimized = samplesWith(expr, PlanOptions{}, 6000, 45);
    auto plain = samplesWith(expr, PlanOptions::disabled(), 6000, 45);
    EXPECT_EQ(optimized, plain);
}

// ---------------------------------------------------------------------
// Constant folding.
// ---------------------------------------------------------------------

TEST(BatchOptimizer, ConstantFoldingMatchesScalarEvaluation)
{
    // A pure point-mass subtree folds to one hoisted splat whose
    // value matches scalar arithmetic exactly.
    Uncertain<double> c(2.5);
    auto expr = c * 4.0 + 1.5;

    auto stats = planStats(expr);
    EXPECT_EQ(stats.constantsFolded, 2u);
    EXPECT_EQ(stats.constantsHoisted, 1u); // only the root survives DCE
    EXPECT_GE(stats.deadStepsRemoved, 2u);

    auto samples = samplesWith(expr, PlanOptions{}, 3000, 46);
    for (double v : samples)
        ASSERT_EQ(v, 2.5 * 4.0 + 1.5);
}

TEST(BatchOptimizer, ConstantSubtreeUnderStochasticRootFolds)
{
    // leaf + (2.0 * 3.0): the constant subtree collapses, the sum
    // does not, and the output is bit-identical to the unoptimized
    // plan (same scalar constant feeds the same add kernel).
    auto expr = gaussianLeaf() + Uncertain<double>(2.0) * 3.0;

    auto stats = planStats(expr);
    EXPECT_EQ(stats.constantsFolded, 1u);
    EXPECT_EQ(stats.constantsHoisted, 1u);

    auto optimized = samplesWith(expr, PlanOptions{}, 6000, 47);
    auto plain = samplesWith(expr, PlanOptions::disabled(), 6000, 47);
    EXPECT_EQ(optimized, plain);
}

TEST(BatchOptimizer, HoistedConstantsSurviveShrinkingBlocks)
{
    // n not divisible by blockSize: the last block is shorter, and a
    // later call reuses the workspace with a shorter first block. The
    // hoisted splat must still cover every index read.
    auto expr = gaussianLeaf() * Uncertain<double>(2.0)
                + Uncertain<double>(7.0);
    Rng rng = testing::testRng(48);
    BatchSampler sampler(BatchOptions{512, PlanOptions{}});
    auto first = expr.takeSamples(1200, rng, sampler);
    auto second = expr.takeSamples(300, rng, sampler);
    Rng plainRng = testing::testRng(48);
    BatchSampler plain(BatchOptions{512, PlanOptions::disabled()});
    auto firstPlain = expr.takeSamples(1200, plainRng, plain);
    auto secondPlain = expr.takeSamples(300, plainRng, plain);
    EXPECT_EQ(first, firstPlain);
    EXPECT_EQ(second, secondPlain);
}

// ---------------------------------------------------------------------
// Elementwise fusion.
// ---------------------------------------------------------------------

TEST(BatchOptimizer, FusedComparisonOpsAreBitExact)
{
    // Boolean root over a fused arithmetic chain: comparisons and
    // logical combines are integer-valued, so optimized and
    // unoptimized plans must agree exactly, element by element.
    auto x = gaussianLeaf();
    auto y = gaussianLeaf();
    auto expr = ((x * 2.0 + y) > 0.5) && (x < 1.0);

    auto stats = planStats(expr);
    EXPECT_GE(stats.fusedKernels, 1u);
    EXPECT_GE(stats.fusedOps, 2u);

    auto optimized = samplesWith(expr, PlanOptions{}, 8000, 49);
    auto plain = samplesWith(expr, PlanOptions::disabled(), 8000, 49);
    EXPECT_EQ(optimized, plain);
}

TEST(BatchOptimizer, FusedFpChainMatchesUnfused)
{
    // Deep unary/binary fp chain — the Fig. 6 compounding-error
    // shape. The ISSUE requires KS-equivalence at alpha; this
    // implementation never reassociates fp, so assert bit-exactness
    // too (the stronger regression guard).
    auto acc = gaussianLeaf();
    for (int i = 0; i < 12; ++i)
        acc = acc * 1.01 + 0.125 - gaussianLeaf(0.0, 0.01);

    auto fused = samplesWith(acc, PlanOptions{}, 20000, 50);
    auto unfused = samplesWith(acc, kUnoptimized, 20000, 50);
    EXPECT_TRUE(testing::ksSameDistribution(fused, unfused));
    EXPECT_EQ(fused, unfused);
}

/**
 * select(t, d, x) where t ands @p bools comparisons of one leaf x and
 * d sums @p terms scaled copies of x. Both are nested to the right,
 * so every comparison is live when the first `&&` runs and every
 * product when the first `+` runs.
 */
Uncertain<double>
wideRunGraph(int bools, int terms)
{
    auto x = gaussianLeaf();
    std::vector<Uncertain<bool>> b;
    for (int i = 0; i < bools; ++i)
        b.push_back(x > 0.001 * i);
    auto t = b.back();
    for (int i = bools - 2; i >= 0; --i)
        t = b[static_cast<std::size_t>(i)] && t;
    std::vector<Uncertain<double>> m;
    for (int i = 0; i < terms; ++i)
        m.push_back(x * (1.0 + 0.01 * i));
    auto d = m.back();
    for (int i = terms - 2; i >= 0; --i)
        d = m[static_cast<std::size_t>(i)] + d;
    return select(t, d, x);
}

TEST(BatchOptimizer, WideFusableRunIsOneGroup)
{
    // One fusable run whose strip registers pass 32 KiB: the fusion
    // pass makes it one group, whatever its width, and the output
    // keeps the unoptimized plan's bits on every backend.
    for (const auto& [bools, terms] : {std::pair{100, 14}, {120, 15}}) {
        auto expr = wideRunGraph(bools, terms);
        EXPECT_EQ(planStats(expr).fusedKernels, 1u)
            << bools << " x " << terms;
        const std::size_t n = 2017;
        auto reference = samplesWith(expr, PlanOptions::disabled(), n, 54);
        for (const auto& options : testing::planConfigs()) {
            auto samples = samplesWith(expr, options, n, 54);
            ASSERT_EQ(samples.size(), n);
            EXPECT_EQ(std::memcmp(samples.data(), reference.data(),
                                  n * sizeof(double)),
                      0)
                << bools << " x " << terms << " optimize "
                << options.optimize << " backend "
                << simd::backendName(options.backend);
        }
    }
}

// ---------------------------------------------------------------------
// Buffer reuse.
// ---------------------------------------------------------------------

TEST(BatchOptimizer, BufferReuseIsOutputInvariant)
{
    auto expr = buildChain(16);
    auto recycled = samplesWith(expr, PlanOptions{}, 10000, 51);
    auto plain = samplesWith(expr, kUnoptimized, 10000, 51);
    EXPECT_EQ(recycled, plain);
}

TEST(BatchOptimizer, BufferReuseShrinksDepth64WorkspaceAtLeast2x)
{
    // The acceptance graph: depth-64 chain of fresh leaves. 127
    // logical columns must map onto far fewer physical ones; the
    // acceptance criterion is >= 2x less peak workspace.
    auto expr = buildChain(64);
    auto stats = planStats(expr);
    EXPECT_EQ(stats.columnsLowered, 127u);
    EXPECT_EQ(stats.leafColumns, 64u);
    EXPECT_LT(stats.columnsMaterialized, stats.columnsLowered);
    EXPECT_LE(stats.bytesPerSampleMaterialized * 2,
              stats.bytesPerSampleLowered);
    EXPECT_LE(stats.peakWorkspaceBytes(8192) * 2,
              stats.unoptimizedWorkspaceBytes(8192));
}

// ---------------------------------------------------------------------
// The whole pipeline.
// ---------------------------------------------------------------------

/** A graph exercising every pass at once: shared structural dups,
 *  constant subtrees, fusable fp chains, and a comparison. */
Uncertain<double>
representativeGraph()
{
    auto x = gaussianLeaf();
    auto y = gaussianLeaf(1.0, 2.0);
    auto s1 = x + y;
    auto s2 = x + y;                       // CSE candidate
    auto k = Uncertain<double>(3.0) * 2.0; // folds to 6
    auto chain = (s1 * s2 - k) * 0.25 + 1.0;
    for (int i = 0; i < 4; ++i)
        chain = chain * 0.99 + 0.01;
    return chain;
}

TEST(BatchOptimizer, AllToggleCombinationsAreBitIdentical)
{
    auto expr = representativeGraph();
    auto baseline =
        samplesWith(expr, PlanOptions::disabled(), 8000, 52, 768);
    for (const auto& options : testing::planConfigs()) {
        auto samples = samplesWith(expr, options, 8000, 52, 768);
        EXPECT_EQ(samples, baseline)
            << "optimize " << options.optimize << " backend "
            << simd::backendName(options.backend);
    }
}

TEST(BatchOptimizer, ThreadedSamplerRunsOptimizedPlansUnchanged)
{
    // A BatchSampler over a BlockScheduler is bit-identical to one
    // without; that must keep holding with the optimizer on in the
    // threaded sampler and off in the serial one.
    auto expr = representativeGraph();
    const std::size_t n = 6000;

    Rng batchRng = testing::testRng(53);
    BatchSampler batch(BatchOptions{512, PlanOptions::disabled()});
    auto serial = expr.takeSamples(n, batchRng, batch);

    for (unsigned threads : {1u, 2u, 4u}) {
        Rng rng = testing::testRng(53);
        BatchSampler parallel(
            BatchOptions{512, PlanOptions{}}, nullptr,
            std::make_shared<BlockScheduler>(threads - 1));
        auto chunked = expr.takeSamples(n, rng, parallel);
        EXPECT_EQ(chunked, serial) << "threads " << threads;
    }
}

TEST(BatchOptimizer, OptimizerIsOnByDefault)
{
    PlanOptions defaults;
    EXPECT_TRUE(defaults.optimize);
    EXPECT_EQ(defaults.backend, simd::ExecBackend::Auto);
    EXPECT_FALSE(PlanOptions::disabled().optimize);
    BatchOptions batchDefaults;
    EXPECT_TRUE(batchDefaults.optimizer.optimize);
}

} // namespace
} // namespace core
} // namespace uncertain
