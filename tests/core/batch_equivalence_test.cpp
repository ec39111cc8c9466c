/**
 * @file
 * Acceptance suite for the columnar batch engine (core/batch.hpp):
 * the compiled plan must draw from exactly the law of the per-sample
 * tree walk. Pillars:
 *
 *  1. Distributional equivalence — two-sample KS at testing::kKsAlpha
 *     between tree-walk and batch sample sets on the Figure 8
 *     topologies (Gaussian, Rayleigh, mixture, shared-leaf).
 *  2. Shared-leaf (SSA) semantics — in the lowered plan both
 *     occurrences of X in (Y + X) + X read one column, so the
 *     residual B - Y - 2X is identically zero and Var[(Y+X)+X] = 5.
 *  3. Engine determinism — same seed, same output, across block
 *     boundaries and plan-cache hits; a BatchSampler over a
 *     BlockScheduler at any thread count is bit-identical to one
 *     without a scheduler.
 *  4. Decision parity — batched-evidence SPRT conditionals agree with
 *     the serial SPRT at the paper's operating points.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "core/core.hpp"
#include "random/gaussian.hpp"
#include "random/mixture.hpp"
#include "random/rayleigh.hpp"
#include "stats/summary.hpp"
#include "stat_assert.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace core {
namespace {

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

Uncertain<double>
mixtureLeaf()
{
    return fromDistribution(std::make_shared<random::Mixture>(
        std::vector<random::DistributionPtr>{
            std::make_shared<random::Gaussian>(-2.0, 0.5),
            std::make_shared<random::Gaussian>(3.0, 1.0),
        },
        std::vector<double>{0.4, 0.6}));
}

/** The Figure 8(b) shared-leaf topology: (Y + X) + X. */
Uncertain<double>
sharedLeafGraph()
{
    auto x = gaussianLeaf(0.0, 1.0);
    auto y = gaussianLeaf(0.0, 1.0);
    return (y + x) + x;
}

std::vector<double>
batchSamples(const Uncertain<double>& expr, std::size_t n,
             std::uint64_t seed, std::size_t blockSize = 1024)
{
    Rng rng = testing::testRng(seed);
    BatchSampler sampler(BatchOptions{blockSize});
    return expr.takeSamples(n, rng, sampler);
}

TEST(BatchEquivalence, TreeWalkVsBatchKsGaussian)
{
    auto expr = gaussianLeaf(0.0, 1.0) * 2.0 + 1.0;
    const std::size_t n = 20000;
    Rng treeRng = testing::testRng(1003);
    auto tree = expr.takeSamples(n, treeRng);
    auto batch = batchSamples(expr, n, 1004);
    EXPECT_TRUE(testing::ksSameDistribution(tree, batch));
}

TEST(BatchEquivalence, TreeWalkVsBatchKsRayleigh)
{
    auto expr = rayleighLeaf(1.63);
    const std::size_t n = 20000;
    Rng treeRng = testing::testRng(1005);
    auto tree = expr.takeSamples(n, treeRng);
    auto batch = batchSamples(expr, n, 1006);
    EXPECT_TRUE(testing::ksSameDistribution(tree, batch));
}

TEST(BatchEquivalence, TreeWalkVsBatchKsMixture)
{
    auto expr = mixtureLeaf();
    const std::size_t n = 20000;
    Rng treeRng = testing::testRng(1007);
    auto tree = expr.takeSamples(n, treeRng);
    auto batch = batchSamples(expr, n, 1008);
    EXPECT_TRUE(testing::ksSameDistribution(tree, batch));
}

TEST(BatchEquivalence, TreeWalkVsBatchKsSharedLeafGraph)
{
    auto expr = sharedLeafGraph();
    const std::size_t n = 20000;
    Rng treeRng = testing::testRng(1009);
    auto tree = expr.takeSamples(n, treeRng);
    auto batch = batchSamples(expr, n, 1010);
    EXPECT_TRUE(testing::ksSameDistribution(tree, batch));

    // Figure 8(b): Var[(Y+X)+X] = Var[Y] + 4 Var[X] = 5, not the
    // naive 2 + 1 = 3 a per-occurrence redraw would give.
    stats::OnlineSummary summary;
    for (double v : batch)
        summary.add(v);
    EXPECT_NEAR(summary.variance(), 5.0, 0.4);
}

TEST(BatchEquivalence, SharedSubexpressionResidualIsZeroInBatch)
{
    // B - Y - 2X is identically zero only if every occurrence of X
    // (and Y) reads the same column — the lowered plan's SSA form of
    // the epoch memo.
    auto x = gaussianLeaf(0.0, 1.0);
    auto y = gaussianLeaf(0.0, 1.0);
    auto residual = ((y + x) + x) - y - (x * 2.0);
    auto values = batchSamples(residual, 5000, 1011, 512);
    for (double v : values)
        ASSERT_NEAR(v, 0.0, 1e-12);
}

TEST(BatchEquivalence, SameSeedIsBitIdenticalAcrossCalls)
{
    // Second call compiles nothing (plan cache hit) and must still
    // reproduce the first exactly from an equal Rng state.
    auto expr = sharedLeafGraph();
    BatchSampler sampler(BatchOptions{256});
    Rng rngA = testing::testRng(1012);
    Rng rngB = testing::testRng(1012);
    auto first = expr.takeSamples(4000, rngA, sampler);
    auto second = expr.takeSamples(4000, rngB, sampler);
    EXPECT_EQ(first, second);
}

TEST(BatchEquivalence, RepeatedCallsAdvanceTheStreamFamily)
{
    auto expr = gaussianLeaf(0.0, 1.0);
    Rng rng = testing::testRng(1013);
    BatchSampler sampler;
    auto first = expr.takeSamples(1000, rng, sampler);
    auto second = expr.takeSamples(1000, rng, sampler);
    EXPECT_NE(first, second);
}

TEST(BatchEquivalence, BlockBoundariesDoNotDistortTheLaw)
{
    // n deliberately not a multiple of blockSize: the tail block is
    // shorter and must still follow the same law.
    auto expr = sharedLeafGraph();
    auto odd = batchSamples(expr, 20001, 1014, 4096);
    auto tiny = batchSamples(expr, 20001, 1015, 17);
    EXPECT_TRUE(testing::ksSameDistribution(odd, tiny));
}

TEST(BatchEquivalence, ParallelEngineMatchesBatchBitExactly)
{
    // Acceptance criterion: the batch engine over a BlockScheduler
    // (no helpers at one thread, helpers beyond) runs the same blocks
    // as the serial loop, so outputs are identical bit for bit.
    auto expr = sharedLeafGraph();
    const std::size_t n = 10000;
    auto batch = batchSamples(expr, n, 1016, 512);
    for (unsigned threads : {1u, 2u, 8u}) {
        Rng rng = testing::testRng(1016);
        BatchSampler parallel(
            BatchOptions{512}, nullptr,
            std::make_shared<BlockScheduler>(threads - 1));
        auto samples = expr.takeSamples(n, rng, parallel);
        EXPECT_EQ(batch, samples) << "threads " << threads;
    }
}

TEST(BatchEquivalence, ExpectedValueMatchesTreeWalkWithinTolerance)
{
    auto expr = sharedLeafGraph();
    const std::size_t n = 20000;
    Rng rng = testing::testRng(1017);
    BatchSampler sampler;
    double batch = expr.expectedValue(n, rng, sampler);
    // sd of (Y+X)+X is sqrt(5) ~ 2.24.
    EXPECT_NEAR(batch, 0.0, testing::meanTolerance(2.24, n));
}

TEST(BatchEquivalence, ProbabilityMatchesSerialEstimate)
{
    auto speed = gaussianLeaf(4.2, 1.0);
    auto cond = speed > 4.0;
    const std::size_t n = 50000;
    Rng serialRng = testing::testRng(1018);
    double serial = cond.probability(n, serialRng);
    Rng batchRng = testing::testRng(1019);
    BatchSampler sampler(BatchOptions{2048});
    double batch = cond.probability(n, batchRng, sampler);
    EXPECT_NEAR(batch, serial,
                2.0 * testing::proportionTolerance(0.58, n));
}

TEST(BatchEquivalence, SprtDecisionParityAtOperatingPoints)
{
    struct Point
    {
        double mu;
        bool expected;
    };
    const Point points[] = {{4.8, true}, {3.2, false}};
    ConditionalOptions options;
    BatchSampler sampler;
    for (const auto& point : points) {
        auto cond = gaussianLeaf(point.mu, 1.0) > 4.0;
        for (int trial = 0; trial < 20; ++trial) {
            Rng serialRng = testing::testRng(
                1820 + static_cast<std::uint64_t>(trial));
            Rng batchRng = testing::testRng(
                1860 + static_cast<std::uint64_t>(trial));
            bool serial = cond.pr(0.5, options, serialRng);
            bool batch = cond.pr(0.5, options, batchRng, sampler);
            EXPECT_EQ(serial, point.expected) << "mu " << point.mu;
            EXPECT_EQ(batch, point.expected) << "mu " << point.mu;
        }
    }
}

TEST(BatchEquivalence, PointMassColumnsAreConstant)
{
    auto expr = gaussianLeaf(0.0, 1.0) * 0.0 + 42.0;
    auto values = batchSamples(expr, 3000, 1020);
    for (double v : values)
        ASSERT_EQ(v, 42.0);
}

TEST(BatchEquivalence, CorrelatedLeavesShareOneDrawPerSample)
{
    // makeCorrelated routes both marginals through one pair-typed
    // leaf; the lowered plan must keep that sharing, so first - second
    // of a perfectly correlated joint is identically zero.
    auto joint = makeCorrelated<double, double>(
        [](Rng& rng) {
            double v = rng.nextDouble();
            return std::pair<double, double>{v, v};
        },
        "diag");
    auto residual = joint.first - joint.second;
    auto values = batchSamples(residual, 2000, 1021);
    for (double v : values)
        ASSERT_EQ(v, 0.0);
}

} // namespace
} // namespace core
} // namespace uncertain
