/**
 * @file
 * Statistical-equivalence suite for parallel sampling: a BatchSampler
 * built over a BlockScheduler (the caller plus threads - 1 helpers)
 * must change nothing observable. Three pillars:
 *
 *  1. Bit-exact determinism — a fixed seed produces the identical
 *     sample vector at 1, 2, and 8 threads (block-keyed split
 *     streams), and every query (takeSamples, expectedValue,
 *     probability, evaluate) is bit-identical to the same sampler
 *     without a scheduler.
 *  2. Distributional equivalence — two-sample KS tests at
 *     testing::kKsAlpha between serial and parallel sample sets on
 *     the Figure 8 graph topologies (independent leaves, shared
 *     leaves, mixtures), via tests/stat_assert.hpp.
 *  3. Decision parity — chunk-wise SPRT conditionals accept/reject at
 *     the same rates as the serial SPRT at the paper's operating
 *     points, with sample sizes within one chunk.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
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

/** A sampler whose blocks run on @p threads threads: the caller
 *  plus a scheduler of threads - 1 helpers. */
BatchSampler
threadedSampler(unsigned threads, std::size_t blockSize)
{
    return BatchSampler(BatchOptions{blockSize}, nullptr,
                        std::make_shared<BlockScheduler>(threads - 1));
}

std::vector<double>
parallelSamples(const Uncertain<double>& expr, std::size_t n,
                unsigned threads, std::uint64_t seed,
                std::size_t blockSize = 256)
{
    Rng rng = testing::testRng(seed);
    BatchSampler sampler = threadedSampler(threads, blockSize);
    return expr.takeSamples(n, rng, sampler);
}

TEST(ParallelEquivalence, BitExactAcrossThreadCounts)
{
    const std::size_t n = 10000;
    for (auto make :
         {+[] { return gaussianLeaf(0.0, 1.0); },
          +[] { return rayleighLeaf(1.63); }, +[] { return mixtureLeaf(); },
          +[] { return sharedLeafGraph(); }}) {
        auto expr = make();
        auto one = parallelSamples(expr, n, 1, 800);
        auto two = parallelSamples(expr, n, 2, 800);
        auto eight = parallelSamples(expr, n, 8, 800);
        EXPECT_EQ(one, two);
        EXPECT_EQ(one, eight);
    }
}

TEST(ParallelEquivalence, BitExactToSerialBatchSamplerAtEqualBlockSize)
{
    // The block partition defines the stream family, so a scheduler
    // at any thread count must reproduce the sampler without one.
    // This is also the regression test for the threads == 1 inline
    // path: a scheduler with no helpers runs the same serial loop.
    auto expr = sharedLeafGraph();
    const std::size_t n = 5000;
    Rng batchRng = testing::testRng(801);
    BatchSampler batch(BatchOptions{256});
    auto serial = expr.takeSamples(n, batchRng, batch);
    for (unsigned threads : {1u, 4u}) {
        auto parallel = parallelSamples(expr, n, threads, 801, 256);
        EXPECT_EQ(serial, parallel) << "threads " << threads;
    }
}

TEST(ParallelEquivalence, EveryQueryBitExactAcrossHelperCounts)
{
    // One sampler configuration, four schedules: no scheduler, and
    // schedulers of 1, 3 and 7 helpers. At blockSize 64 a 256-draw
    // evidence chunk spans four blocks, so the conditional's evidence
    // really runs on the helpers, and its stream (like every other
    // query's) must not depend on how many there are.
    auto expr = sharedLeafGraph();
    auto cond = expr > 0.3;
    ConditionalOptions options;
    options.sprt.maxSamples = 3000;
    struct Answers
    {
        std::vector<double> samples;
        double mean;
        double probability;
        ConditionalResult conditional;
    };
    auto run = [&](std::shared_ptr<BlockScheduler> scheduler) {
        BatchSampler sampler(BatchOptions{64}, nullptr,
                             std::move(scheduler));
        Rng rng = testing::testRng(815);
        Answers a;
        a.samples = expr.takeSamples(3000, rng, sampler);
        a.mean = expr.expectedValue(3000, rng, sampler);
        a.probability = cond.probability(3000, rng, sampler);
        a.conditional = cond.evaluate(0.45, options, rng, sampler);
        return a;
    };
    // Pr[(Y + X) + X > 0.3] ~ 0.447 sits near the 0.45 threshold, so
    // the test often needs more than one chunk; even the first chunk
    // spans four blocks.
    const Answers serial = run(nullptr);
    for (unsigned helpers : {1u, 3u, 7u}) {
        const Answers threaded =
            run(std::make_shared<BlockScheduler>(helpers));
        ASSERT_EQ(serial.samples.size(), threaded.samples.size());
        EXPECT_EQ(0, std::memcmp(serial.samples.data(),
                                 threaded.samples.data(),
                                 serial.samples.size() * sizeof(double)))
            << "helpers " << helpers;
        EXPECT_EQ(0, std::memcmp(&serial.mean, &threaded.mean,
                                 sizeof(double)))
            << "helpers " << helpers;
        EXPECT_EQ(serial.probability, threaded.probability)
            << "helpers " << helpers;
        EXPECT_EQ(serial.conditional.decision,
                  threaded.conditional.decision)
            << "helpers " << helpers;
        EXPECT_EQ(serial.conditional.samplesUsed,
                  threaded.conditional.samplesUsed)
            << "helpers " << helpers;
        EXPECT_EQ(0, std::memcmp(&serial.conditional.estimate,
                                 &threaded.conditional.estimate,
                                 sizeof(double)))
            << "helpers " << helpers;
    }
}

TEST(ParallelEquivalence, RepeatedCallsAdvanceTheStreamFamily)
{
    auto expr = gaussianLeaf(0.0, 1.0);
    Rng rng = testing::testRng(802);
    BatchSampler sampler = threadedSampler(2, 256);
    auto first = expr.takeSamples(1000, rng, sampler);
    auto second = expr.takeSamples(1000, rng, sampler);
    EXPECT_NE(first, second);
}

TEST(ParallelEquivalence, SerialVsParallelKsGaussian)
{
    auto expr = gaussianLeaf(0.0, 1.0) * 2.0 + 1.0;
    const std::size_t n = 20000;
    Rng serialRng = testing::testRng(803);
    auto serial = expr.takeSamples(n, serialRng);
    auto parallel = parallelSamples(expr, n, 8, 804);
    EXPECT_TRUE(testing::ksSameDistribution(serial, parallel));
}

TEST(ParallelEquivalence, SerialVsParallelKsRayleigh)
{
    auto expr = rayleighLeaf(1.63);
    const std::size_t n = 20000;
    Rng serialRng = testing::testRng(805);
    auto serial = expr.takeSamples(n, serialRng);
    auto parallel = parallelSamples(expr, n, 8, 806);
    EXPECT_TRUE(testing::ksSameDistribution(serial, parallel));
}

TEST(ParallelEquivalence, SerialVsParallelKsMixture)
{
    auto expr = mixtureLeaf();
    const std::size_t n = 20000;
    Rng serialRng = testing::testRng(807);
    auto serial = expr.takeSamples(n, serialRng);
    auto parallel = parallelSamples(expr, n, 8, 808);
    EXPECT_TRUE(testing::ksSameDistribution(serial, parallel));
}

TEST(ParallelEquivalence, SerialVsParallelKsSharedLeafGraph)
{
    // Shared-leaf topology: parallel sampling must preserve the
    // Figure 8(b) semantics (one X draw per pass), so the variance is
    // Var[Y] + 4 Var[X] = 5 and the KS test sees the same law.
    auto expr = sharedLeafGraph();
    const std::size_t n = 20000;
    Rng serialRng = testing::testRng(809);
    auto serial = expr.takeSamples(n, serialRng);
    auto parallel = parallelSamples(expr, n, 8, 810);
    EXPECT_TRUE(testing::ksSameDistribution(serial, parallel));

    stats::OnlineSummary summary;
    for (double v : parallel)
        summary.add(v);
    EXPECT_NEAR(summary.variance(), 5.0, 0.4);
}

TEST(ParallelEquivalence, SharedSubexpressionResidualIsZeroInParallel)
{
    // B - Y - 2X must be identically ~0 in every parallel chunk; a
    // per-thread double draw of X would make it a unit-scale residual.
    auto x = gaussianLeaf(0.0, 1.0);
    auto y = gaussianLeaf(0.0, 1.0);
    auto residual = ((y + x) + x) - y - (x * 2.0);
    auto values = parallelSamples(residual, 5000, 8, 811);
    for (double v : values)
        ASSERT_NEAR(v, 0.0, 1e-12);
}

TEST(ParallelEquivalence, ExpectedValueBitExactAcrossThreadCounts)
{
    auto expr = sharedLeafGraph();
    double results[3];
    unsigned threadCounts[3] = {1, 2, 8};
    for (int i = 0; i < 3; ++i) {
        Rng rng = testing::testRng(812);
        BatchSampler sampler = threadedSampler(threadCounts[i], 256);
        results[i] = expr.expectedValue(20000, rng, sampler);
    }
    EXPECT_DOUBLE_EQ(results[0], results[1]);
    EXPECT_DOUBLE_EQ(results[0], results[2]);
    EXPECT_NEAR(results[0], 0.0, testing::meanTolerance(2.24, 20000));
}

TEST(ParallelEquivalence, ProbabilityMatchesSerialEstimate)
{
    auto speed = gaussianLeaf(4.2, 1.0);
    auto cond = speed > 4.0;
    const std::size_t n = 50000;
    Rng serialRng = testing::testRng(813);
    double serial = cond.probability(n, serialRng);
    Rng parallelRng = testing::testRng(814);
    BatchSampler sampler = threadedSampler(8, 512);
    double parallel = cond.probability(n, parallelRng, sampler);
    EXPECT_NEAR(parallel, serial,
                2.0 * testing::proportionTolerance(0.58, n));
}

TEST(ParallelEquivalence, SprtDecisionParityAtOperatingPoints)
{
    // Paper operating points: true Pr well above / below the 0.5
    // threshold must produce the same decisions chunk-wise as
    // serially, every time.
    struct Point
    {
        double mu;
        bool expected;
    };
    const Point points[] = {{4.8, true}, {3.2, false}};
    ConditionalOptions options;
    BatchSampler sampler = threadedSampler(4, 128);
    for (const auto& point : points) {
        auto cond = gaussianLeaf(point.mu, 1.0) > 4.0;
        for (int trial = 0; trial < 20; ++trial) {
            Rng serialRng = testing::testRng(
                820 + static_cast<std::uint64_t>(trial));
            Rng parallelRng = testing::testRng(
                860 + static_cast<std::uint64_t>(trial));
            bool serial = cond.pr(0.5, options, serialRng);
            bool parallel =
                cond.pr(0.5, options, parallelRng, sampler);
            EXPECT_EQ(serial, point.expected) << "mu " << point.mu;
            EXPECT_EQ(parallel, point.expected) << "mu " << point.mu;
        }
    }
}

TEST(ParallelEquivalence, SprtAcceptanceRateParityNearThreshold)
{
    // Near the indifference region the decision is stochastic; the
    // chunk-wise test must accept at a rate statistically equal to
    // the serial test's.
    auto cond = gaussianLeaf(4.1, 1.0) > 4.0; // Pr ~ 0.54
    ConditionalOptions options;
    options.sprt.maxSamples = 400;
    BatchSampler sampler = threadedSampler(4, 64);
    const int kTrials = 200;
    int serialAccepts = 0;
    int parallelAccepts = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
        Rng serialRng =
            testing::testRng(900 + static_cast<std::uint64_t>(trial));
        Rng parallelRng = testing::testRng(
            1900 + static_cast<std::uint64_t>(trial));
        serialAccepts += cond.pr(0.5, options, serialRng) ? 1 : 0;
        parallelAccepts +=
            cond.pr(0.5, options, parallelRng, sampler) ? 1 : 0;
    }
    double serialRate = serialAccepts / double(kTrials);
    double parallelRate = parallelAccepts / double(kTrials);
    // Two independent proportions, 5-sigma-ish envelope.
    EXPECT_NEAR(parallelRate, serialRate,
                2.0 * testing::proportionTolerance(0.5, kTrials));
}

TEST(ParallelEquivalence, ChunkedSprtSampleSizeStaysWithinAChunk)
{
    auto cond = gaussianLeaf(4.5, 1.0) > 4.0;
    ConditionalOptions options;
    BatchSampler sampler = threadedSampler(4, 64);
    const std::size_t chunk = BatchSampler::kEvidenceChunk;
    for (int trial = 0; trial < 10; ++trial) {
        Rng rng =
            testing::testRng(950 + static_cast<std::uint64_t>(trial));
        auto result = cond.evaluate(0.5, options, rng, sampler);
        EXPECT_EQ(result.decision,
                  stats::TestDecision::AcceptAlternative);
        // The test stops within the chunk it decided in.
        EXPECT_LE(result.samplesUsed, chunk);
    }
}

TEST(ParallelEquivalence, FixedAndGroupSequentialStrategiesWork)
{
    auto cond = gaussianLeaf(4.6, 1.0) > 4.0;
    BatchSampler sampler = threadedSampler(4, 128);

    ConditionalOptions fixed;
    fixed.strategy = ConditionalStrategy::FixedSample;
    fixed.fixedSamples = 500;
    Rng rngA = testing::testRng(970);
    auto fixedResult = cond.evaluate(0.5, fixed, rngA, sampler);
    EXPECT_EQ(fixedResult.decision,
              stats::TestDecision::AcceptAlternative);
    EXPECT_EQ(fixedResult.samplesUsed, 500u);

    ConditionalOptions group;
    group.strategy = ConditionalStrategy::GroupSequential;
    Rng rngB = testing::testRng(971);
    auto groupResult = cond.evaluate(0.5, group, rngB, sampler);
    EXPECT_EQ(groupResult.decision,
              stats::TestDecision::AcceptAlternative);
}

} // namespace
} // namespace core
} // namespace uncertain
