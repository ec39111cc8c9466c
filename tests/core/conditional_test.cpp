/**
 * @file
 * Conditional-semantics tests: implicit/explicit operators, ternary
 * fall-through, evaluation strategies, and sampling-effort counters.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/core.hpp"
#include "random/gaussian.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace {

Uncertain<double>
gaussianLeaf(double mu, double sigma)
{
    return core::fromDistribution(
        std::make_shared<random::Gaussian>(mu, sigma));
}

TEST(Conditional, ImplicitOperatorIsMoreLikelyThanNot)
{
    Rng rng = testing::testRng(131);
    auto fast = gaussianLeaf(6.0, 1.0);
    auto slow = gaussianLeaf(2.0, 1.0);
    core::ConditionalOptions options;

    EXPECT_TRUE((fast > 4.0).pr(0.5, options, rng));
    EXPECT_FALSE((slow > 4.0).pr(0.5, options, rng));

    // The contextual-conversion form the paper's code uses.
    if (fast > 4.0) {
        SUCCEED();
    } else {
        FAIL() << "implicit conditional should have fired";
    }
}

TEST(Conditional, ExplicitThresholdDemandsStrongerEvidence)
{
    Rng rng = testing::testRng(132);
    // Pr[a > 4] ~ 0.84: passes 0.5, passes 0.7, fails 0.95.
    auto a = gaussianLeaf(5.0, 1.0);
    core::ConditionalOptions options;
    EXPECT_TRUE((a > 4.0).pr(0.5, options, rng));
    EXPECT_TRUE((a > 4.0).pr(0.7, options, rng));
    EXPECT_FALSE((a > 4.0).pr(0.95, options, rng));
}

TEST(Conditional, TernaryLogicNeitherBranchMayFire)
{
    // The paper's A < B ... else if A >= B example: when the
    // distributions overlap heavily, neither conditional's evidence
    // is significant and both read as false.
    Rng rng = testing::testRng(133);
    auto a = gaussianLeaf(0.0, 1.0);
    auto b = gaussianLeaf(0.02, 1.0);
    core::ConditionalOptions options;
    options.sprt.maxSamples = 500;

    bool first = (a < b).pr(0.5, options, rng);
    bool second = (a >= b).pr(0.5, options, rng);
    EXPECT_FALSE(first);
    EXPECT_FALSE(second);
}

TEST(Conditional, EvaluateExposesTheTernaryDecision)
{
    Rng rng = testing::testRng(134);
    auto a = gaussianLeaf(0.0, 1.0);
    core::ConditionalOptions options;
    options.sprt.maxSamples = 400;

    auto balanced = (a > 0.0).evaluate(0.5, options, rng);
    EXPECT_EQ(balanced.decision, stats::TestDecision::Inconclusive);
    EXPECT_FALSE(balanced.toBool());
    EXPECT_EQ(balanced.samplesUsed, 400u);

    auto clear = (a > -5.0).evaluate(0.5, options, rng);
    EXPECT_EQ(clear.decision, stats::TestDecision::AcceptAlternative);
    EXPECT_TRUE(clear.toBool());
    EXPECT_LT(clear.samplesUsed, 100u);
}

TEST(Conditional, SamplingEffortScalesWithDifficulty)
{
    Rng rng = testing::testRng(135);
    core::ConditionalOptions options;
    options.sprt.maxSamples = 5000;

    auto easy = (gaussianLeaf(8.0, 1.0) > 4.0).evaluate(0.5, options,
                                                        rng);
    auto hard = (gaussianLeaf(4.3, 1.0) > 4.0).evaluate(0.5, options,
                                                        rng);
    EXPECT_LT(easy.samplesUsed, hard.samplesUsed);
}

TEST(Conditional, GroupSequentialStrategyAgreesOnClearCases)
{
    Rng rng = testing::testRng(136);
    core::ConditionalOptions options;
    options.strategy = core::ConditionalStrategy::GroupSequential;
    options.sprt.maxSamples = 1000;
    auto a = gaussianLeaf(6.0, 1.0);
    EXPECT_TRUE((a > 4.0).pr(0.5, options, rng));
    EXPECT_FALSE((a < 4.0).pr(0.5, options, rng));
}

TEST(Conditional, FixedSampleStrategyAlwaysSpendsItsBudget)
{
    Rng rng = testing::testRng(137);
    core::ConditionalOptions options;
    options.strategy = core::ConditionalStrategy::FixedSample;
    options.fixedSamples = 321;
    auto a = gaussianLeaf(10.0, 1.0);
    auto result = (a > 4.0).evaluate(0.5, options, rng);
    EXPECT_EQ(result.samplesUsed, 321u);
    EXPECT_TRUE(result.toBool());
}

TEST(Conditional, ProbabilityEstimateIsUnbiased)
{
    Rng rng = testing::testRng(138);
    auto a = gaussianLeaf(0.0, 1.0);
    double p = (a > 0.0).probability(100000, rng);
    EXPECT_NEAR(p, 0.5, testing::proportionTolerance(0.5, 100000));
}

TEST(Conditional, RejectsDegenerateThresholds)
{
    Rng rng = testing::testRng(139);
    auto a = gaussianLeaf(0.0, 1.0);
    core::ConditionalOptions options;
    EXPECT_THROW((a > 0.0).pr(0.0, options, rng), Error);
    EXPECT_THROW((a > 0.0).pr(1.0, options, rng), Error);
}

// A fixed sample of zero draws divides 0 by 0 into a NaN estimate
// that decided AcceptNull. It is refused on both engines.
TEST(Conditional, RejectsZeroFixedSamples)
{
    Rng rng = testing::testRng(142);
    auto event = gaussianLeaf(0.0, 1.0) > 0.0;
    core::ConditionalOptions options;
    options.strategy = core::ConditionalStrategy::FixedSample;
    options.fixedSamples = 0;
    EXPECT_THROW(event.evaluate(0.5, options, rng), Error);
    core::BatchSampler sampler;
    EXPECT_THROW(event.evaluate(0.5, options, rng, sampler), Error);
}

TEST(EvalStats, CountersTrackSamplingWork)
{
    core::resetEvalStats();
    Rng rng = testing::testRng(140);
    auto a = gaussianLeaf(8.0, 1.0);

    EXPECT_EQ(core::evalStats().rootSamples, 0u);
    (void)a.sample(rng);
    EXPECT_EQ(core::evalStats().rootSamples, 1u);

    (void)a.expectedValue(100, rng);
    EXPECT_EQ(core::evalStats().rootSamples, 101u);
    EXPECT_EQ(core::evalStats().expectations, 1u);

    core::ConditionalOptions options;
    auto result = (a > 4.0).evaluate(0.5, options, rng);
    EXPECT_EQ(core::evalStats().conditionals, 1u);
    EXPECT_EQ(core::evalStats().rootSamples, 101u + result.samplesUsed);

    core::resetEvalStats();
    EXPECT_EQ(core::evalStats().rootSamples, 0u);
}

TEST(Correlated, JointSamplerSharesOneDrawPerPass)
{
    // Perfectly anti-correlated pair: first + second == 0 always.
    auto [first, second] =
        core::makeCorrelated<double, double>(
            [](Rng& rng) {
                double z = rng.nextRange(-1.0, 1.0);
                return std::pair<double, double>{z, -z};
            },
            "antithetic");
    auto sum = first + second;
    Rng rng = testing::testRng(141);
    for (int i = 0; i < 200; ++i)
        EXPECT_DOUBLE_EQ(sum.sample(rng), 0.0);
}

TEST(Correlated, MarginalsStillVaryAcrossPasses)
{
    auto [first, second] =
        core::makeCorrelated<double, double>(
            [](Rng& rng) {
                double z = rng.nextRange(0.0, 1.0);
                return std::pair<double, double>{z, z * z};
            },
            "square-pair");
    Rng rng = testing::testRng(142);
    double a = first.sample(rng);
    double b = first.sample(rng);
    EXPECT_NE(a, b);
    EXPECT_NEAR(second.expectedValue(50000, rng), 1.0 / 3.0, 0.01);
}

} // namespace
} // namespace uncertain
