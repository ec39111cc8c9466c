/**
 * @file
 * Unit tests for the exact enumeration backend (src/exact): support
 * tables, shared-leaf joint semantics, refusal behavior, discrete
 * conditioning, and the conditional router in core/uncertain.hpp —
 * including the point-mass short-circuit regression (a deterministic
 * pr() must not burn SPRT samples) and the fallback paths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/core.hpp"
#include "random/bernoulli.hpp"
#include "random/binomial.hpp"
#include "random/discrete.hpp"
#include "random/gaussian.hpp"
#include "random/point_mass.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace {

using core::bernoulliEvent;
using core::fromFiniteSupport;

// ----------------------------------------------------------------------
// ExactBackend: support tables and queries.
// ----------------------------------------------------------------------

TEST(ExactBackend, LeafPmfMatchesDeclaredSupport)
{
    auto die = fromFiniteSupport<double>(
        {1, 2, 3, 4, 5, 6}, {1, 1, 1, 1, 1, 1}, "die");
    auto pmf = exact::pmf(die);
    ASSERT_EQ(pmf.entries.size(), 6u);
    for (const auto& [value, p] : pmf.entries)
        EXPECT_NEAR(p, 1.0 / 6.0, 1e-15) << "value " << value;
    EXPECT_NEAR(pmf.mass(), 1.0, 1e-12);
    EXPECT_NEAR(pmf.expectedValue(), 3.5, 1e-12);
    EXPECT_NEAR(pmf.variance(), 35.0 / 12.0, 1e-12);
}

TEST(ExactBackend, WeightsAreNormalizedAndZerosDropped)
{
    auto x = fromFiniteSupport<double>({0, 1, 2}, {3, 0, 1}, "x");
    auto pmf = exact::pmf(x);
    ASSERT_EQ(pmf.entries.size(), 2u);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(0.0), 0.75);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(1.0), 0.0);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(2.0), 0.25);
}

TEST(ExactBackend, PointMassGraphIsSingleton)
{
    Uncertain<double> three(3.0);
    auto pmf = exact::pmf(three + three * 2.0);
    ASSERT_EQ(pmf.entries.size(), 1u);
    EXPECT_DOUBLE_EQ(pmf.entries[0].first, 9.0);
    EXPECT_DOUBLE_EQ(pmf.entries[0].second, 1.0);
}

TEST(ExactBackend, SharedLeafDiamondStaysPerfectlyCorrelated)
{
    // x + x under Figure 8(b) semantics is 2x, never a convolution:
    // both occurrences read the same leaf digit.
    auto x = fromFiniteSupport<double>({0, 1}, {0.5, 0.5}, "x");
    auto pmf = exact::pmf(x + x);
    ASSERT_EQ(pmf.entries.size(), 2u);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(0.0), 0.5);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(2.0), 0.5);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(1.0), 0.0);
}

TEST(ExactBackend, IndependentLeavesConvolve)
{
    auto x = fromFiniteSupport<double>({0, 1}, {0.5, 0.5}, "x");
    auto y = fromFiniteSupport<double>({0, 1}, {0.5, 0.5}, "y");
    auto pmf = exact::pmf(x + y);
    ASSERT_EQ(pmf.entries.size(), 3u);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(0.0), 0.25);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(1.0), 0.5);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(2.0), 0.25);
}

TEST(ExactBackend, FigureEightGraphSharesTheInnerLeaf)
{
    // (y + x) + x: x enters twice, y once — Pr[sum = 2x + y] joint.
    auto x = fromFiniteSupport<double>({0, 1}, {0.5, 0.5}, "x");
    auto y = fromFiniteSupport<double>({0, 10}, {0.5, 0.5}, "y");
    auto pmf = exact::pmf((y + x) + x);
    ASSERT_EQ(pmf.entries.size(), 4u);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(0.0), 0.25);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(2.0), 0.25);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(10.0), 0.25);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(12.0), 0.25);
}

TEST(ExactBackend, SelectRoutesPerJointAssignment)
{
    auto coin = bernoulliEvent(0.25, "coin");
    auto a = fromFiniteSupport<double>({1, 2}, {0.5, 0.5}, "a");
    auto pmf = exact::pmf(uncertain::select(coin, a, 0.0));
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(0.0), 0.75);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(1.0), 0.125);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(2.0), 0.125);
    EXPECT_NEAR(pmf.mass(), 1.0, 1e-12);
}

TEST(ExactBackend, SelectSharesConditionWithBranches)
{
    // select(x < 1, x, -x): the branch and the condition read the
    // same draw of x, so the result is -x exactly when x >= 1.
    auto x = fromFiniteSupport<double>({0, 1, 2}, {1, 1, 2}, "x");
    auto pmf = exact::pmf(uncertain::select(x < 1.0, x, 0.0 - x));
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(0.0), 0.25);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(-1.0), 0.25);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(-2.0), 0.5);
}

TEST(ExactBackend, ComparisonTreeProbability)
{
    auto a = fromFiniteSupport<double>({1, 3}, {0.5, 0.5}, "a");
    auto b = fromFiniteSupport<double>({2, 4}, {0.5, 0.5}, "b");
    // Pr[a < b] = 1 - Pr[a=3, b=2] = 0.75.
    EXPECT_DOUBLE_EQ(exact::probability(a < b), 0.75);
    // Boolean algebra over shared comparisons stays joint.
    auto event = (a < b) && (b > 1.0);
    EXPECT_DOUBLE_EQ(exact::probability(event), 0.75);
}

TEST(ExactBackend, ExpectedValueClosedForm)
{
    auto x = fromFiniteSupport<double>({0, 1}, {0.25, 0.75}, "x");
    auto y = fromFiniteSupport<double>({0, 2}, {0.5, 0.5}, "y");
    EXPECT_NEAR(exact::expectedValue(x * 4.0 + y), 4.0, 1e-12);
}

TEST(ExactBackend, ConditionedPmfIsBayesRule)
{
    auto die = fromFiniteSupport<double>(
        {1, 2, 3, 4, 5, 6}, {1, 1, 1, 1, 1, 1}, "die");
    auto posterior = exact::conditioned(die, die >= 4.0);
    ASSERT_EQ(posterior.entries.size(), 3u);
    for (double v : {4.0, 5.0, 6.0})
        EXPECT_NEAR(posterior.probabilityOf(v), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(posterior.mass(), 1.0, 1e-12);
}

TEST(ExactBackend, ConditioningPropagatesThroughSharedLeaves)
{
    // Observe x + y = 2 with x, y fair {0,1}+{0,2}: only (0,2) fits.
    auto x = fromFiniteSupport<double>({0, 1}, {0.5, 0.5}, "x");
    auto y = fromFiniteSupport<double>({0, 2}, {0.5, 0.5}, "y");
    auto posterior =
        exact::conditioned(x, approxEqual(x + y, 2.0, 0.25));
    ASSERT_EQ(posterior.entries.size(), 1u);
    EXPECT_DOUBLE_EQ(posterior.probabilityOf(0.0), 1.0);
}

TEST(ExactBackend, ConditioningOnImpossibleEvidenceThrows)
{
    auto x = fromFiniteSupport<double>({0, 1}, {0.5, 0.5}, "x");
    EXPECT_THROW((void)exact::conditioned(x, x > 5.0), Error);
}

TEST(ExactBackend, RefusesOpaqueSamplerLeaf)
{
    auto opaque = Uncertain<double>::fromSampler(
        [](Rng& rng) { return rng.nextDouble(); }, "opaque");
    auto result = exact::query(opaque + 1.0);
    EXPECT_FALSE(result.supported);
    EXPECT_NE(result.reason.find("opaque"), std::string::npos);
    EXPECT_THROW((void)exact::pmf(opaque + 1.0), exact::Unsupported);
}

TEST(ExactBackend, RefusesContinuousDistributionLeaf)
{
    auto gaussian = core::fromDistribution(
        std::make_shared<random::Gaussian>(0.0, 1.0));
    EXPECT_FALSE(exact::supports(gaussian));
    EXPECT_TRUE(exact::supports(gaussian > 0.0)
                == false); // comparisons do not launder leaves
}

TEST(ExactBackend, RefusesBeyondStateBound)
{
    Uncertain<double> sum(0.0);
    for (int i = 0; i < 8; ++i) {
        sum = sum
              + fromFiniteSupport<double>({0, 1, 2, 3},
                                          {1, 1, 1, 1},
                                          "w" + std::to_string(i));
    }
    // 4^8 = 65536 joint states: accepted at the default bound,
    // refused at a tight one.
    EXPECT_TRUE(exact::supports(sum));
    exact::EnumerationLimits tight;
    tight.maxJointStates = 1u << 10;
    auto refusal = exact::query(sum, tight);
    EXPECT_FALSE(refusal.supported);
    EXPECT_NE(refusal.reason.find("bound"), std::string::npos);
}

TEST(ExactBackend, QueryReportsEnumerationSize)
{
    auto x = fromFiniteSupport<double>({0, 1, 2}, {1, 1, 1}, "x");
    auto y = fromFiniteSupport<double>({0, 1}, {1, 1}, "y");
    auto result = exact::query(x + y + x);
    ASSERT_TRUE(result.supported);
    EXPECT_EQ(result.leaves, 2u);
    EXPECT_EQ(result.states, 6u);
}

TEST(ExactBackend, DiscreteDistributionLeafIsExact)
{
    auto discrete = core::fromDistribution(
        std::make_shared<random::Discrete>(
            std::vector<double>{-1.0, 0.0, 1.0},
            std::vector<double>{1.0, 2.0, 1.0}));
    ASSERT_TRUE(exact::supports(discrete));
    auto pmf = exact::pmf(discrete);
    EXPECT_DOUBLE_EQ(pmf.probabilityOf(0.0), 0.5);
    EXPECT_NEAR(exact::probability(discrete >= 0.0), 0.75, 1e-15);
}

TEST(ExactBackend, BernoulliAndPointMassDistributionsAreExact)
{
    auto bernoulli = core::fromDistribution(
        std::make_shared<random::Bernoulli>(0.3));
    EXPECT_NEAR(exact::probability(bernoulli > 0.5), 0.3, 1e-15);

    auto point = core::fromDistribution(
        std::make_shared<random::PointMass>(2.5));
    EXPECT_DOUBLE_EQ(exact::pmf(point).probabilityOf(2.5), 1.0);
}

TEST(ExactBackend, BinomialSupportMatchesMoments)
{
    auto binomial = core::fromDistribution(
        std::make_shared<random::Binomial>(10, 0.3));
    auto pmf = exact::pmf(binomial);
    ASSERT_EQ(pmf.entries.size(), 11u);
    EXPECT_NEAR(pmf.mass(), 1.0, 1e-12);
    EXPECT_NEAR(pmf.expectedValue(), 3.0, 1e-10);
    EXPECT_NEAR(pmf.variance(), 2.1, 1e-10);
}

TEST(ExactBackend, ExactReportPrintsPmfOrRefusal)
{
    auto x = fromFiniteSupport<double>({0, 1}, {0.5, 0.5}, "x");
    auto report = core::exactReport(x + x);
    EXPECT_NE(report.find("exact pmf over 2 values"),
              std::string::npos);
    auto opaque = Uncertain<double>::fromSampler(
        [](Rng& rng) { return rng.nextDouble(); }, "noise");
    EXPECT_NE(core::exactReport(opaque).find("unsupported"),
              std::string::npos);
}

// ----------------------------------------------------------------------
// ExactRouting: the conditional router in Uncertain::evaluate.
// ----------------------------------------------------------------------

TEST(ExactRouting, PointMassTrueShortCircuitsWithoutSamples)
{
    // Regression for the latent edge case: pr() on a deterministic
    // graph used to burn a full SPRT run to conclude Pr = 1.
    Rng rng = testing::testRng(901);
    core::resetEvalStats();
    Uncertain<bool> sure(true);
    auto result = sure.evaluate(0.9, {}, rng);
    EXPECT_EQ(result.decision, stats::TestDecision::AcceptAlternative);
    EXPECT_DOUBLE_EQ(result.estimate, 1.0);
    EXPECT_EQ(result.samplesUsed, 0u);
    EXPECT_EQ(core::evalStats().rootSamples, 0u);
    EXPECT_EQ(core::evalStats().conditionals, 1u);
}

TEST(ExactRouting, PointMassFalseShortCircuitsWithoutSamples)
{
    Rng rng = testing::testRng(902);
    core::resetEvalStats();
    Uncertain<bool> never(false);
    auto result = never.evaluate(0.1, {}, rng);
    EXPECT_EQ(result.decision, stats::TestDecision::AcceptNull);
    EXPECT_DOUBLE_EQ(result.estimate, 0.0);
    EXPECT_EQ(result.samplesUsed, 0u);
    EXPECT_EQ(core::evalStats().rootSamples, 0u);
}

TEST(ExactRouting, PointMassBranchesStillDecideUnderSprt)
{
    // Both regression branches must also hold on the sampling path:
    // with routing off, the SPRT sees an all-true (all-false) stream
    // and decides the same way, now at a positive sample cost.
    Rng rng = testing::testRng(903);
    core::ConditionalOptions sampled;
    sampled.exactRouting = core::ExactRouting::Never;

    auto sure = Uncertain<bool>(true).evaluate(0.9, sampled, rng);
    EXPECT_EQ(sure.decision, stats::TestDecision::AcceptAlternative);
    EXPECT_GE(sure.samplesUsed, 1u);

    auto never = Uncertain<bool>(false).evaluate(0.1, sampled, rng);
    EXPECT_EQ(never.decision, stats::TestDecision::AcceptNull);
    EXPECT_GE(never.samplesUsed, 1u);
}

TEST(ExactRouting, FiniteGraphAnswersWithoutSampling)
{
    Rng rng = testing::testRng(904);
    core::resetEvalStats();
    auto event = bernoulliEvent(0.9);
    auto result = event.evaluate(0.5, {}, rng);
    EXPECT_EQ(result.decision, stats::TestDecision::AcceptAlternative);
    EXPECT_NEAR(result.estimate, 0.9, 1e-12);
    EXPECT_EQ(result.samplesUsed, 0u);
    EXPECT_EQ(core::evalStats().rootSamples, 0u);
    EXPECT_TRUE(event.pr(0.5, {}, rng));
    EXPECT_FALSE(event.pr(0.95, {}, rng));
}

TEST(ExactRouting, NeverOptionForcesSequentialTest)
{
    Rng rng = testing::testRng(905);
    core::resetEvalStats();
    core::ConditionalOptions sampled;
    sampled.exactRouting = core::ExactRouting::Never;
    auto result = bernoulliEvent(0.9).evaluate(0.5, sampled, rng);
    EXPECT_EQ(result.decision, stats::TestDecision::AcceptAlternative);
    EXPECT_GE(result.samplesUsed, 1u);
    EXPECT_GE(core::evalStats().rootSamples, 1u);
}

TEST(ExactRouting, UnsupportedGraphFallsBackToSampling)
{
    Rng rng = testing::testRng(906);
    core::resetEvalStats();
    auto likely = Uncertain<bool>::fromSampler(
        [](Rng& r) { return r.nextBool(0.9); }, "likely");
    auto result = likely.evaluate(0.5, {}, rng);
    EXPECT_EQ(result.decision, stats::TestDecision::AcceptAlternative);
    EXPECT_GE(result.samplesUsed, 1u);
    EXPECT_GE(core::evalStats().rootSamples, 1u);
}

TEST(ExactRouting, StateBoundSendsLargeGraphsToSampling)
{
    Rng rng = testing::testRng(907);
    Uncertain<bool> event = bernoulliEvent(0.7);
    core::ConditionalOptions tiny;
    tiny.exactMaxStates = 1; // even a single Bernoulli exceeds this
    auto result = event.evaluate(0.5, tiny, rng);
    EXPECT_GE(result.samplesUsed, 1u);
}

TEST(ExactRouting, ParallelAndBatchOverloadsRouteExactly)
{
    Rng rng = testing::testRng(908);
    core::resetEvalStats();
    auto event = bernoulliEvent(0.8);

    core::BatchSampler parallel(core::BatchOptions{1024}, nullptr,
                                std::make_shared<core::BlockScheduler>(1));
    auto viaParallel = event.evaluate(0.5, {}, rng, parallel);
    EXPECT_EQ(viaParallel.samplesUsed, 0u);
    EXPECT_NEAR(viaParallel.estimate, 0.8, 1e-12);

    core::BatchSampler batch;
    auto viaBatch = event.evaluate(0.5, {}, rng, batch);
    EXPECT_EQ(viaBatch.samplesUsed, 0u);
    EXPECT_NEAR(viaBatch.estimate, 0.8, 1e-12);
    EXPECT_EQ(core::evalStats().rootSamples, 0u);
}

TEST(ExactRouting, RejectsDegenerateThresholdsOnTheExactPath)
{
    Rng rng = testing::testRng(909);
    auto event = bernoulliEvent(0.5);
    EXPECT_THROW((void)event.evaluate(0.0, {}, rng), Error);
    EXPECT_THROW((void)event.evaluate(1.0, {}, rng), Error);
    EXPECT_THROW((void)exact::pr(event, 0.0), Error);
}

TEST(ExactRouting, ExactNamespaceEvaluateMatchesRouter)
{
    Rng rng = testing::testRng(910);
    auto event = bernoulliEvent(0.6);
    auto viaExact = exact::evaluate(event, 0.5);
    auto viaRouter = event.evaluate(0.5, {}, rng);
    EXPECT_EQ(viaExact.decision, viaRouter.decision);
    EXPECT_DOUBLE_EQ(viaExact.estimate, viaRouter.estimate);
    EXPECT_EQ(viaExact.samplesUsed, viaRouter.samplesUsed);
}

} // namespace
} // namespace uncertain
