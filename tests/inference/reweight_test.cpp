/**
 * @file
 * Bayesian reweighting (SIR) tests: the sampled posterior must match
 * the exact conjugate posterior where one exists, and the diagnostics
 * must flag pathological cases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/core.hpp"
#include "inference/conjugate.hpp"
#include "inference/generic_reweight.hpp"
#include "inference/reweight.hpp"
#include "random/gaussian.hpp"
#include "random/uniform.hpp"
#include "stats/summary.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace inference {
namespace {

Uncertain<double>
gaussianLeaf(double mu, double sigma)
{
    return core::fromDistribution(
        std::make_shared<random::Gaussian>(mu, sigma));
}

TEST(Reweight, GaussianTimesGaussianMatchesConjugatePosterior)
{
    // Estimate N(2, 1) reweighted by prior N(0, 1): the posterior is
    // N(1, 1/2) — precision-weighted fusion.
    Rng rng = testing::testRng(151);
    auto estimate = gaussianLeaf(2.0, 1.0);
    random::Gaussian prior(0.0, 1.0);
    ReweightOptions options;
    options.proposalSamples = 40000;
    options.resampleSize = 20000;
    auto posterior = applyPrior(estimate, prior, options, rng);

    stats::OnlineSummary s;
    for (double v : posterior.takeSamples(20000, rng))
        s.add(v);
    EXPECT_NEAR(s.mean(), 1.0, 0.05);
    EXPECT_NEAR(s.variance(), 0.5, 0.05);
}

TEST(Reweight, PosteriorFromPriorMatchesConjugateUpdate)
{
    // Prior N(0, 2), one observation 3.0 with noise sigma 1:
    // exact posterior from the conjugate formulas.
    Rng rng = testing::testRng(152);
    random::Gaussian prior(0.0, 2.0);
    GaussianLikelihood likelihood(3.0, 1.0);
    ReweightOptions options;
    options.proposalSamples = 40000;
    options.resampleSize = 20000;
    auto posterior =
        posteriorFromPrior(prior, likelihood, options, rng);

    random::Gaussian exact = gaussianPosterior(prior, 3.0, 1.0);
    stats::OnlineSummary s;
    for (double v : posterior.takeSamples(20000, rng))
        s.add(v);
    EXPECT_NEAR(s.mean(), exact.mu(), 0.05);
    EXPECT_NEAR(s.stddev(), exact.sigma(), 0.05);
}

TEST(Reweight, UniformPriorIsANoOpOnTheSupport)
{
    Rng rng = testing::testRng(153);
    auto estimate = gaussianLeaf(0.0, 0.5);
    random::Uniform prior(-100.0, 100.0);
    ReweightOptions options;
    options.proposalSamples = 20000;
    options.resampleSize = 10000;
    auto posterior = applyPrior(estimate, prior, options, rng);
    stats::OnlineSummary s;
    for (double v : posterior.takeSamples(10000, rng))
        s.add(v);
    EXPECT_NEAR(s.mean(), 0.0, 0.05);
    EXPECT_NEAR(s.stddev(), 0.5, 0.05);
}

TEST(Reweight, PriorTruncatesAbsurdValues)
{
    // The paper's walking-speed scenario: wide estimate, prior kills
    // the >10 mph region entirely.
    Rng rng = testing::testRng(154);
    auto estimate = gaussianLeaf(20.0, 15.0);
    random::Uniform prior(0.0, 10.0);
    ReweightOptions options;
    auto posterior = applyPrior(estimate, prior, options, rng);
    for (double v : posterior.takeSamples(2000, rng)) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 10.0);
    }
}

TEST(Reweight, EffectiveSampleSizeDropsWithMismatch)
{
    Rng rng = testing::testRng(155);
    ReweightOptions options;
    options.proposalSamples = 5000;

    auto wellMatched = reweight(
        gaussianLeaf(0.0, 1.0),
        [](double x) { return random::Gaussian(0.0, 1.0).logPdf(x); },
        options, rng);
    auto mismatched = reweight(
        gaussianLeaf(0.0, 1.0),
        [](double x) { return random::Gaussian(4.0, 0.2).logPdf(x); },
        options, rng);
    EXPECT_GT(wellMatched.effectiveSampleSize,
              mismatched.effectiveSampleSize * 10.0);
}

TEST(Reweight, EssIsIndependentOfResampleSize)
{
    // The documented contract: the ESS is computed on the
    // PRE-resampling proposal weights, so for a fixed seed it does
    // not move when resampleSize changes.
    auto essWithResampleSize = [](std::size_t resampleSize) {
        Rng rng = testing::testRng(158);
        ReweightOptions options;
        options.proposalSamples = 2000;
        options.resampleSize = resampleSize;
        return reweight(
                   gaussianLeaf(0.0, 1.0),
                   [](double x) {
                       return random::Gaussian(1.0, 0.5).logPdf(x);
                   },
                   options, rng)
            .effectiveSampleSize;
    };
    EXPECT_DOUBLE_EQ(essWithResampleSize(10),
                     essWithResampleSize(4000));
}

TEST(Reweight, LowEssWarningThresholdTrips)
{
    Rng rng = testing::testRng(159);
    ReweightOptions options;
    options.proposalSamples = 2000;
    options.resampleSize = 500;
    options.essWarnFraction = 0.5;
    double reportedEss = -1.0;
    options.onLowEss = [&](double ess, std::size_t) {
        reportedEss = ess;
    };
    auto mismatched = reweight(
        gaussianLeaf(0.0, 1.0),
        [](double x) { return random::Gaussian(4.0, 0.1).logPdf(x); },
        options, rng);
    EXPECT_TRUE(mismatched.lowEss);
    EXPECT_DOUBLE_EQ(reportedEss, mismatched.effectiveSampleSize);

    // Healthy overlap: the flag stays down and the callback silent.
    reportedEss = -1.0;
    auto matched = reweight(
        gaussianLeaf(0.0, 1.0),
        [](double x) { return random::Gaussian(0.0, 1.0).logPdf(x); },
        options, rng);
    EXPECT_FALSE(matched.lowEss);
    EXPECT_EQ(reportedEss, -1.0);
}

TEST(Reweight, SystematicSchemeMatchesConjugateMoments)
{
    // Same conjugate scenario as the multinomial test above, under
    // the low-variance systematic resampler.
    Rng rng = testing::testRng(160);
    auto estimate = gaussianLeaf(2.0, 1.0);
    random::Gaussian prior(0.0, 1.0);
    ReweightOptions options;
    options.proposalSamples = 40000;
    options.resampleSize = 20000;
    options.scheme = ResamplingScheme::Systematic;
    auto posterior = applyPrior(estimate, prior, options, rng);

    stats::OnlineSummary s;
    for (double v : posterior.takeSamples(20000, rng))
        s.add(v);
    EXPECT_NEAR(s.mean(), 1.0, 0.05);
    EXPECT_NEAR(s.variance(), 0.5, 0.05);
}

TEST(Reweight, ThrowsWhenSupportsDoNotOverlap)
{
    Rng rng = testing::testRng(156);
    auto estimate = gaussianLeaf(0.0, 0.1);
    random::Uniform prior(50.0, 51.0);
    ReweightOptions options;
    options.proposalSamples = 1000;
    EXPECT_THROW(applyPrior(estimate, prior, options, rng), Error);
}

TEST(Reweight, ValidatesOptions)
{
    Rng rng = testing::testRng(157);
    auto estimate = gaussianLeaf(0.0, 1.0);
    ReweightOptions options;
    options.proposalSamples = 1;
    EXPECT_THROW(
        reweight(estimate, [](double) { return 0.0; }, options, rng),
        Error);
}

/** The message of the uncertain::Error @p call throws ("" if none). */
template <typename Call>
std::string
errorMessage(Call&& call)
{
    try {
        call();
    } catch (const Error& error) {
        return error.what();
    }
    return "";
}

// A NaN or +infinity log-weight is a broken weight model, not a
// weight: under either scheme and on the typed path the refusal names
// it, rather than blaming the resampler or reporting "no overlap".
TEST(Reweight, RefusesNaNAndInfiniteLogWeightsByName)
{
    const double kNaN = std::numeric_limits<double>::quiet_NaN();
    const double kInf = std::numeric_limits<double>::infinity();
    auto estimate = gaussianLeaf(0.0, 1.0);
    for (auto scheme :
         {ResamplingScheme::Multinomial, ResamplingScheme::Systematic}) {
        ReweightOptions options;
        options.proposalSamples = 500;
        options.scheme = scheme;
        for (double bad : {kNaN, kInf}) {
            const std::string name = std::isnan(bad) ? "NaN"
                                                     : "+infinity";
            auto logWeight = [bad](double x) {
                return x > 1.5 ? bad : 0.0;
            };
            Rng rng = testing::testRng(158);
            const std::string scalar = errorMessage(
                [&] { reweight(estimate, logWeight, options, rng); });
            EXPECT_NE(scalar.find(name), std::string::npos)
                << name << ": " << scalar;
            const std::string typed = errorMessage([&] {
                reweightSamples(estimate, logWeight, options, rng);
            });
            EXPECT_NE(typed.find(name), std::string::npos)
                << name << ": " << typed;
        }
    }
}

TEST(Likelihood, GaussianLikelihoodPeaksAtTheObservation)
{
    GaussianLikelihood lik(2.0, 0.5);
    EXPECT_GT(lik.logLikelihood(2.0), lik.logLikelihood(1.0));
    EXPECT_NEAR(lik.logLikelihood(1.5), lik.logLikelihood(2.5), 1e-12);
    EXPECT_THROW(GaussianLikelihood(0.0, 0.0), Error);
}

TEST(Likelihood, FunctionLikelihoodDelegates)
{
    FunctionLikelihood lik([](double b) { return -b * b; }, "neg-sq");
    EXPECT_DOUBLE_EQ(lik.logLikelihood(3.0), -9.0);
    EXPECT_EQ(lik.name(), "neg-sq");
}

} // namespace
} // namespace inference
} // namespace uncertain
