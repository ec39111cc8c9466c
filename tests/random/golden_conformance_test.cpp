/**
 * @file
 * Golden-distribution conformance suite: every sampler the batch
 * engine leans on must match its own closed-form law, on both the
 * scalar sample() path and the bulk sampleMany() path. The bulk path
 * is a distinct algorithm for several distributions (pairwise
 * Box-Muller for Gaussian, fused uniform fills for Uniform /
 * Exponential / Rayleigh), so it gets its own KS + moment pass —
 * "same law, different stream" is exactly the claim that needs a
 * distance-based test (Sarkar et al., Assessing the Quality of
 * Binomial Samplers).
 *
 * Continuous laws: one-sample KS against the analytic CDF at
 * testing::kKsAlpha plus first/second-moment checks at ~5 sigma.
 * Bernoulli (discrete): chi-square over {0, 1} cells plus the same
 * moment checks. All seeds fixed via testing::testRng.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "random/bernoulli.hpp"
#include "random/beta.hpp"
#include "random/binomial.hpp"
#include "random/distribution.hpp"
#include "random/exponential.hpp"
#include "random/gamma.hpp"
#include "random/gaussian.hpp"
#include "random/mixture.hpp"
#include "random/poisson.hpp"
#include "random/rayleigh.hpp"
#include "random/student_t.hpp"
#include "random/uniform.hpp"
#include "stat_assert.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace random {
namespace {

constexpr std::size_t kSamples = 20000;

struct GoldenCase
{
    const char* name;
    DistributionPtr (*make)();
    std::uint64_t seed;
};

// gtest_discover_tests puts the printed parameter into each ctest
// name. Without this, gtest dumps the raw bytes of the struct, whose
// first words are a string pointer and a function address.
void
PrintTo(const GoldenCase& c, std::ostream* os)
{
    *os << c.name;
}

DistributionPtr
makeStandardGaussian()
{
    return std::make_shared<Gaussian>(0.0, 1.0);
}

DistributionPtr
makeShiftedGaussian()
{
    return std::make_shared<Gaussian>(-3.5, 2.25);
}

DistributionPtr
makeGpsRayleigh()
{
    // The paper's GPS error scale for a 4 m 95% accuracy radius.
    return std::make_shared<Rayleigh>(
        Rayleigh::fromHorizontalAccuracy(4.0));
}

DistributionPtr
makeUnitUniform()
{
    return std::make_shared<Uniform>(0.0, 1.0);
}

DistributionPtr
makeWideUniform()
{
    return std::make_shared<Uniform>(-7.0, 11.0);
}

DistributionPtr
makeExponential()
{
    return std::make_shared<Exponential>(0.75);
}

DistributionPtr
makeBimodalMixture()
{
    return std::make_shared<Mixture>(
        std::vector<DistributionPtr>{
            std::make_shared<Gaussian>(-2.0, 0.5),
            std::make_shared<Gaussian>(3.0, 1.0),
        },
        std::vector<double>{0.4, 0.6});
}

DistributionPtr
makeGoldenBeta()
{
    return std::make_shared<Beta>(2.5, 1.5);
}

DistributionPtr
makeGoldenBoostGamma()
{
    // shape < 1 exercises the Marsaglia-Tsang boost branch.
    return std::make_shared<Gamma>(0.5, 2.0);
}

DistributionPtr
makeGoldenSqueezeGamma()
{
    return std::make_shared<Gamma>(3.0, 1.5);
}

DistributionPtr
makeGoldenStudentT()
{
    // nu > 2 so both golden moments exist for the moment checks.
    return std::make_shared<StudentT>(5.0);
}

const GoldenCase kContinuousCases[] = {
    {"gaussian_standard", makeStandardGaussian, 2001},
    {"gaussian_shifted", makeShiftedGaussian, 2002},
    {"rayleigh_gps", makeGpsRayleigh, 2003},
    {"uniform_unit", makeUnitUniform, 2004},
    {"uniform_wide", makeWideUniform, 2005},
    {"exponential", makeExponential, 2006},
    {"mixture_bimodal", makeBimodalMixture, 2007},
    {"beta_2p5_1p5", makeGoldenBeta, 2008},
    {"gamma_boost_0p5", makeGoldenBoostGamma, 2009},
    {"gamma_squeeze_3", makeGoldenSqueezeGamma, 2010},
    {"student_t_5", makeGoldenStudentT, 2011},
};

std::vector<double>
scalarDraws(const Distribution& dist, std::uint64_t seed,
            std::size_t n = kSamples)
{
    Rng rng = testing::testRng(seed);
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(dist.sample(rng));
    return xs;
}

std::vector<double>
bulkDraws(const Distribution& dist, std::uint64_t seed,
          std::size_t n = kSamples)
{
    Rng rng = testing::testRng(seed);
    std::vector<double> xs(n);
    dist.sampleMany(rng, xs.data(), n);
    return xs;
}

class GoldenConformance
    : public ::testing::TestWithParam<GoldenCase>
{};

TEST_P(GoldenConformance, ScalarSamplesPassKsAgainstClosedFormCdf)
{
    auto dist = GetParam().make();
    auto xs = scalarDraws(*dist, GetParam().seed);
    EXPECT_TRUE(testing::ksMatchesDistribution(xs, *dist));
}

TEST_P(GoldenConformance, BulkSamplesPassKsAgainstClosedFormCdf)
{
    auto dist = GetParam().make();
    auto xs = bulkDraws(*dist, GetParam().seed + 50);
    EXPECT_TRUE(testing::ksMatchesDistribution(xs, *dist));
}

TEST_P(GoldenConformance, ScalarSampleMomentsMatch)
{
    auto dist = GetParam().make();
    auto xs = scalarDraws(*dist, GetParam().seed + 100);
    EXPECT_TRUE(
        testing::momentsMatch(xs, dist->mean(), dist->stddev()));
}

TEST_P(GoldenConformance, BulkSampleMomentsMatch)
{
    auto dist = GetParam().make();
    auto xs = bulkDraws(*dist, GetParam().seed + 150);
    EXPECT_TRUE(
        testing::momentsMatch(xs, dist->mean(), dist->stddev()));
}

TEST_P(GoldenConformance, ScalarAndBulkDrawTheSameLaw)
{
    // The bulk path may consume the stream differently (pairwise
    // Box-Muller keeps the sine half), so the comparison is two-sample
    // KS, not bit equality.
    auto dist = GetParam().make();
    auto scalar = scalarDraws(*dist, GetParam().seed + 200);
    auto bulk = bulkDraws(*dist, GetParam().seed + 250);
    EXPECT_TRUE(testing::ksSameDistribution(scalar, bulk));
}

INSTANTIATE_TEST_SUITE_P(
    AllGoldenDistributions, GoldenConformance,
    ::testing::ValuesIn(kContinuousCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
        return std::string(info.param.name);
    });

TEST(GoldenConformanceBernoulli, ScalarCellCountsPassChiSquare)
{
    Bernoulli dist(0.37);
    auto xs = scalarDraws(dist, 2101);
    std::vector<std::size_t> counts(2, 0);
    for (double x : xs)
        ++counts[x > 0.5 ? 1 : 0];
    EXPECT_TRUE(testing::chiSquareMatches(counts, {0.63, 0.37}));
}

TEST(GoldenConformanceBernoulli, BulkCellCountsPassChiSquare)
{
    Bernoulli dist(0.37);
    auto xs = bulkDraws(dist, 2102);
    std::vector<std::size_t> counts(2, 0);
    for (double x : xs)
        ++counts[x > 0.5 ? 1 : 0];
    EXPECT_TRUE(testing::chiSquareMatches(counts, {0.63, 0.37}));
}

TEST(GoldenConformanceBernoulli, MomentsMatchOnBothPaths)
{
    Bernoulli dist(0.37);
    EXPECT_TRUE(testing::momentsMatch(scalarDraws(dist, 2103),
                                      dist.mean(), dist.stddev()));
    EXPECT_TRUE(testing::momentsMatch(bulkDraws(dist, 2104),
                                      dist.mean(), dist.stddev()));
}

// ---------------------------------------------------------------------
// Discrete golden cases: chi-square over the exact finite support
// (sparse tail cells pooled by chiSquareMatches) plus moment checks,
// on both sampling paths.
// ---------------------------------------------------------------------

struct DiscreteGoldenCase
{
    const char* name;
    DistributionPtr (*make)();
    std::uint64_t seed;
};

void
PrintTo(const DiscreteGoldenCase& c, std::ostream* os)
{
    *os << c.name;
}

DistributionPtr
makeGoldenSmallBinomial()
{
    return std::make_shared<Binomial>(40, 0.3);
}

DistributionPtr
makeGoldenBtpeBinomial()
{
    return std::make_shared<Binomial>(200, 0.4);
}

DistributionPtr
makeGoldenKnuthPoisson()
{
    return std::make_shared<Poisson>(4.2);
}

DistributionPtr
makeGoldenPtrsPoisson()
{
    return std::make_shared<Poisson>(80.0);
}

const DiscreteGoldenCase kDiscreteCases[] = {
    {"binomial_inversion_40", makeGoldenSmallBinomial, 2201},
    {"binomial_btpe_200", makeGoldenBtpeBinomial, 2202},
    {"poisson_knuth_4p2", makeGoldenKnuthPoisson, 2203},
    {"poisson_ptrs_80", makeGoldenPtrsPoisson, 2204},
};

class GoldenConformanceDiscrete
    : public ::testing::TestWithParam<DiscreteGoldenCase>
{};

/** Bin integer-valued draws against the exact finite support. */
::testing::AssertionResult
supportChiSquare(const Distribution& dist,
                 const std::vector<double>& xs)
{
    std::vector<double> values;
    std::vector<double> probabilities;
    if (!dist.finiteSupport(values, probabilities))
        return ::testing::AssertionFailure()
               << dist.name() << " surfaces no finite support";
    const double first = values.front();
    std::vector<std::size_t> counts(values.size(), 0);
    for (double x : xs) {
        const auto k = static_cast<std::size_t>(x - first);
        if (k >= counts.size())
            return ::testing::AssertionFailure()
                   << "draw " << x << " outside the exact support ["
                   << values.front() << ", " << values.back() << "]";
        ++counts[k];
    }
    return testing::chiSquareMatches(counts, probabilities);
}

TEST_P(GoldenConformanceDiscrete, ScalarCountsPassChiSquare)
{
    auto dist = GetParam().make();
    EXPECT_TRUE(
        supportChiSquare(*dist, scalarDraws(*dist, GetParam().seed)));
}

TEST_P(GoldenConformanceDiscrete, BulkCountsPassChiSquare)
{
    auto dist = GetParam().make();
    EXPECT_TRUE(supportChiSquare(
        *dist, bulkDraws(*dist, GetParam().seed + 50)));
}

TEST_P(GoldenConformanceDiscrete, MomentsMatchOnBothPaths)
{
    auto dist = GetParam().make();
    EXPECT_TRUE(
        testing::momentsMatch(scalarDraws(*dist, GetParam().seed + 100),
                              dist->mean(), dist->stddev()));
    EXPECT_TRUE(
        testing::momentsMatch(bulkDraws(*dist, GetParam().seed + 150),
                              dist->mean(), dist->stddev()));
}

INSTANTIATE_TEST_SUITE_P(
    AllDiscreteGoldenDistributions, GoldenConformanceDiscrete,
    ::testing::ValuesIn(kDiscreteCases),
    [](const ::testing::TestParamInfo<DiscreteGoldenCase>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace random
} // namespace uncertain
