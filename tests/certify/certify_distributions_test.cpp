/**
 * @file
 * Statistical-distance certification of the distribution library:
 * every law the engines lean on, on BOTH the scalar sample() path and
 * the bulk sampleMany() path, gets an explicit (epsilon, delta)
 * TV-distance certificate against its ground truth — the closed-form
 * CDF through equiprobable PIT cells for continuous laws, the exact
 * pmf (the same table the src/exact enumeration backend consumes) for
 * finite-support laws. Runs at testing::certifySamples() draws per
 * certificate: a CI default per commit, >= 1e7 in the scheduled
 * certification-nightly.yml job.
 *
 * Each certified regime is pinned explicitly: the ziggurat Gaussian
 * bulk path vs the Box-Muller scalar path, binomial small-n
 * inversion / BTPE / geometric-skip, Poisson Knuth / PTRS, gamma
 * boost (shape < 1) and squeeze (shape >= 1), and the gamma-ratio
 * constructions behind Beta and Student-t.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "certify/certify_test_util.hpp"
#include "random/beta.hpp"
#include "random/binomial.hpp"
#include "random/gamma.hpp"
#include "random/gaussian.hpp"
#include "random/poisson.hpp"
#include "random/student_t.hpp"
#include "stats/certify.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace stats {
namespace {

struct ContinuousCase
{
    const char* name;
    random::DistributionPtr (*make)();
    std::uint64_t seed;
};

// gtest_discover_tests puts the printed parameter into each ctest
// name. Without this, gtest dumps the raw bytes of the struct, whose
// first words are a string pointer and a function address.
void
PrintTo(const ContinuousCase& c, std::ostream* os)
{
    *os << c.name;
}

random::DistributionPtr
makeStandardGaussian()
{
    return std::make_shared<random::Gaussian>(0.0, 1.0);
}

random::DistributionPtr
makeShiftedGaussian()
{
    return std::make_shared<random::Gaussian>(-2.5, 3.0);
}

random::DistributionPtr
makeBeta()
{
    return std::make_shared<random::Beta>(2.5, 1.5);
}

random::DistributionPtr
makeSkewedBeta()
{
    // Both shapes below 1: the gamma boost path on both columns.
    return std::make_shared<random::Beta>(0.7, 0.4);
}

random::DistributionPtr
makeBoostGamma()
{
    // shape < 1: Marsaglia-Tsang boost (shape + 1 plus u^(1/shape)).
    return std::make_shared<random::Gamma>(0.5, 2.0);
}

random::DistributionPtr
makeSqueezeGamma()
{
    // shape >= 1: the plain hoisted-constant squeeze loop.
    return std::make_shared<random::Gamma>(3.0, 1.5);
}

random::DistributionPtr
makeStudentT()
{
    return std::make_shared<random::StudentT>(5.0);
}

random::DistributionPtr
makeHeavyStudentT()
{
    // nu = 1.5: heavy tails, still a proper CDF for the PIT cells.
    return std::make_shared<random::StudentT>(1.5);
}

const ContinuousCase kContinuousCases[] = {
    {"gaussian_standard", makeStandardGaussian, 4001},
    {"gaussian_shifted", makeShiftedGaussian, 4002},
    {"beta_2p5_1p5", makeBeta, 4003},
    {"beta_0p7_0p4", makeSkewedBeta, 4004},
    {"gamma_boost_0p5", makeBoostGamma, 4005},
    {"gamma_squeeze_3", makeSqueezeGamma, 4006},
    {"student_t_5", makeStudentT, 4007},
    {"student_t_1p5", makeHeavyStudentT, 4008},
};

class CertificationContinuous
    : public ::testing::TestWithParam<ContinuousCase>
{};

TEST_P(CertificationContinuous, BulkSamplerCarriesTvCertificate)
{
    auto dist = GetParam().make();
    Rng rng = testing::testRng(GetParam().seed);
    auto r = certifyContinuous(std::string(GetParam().name) + "/bulk",
                               bulkSampler(dist), *dist, rng,
                               testing::certifyOptions());
    EXPECT_TRUE(testing::certifiedPass(r));
}

TEST_P(CertificationContinuous, ScalarSamplerCarriesTvCertificate)
{
    auto dist = GetParam().make();
    Rng rng = testing::testRng(GetParam().seed + 500);
    auto r = certifyContinuous(
        std::string(GetParam().name) + "/scalar", scalarSampler(dist),
        *dist, rng, testing::certifyOptions());
    EXPECT_TRUE(testing::certifiedPass(r));
}

INSTANTIATE_TEST_SUITE_P(
    AllContinuousLaws, CertificationContinuous,
    ::testing::ValuesIn(kContinuousCases),
    [](const ::testing::TestParamInfo<ContinuousCase>& info) {
        return std::string(info.param.name);
    });

struct DiscreteCase
{
    const char* name;
    random::DistributionPtr (*make)();
    std::uint64_t seed;
};

/** Prints the case name; see PrintTo(const ContinuousCase&). */
void
PrintTo(const DiscreteCase& c, std::ostream* os)
{
    *os << c.name;
}

random::DistributionPtr
makeSmallBinomial()
{
    // n <= 64: the exact CDF-inversion table.
    return std::make_shared<random::Binomial>(40, 0.3);
}

random::DistributionPtr
makeBtpeBinomial()
{
    // n r >= 30 at large n: the BTPE hat with exact acceptance.
    return std::make_shared<random::Binomial>(200, 0.4);
}

random::DistributionPtr
makeReflectedBtpeBinomial()
{
    // p > 1/2 exercises the r = 1 - p reflection around BTPE.
    return std::make_shared<random::Binomial>(3000, 0.65);
}

random::DistributionPtr
makeSkipBinomial()
{
    // Large n, tiny n r: the geometric waiting-time skip.
    return std::make_shared<random::Binomial>(2000, 0.004);
}

random::DistributionPtr
makeKnuthPoisson()
{
    return std::make_shared<random::Poisson>(4.2);
}

random::DistributionPtr
makePtrsPoisson()
{
    return std::make_shared<random::Poisson>(80.0);
}

const DiscreteCase kDiscreteCases[] = {
    {"binomial_inversion_40", makeSmallBinomial, 4101},
    {"binomial_btpe_200", makeBtpeBinomial, 4102},
    {"binomial_btpe_reflected_3000", makeReflectedBtpeBinomial, 4103},
    {"binomial_skip_2000", makeSkipBinomial, 4104},
    {"poisson_knuth_4p2", makeKnuthPoisson, 4105},
    {"poisson_ptrs_80", makePtrsPoisson, 4106},
};

class CertificationDiscrete
    : public ::testing::TestWithParam<DiscreteCase>
{};

/**
 * The exact finite-support table (the enumeration oracle's view of
 * the leaf) is the ground truth for both paths; failing to surface
 * one is itself a test failure for these laws.
 */
void
exactSupport(const random::Distribution& dist,
             std::vector<double>& values,
             std::vector<double>& probabilities)
{
    ASSERT_TRUE(dist.finiteSupport(values, probabilities))
        << dist.name() << " must surface a finite support";
}

TEST_P(CertificationDiscrete, BulkSamplerMatchesExactPmf)
{
    auto dist = GetParam().make();
    std::vector<double> values;
    std::vector<double> probabilities;
    exactSupport(*dist, values, probabilities);
    Rng rng = testing::testRng(GetParam().seed);
    auto r = certifyDiscrete(std::string(GetParam().name) + "/bulk",
                             bulkSampler(dist), values, probabilities,
                             rng, testing::certifyOptions());
    EXPECT_TRUE(testing::certifiedPass(r));
}

TEST_P(CertificationDiscrete, ScalarSamplerMatchesExactPmf)
{
    auto dist = GetParam().make();
    std::vector<double> values;
    std::vector<double> probabilities;
    exactSupport(*dist, values, probabilities);
    Rng rng = testing::testRng(GetParam().seed + 500);
    auto r = certifyDiscrete(std::string(GetParam().name) + "/scalar",
                             scalarSampler(dist), values,
                             probabilities, rng,
                             testing::certifyOptions());
    EXPECT_TRUE(testing::certifiedPass(r));
}

INSTANTIATE_TEST_SUITE_P(
    AllDiscreteLaws, CertificationDiscrete,
    ::testing::ValuesIn(kDiscreteCases),
    [](const ::testing::TestParamInfo<DiscreteCase>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace stats
} // namespace uncertain
