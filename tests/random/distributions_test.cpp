/**
 * @file
 * Parameterized property tests over every distribution: sampling
 * functions must actually draw from the law their analytic queries
 * describe. This is the contract Uncertain<T> leaves rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "random/bernoulli.hpp"
#include "random/beta.hpp"
#include "random/binomial.hpp"
#include "random/cauchy.hpp"
#include "random/chi_squared.hpp"
#include "random/distribution.hpp"
#include "random/exponential.hpp"
#include "random/gamma.hpp"
#include "random/gaussian.hpp"
#include "random/laplace.hpp"
#include "random/lognormal.hpp"
#include "random/mixture.hpp"
#include "random/poisson.hpp"
#include "random/rayleigh.hpp"
#include "random/student_t.hpp"
#include "random/triangular.hpp"
#include "random/uniform.hpp"
#include "random/weibull.hpp"
#include "stats/ks_test.hpp"
#include "stats/summary.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace random {
namespace {

struct DistCase
{
    std::string label;
    std::function<DistributionPtr()> make;
    bool continuous;     //!< KS test applies
    bool hasQuantile;    //!< cdf/quantile round-trip applies
    bool hasDensityIntegral; //!< pdf integrates to 1 over quantiles
};

class DistributionProperty : public ::testing::TestWithParam<DistCase>
{};

TEST_P(DistributionProperty, SampleMeanMatchesAnalyticMean)
{
    const DistCase& c = GetParam();
    auto dist = c.make();
    Rng rng = testing::testRng(11);
    const std::size_t n = 200000;
    stats::OnlineSummary summary;
    for (std::size_t i = 0; i < n; ++i)
        summary.add(dist->sample(rng));
    EXPECT_NEAR(summary.mean(), dist->mean(),
                testing::meanTolerance(dist->stddev(), n))
        << dist->name();
}

TEST_P(DistributionProperty, SampleVarianceMatchesAnalyticVariance)
{
    const DistCase& c = GetParam();
    auto dist = c.make();
    Rng rng = testing::testRng(12);
    const std::size_t n = 200000;
    stats::OnlineSummary summary;
    for (std::size_t i = 0; i < n; ++i)
        summary.add(dist->sample(rng));
    double v = dist->variance();
    // Variance estimator tolerance: loose 10% + absolute floor.
    EXPECT_NEAR(summary.variance(), v, 0.1 * v + 1e-3) << dist->name();
}

TEST_P(DistributionProperty, SamplesPassKsAgainstOwnCdf)
{
    const DistCase& c = GetParam();
    if (!c.continuous)
        GTEST_SKIP() << "KS requires a continuous law";
    auto dist = c.make();
    Rng rng = testing::testRng(13);
    std::vector<double> xs;
    xs.reserve(20000);
    for (int i = 0; i < 20000; ++i)
        xs.push_back(dist->sample(rng));
    auto result = stats::ksTest(std::move(xs), *dist);
    EXPECT_GT(result.pValue, 1e-4) << dist->name()
                                   << " D=" << result.statistic;
}

TEST_P(DistributionProperty, CdfIsMonotoneNonDecreasing)
{
    const DistCase& c = GetParam();
    auto dist = c.make();
    Rng rng = testing::testRng(14);
    // Probe along sampled support points.
    std::vector<double> xs;
    for (int i = 0; i < 200; ++i)
        xs.push_back(dist->sample(rng));
    std::sort(xs.begin(), xs.end());
    double prev = 0.0;
    for (double x : xs) {
        double f = dist->cdf(x);
        EXPECT_GE(f, prev - 1e-12) << dist->name();
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
        prev = f;
    }
}

TEST_P(DistributionProperty, QuantileRoundTripsThroughCdf)
{
    const DistCase& c = GetParam();
    if (!c.hasQuantile)
        GTEST_SKIP() << "no analytic quantile";
    auto dist = c.make();
    for (double p : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
        double x = dist->quantile(p);
        EXPECT_NEAR(dist->cdf(x), p, 1e-8)
            << dist->name() << " p=" << p;
    }
}

TEST_P(DistributionProperty, DensityIntegratesToOne)
{
    const DistCase& c = GetParam();
    if (!c.hasDensityIntegral)
        GTEST_SKIP() << "no tractable density integral";
    auto dist = c.make();
    // Integrate the pdf between extreme quantiles with Simpson.
    double lo = dist->quantile(1e-7);
    double hi = dist->quantile(1.0 - 1e-7);
    const int intervals = 4096;
    double h = (hi - lo) / intervals;
    double total = 0.0;
    for (int i = 0; i <= intervals; ++i) {
        double w = (i == 0 || i == intervals) ? 1.0
                   : (i % 2 == 1)             ? 4.0
                                              : 2.0;
        total += w * dist->pdf(lo + h * i);
    }
    total *= h / 3.0;
    EXPECT_NEAR(total, 1.0, 1e-3) << dist->name();
}

TEST_P(DistributionProperty, LogPdfAgreesWithLogOfPdfAtSamples)
{
    const DistCase& c = GetParam();
    if (!c.hasDensityIntegral)
        GTEST_SKIP();
    auto dist = c.make();
    Rng rng = testing::testRng(15);
    for (int i = 0; i < 100; ++i) {
        double x = dist->sample(rng);
        double pdf = dist->pdf(x);
        if (pdf > 1e-300) {
            EXPECT_NEAR(dist->logPdf(x), std::log(pdf),
                        1e-8 * std::fabs(std::log(pdf)) + 1e-9)
                << dist->name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionProperty,
    ::testing::Values(
        DistCase{"uniform",
                 [] { return std::make_shared<Uniform>(-2.0, 5.0); },
                 true, true, true},
        DistCase{"gaussian",
                 [] { return std::make_shared<Gaussian>(1.5, 2.0); },
                 true, true, true},
        DistCase{"gaussian_tight",
                 [] { return std::make_shared<Gaussian>(-4.0, 0.01); },
                 true, true, true},
        DistCase{"rayleigh",
                 [] { return std::make_shared<Rayleigh>(1.7); }, true,
                 true, true},
        DistCase{"rayleigh_gps",
                 [] {
                     return std::make_shared<Rayleigh>(
                         Rayleigh::fromHorizontalAccuracy(4.0));
                 },
                 true, true, true},
        DistCase{"exponential",
                 [] { return std::make_shared<Exponential>(0.8); },
                 true, true, true},
        DistCase{"gamma_shape_lt1",
                 [] { return std::make_shared<Gamma>(0.5, 2.0); }, true,
                 false, false},
        DistCase{"gamma_shape_gt1",
                 [] { return std::make_shared<Gamma>(4.5, 1.5); }, true,
                 false, false},
        DistCase{"beta",
                 [] { return std::make_shared<Beta>(2.0, 5.0); }, true,
                 false, false},
        DistCase{"beta_symmetric",
                 [] { return std::make_shared<Beta>(0.7, 0.7); }, true,
                 false, false},
        DistCase{"lognormal",
                 [] { return std::make_shared<LogNormal>(0.2, 0.4); },
                 true, true, true},
        DistCase{"student_t",
                 [] { return std::make_shared<StudentT>(8.0); }, true,
                 true, true},
        DistCase{"triangular",
                 [] {
                     return std::make_shared<Triangular>(-1.0, 0.5,
                                                         4.0);
                 },
                 true, true, true},
        DistCase{"bernoulli",
                 [] { return std::make_shared<Bernoulli>(0.3); }, false,
                 false, false},
        DistCase{"binomial_small",
                 [] { return std::make_shared<Binomial>(12, 0.4); },
                 false, false, false},
        DistCase{"binomial_large_sparse",
                 [] { return std::make_shared<Binomial>(500, 0.01); },
                 false, false, false},
        DistCase{"poisson_small",
                 [] { return std::make_shared<Poisson>(3.5); }, false,
                 false, false},
        DistCase{"poisson_large",
                 [] { return std::make_shared<Poisson>(80.0); }, false,
                 false, false},
        DistCase{"laplace",
                 [] { return std::make_shared<Laplace>(0.5, 1.2); },
                 true, true, true},
        DistCase{"weibull",
                 [] { return std::make_shared<Weibull>(1.7, 2.2); },
                 true, true, true},
        DistCase{"chi_squared",
                 [] { return std::make_shared<ChiSquared>(5.0); },
                 true, false, false},
        DistCase{"mixture_bimodal",
                 [] {
                     return std::make_shared<Mixture>(
                         std::vector<DistributionPtr>{
                             std::make_shared<Gaussian>(-2.0, 0.5),
                             std::make_shared<Gaussian>(3.0, 1.0)},
                         std::vector<double>{0.3, 0.7});
                 },
                 true, false, false}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
        return info.param.label;
    });

/** @p make must throw an Error whose message contains @p name. */
template <typename F>
void
expectRefusedBy(F make, const std::string& name)
{
    try {
        make();
        ADD_FAILURE() << "constructed; expected refusal by " << name;
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
    }
}

TEST(Gaussian, RefusesNonFiniteParameters)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    expectRefusedBy([&] { (void)Gaussian(nan, 1.0); }, "finite mu");
    expectRefusedBy([&] { (void)Gaussian(inf, 1.0); }, "finite mu");
    expectRefusedBy([&] { (void)Gaussian(-inf, 1.0); }, "finite mu");
    expectRefusedBy([&] { (void)Gaussian(0.0, inf); }, "finite sigma");
    expectRefusedBy([&] { (void)Gaussian(0.0, nan); }, "finite sigma");
    expectRefusedBy([&] { (void)Gaussian(0.0, 0.0); }, "sigma > 0");
}

TEST(Uniform, RefusesNonFiniteWidth)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double big = std::numeric_limits<double>::max();
    expectRefusedBy([&] { (void)Uniform(-inf, inf); }, "finite hi - lo");
    expectRefusedBy([&] { (void)Uniform(0.0, inf); }, "finite hi - lo");
    expectRefusedBy([&] { (void)Uniform(-inf, 0.0); }, "finite hi - lo");
    // Finite bounds whose difference overflows.
    expectRefusedBy([&] { (void)Uniform(-big, big); }, "finite hi - lo");
    expectRefusedBy([&] { (void)Uniform(1.0, 1.0); }, "lo < hi");
    Rng rng = testing::testRng(5);
    EXPECT_TRUE(std::isfinite(Uniform(-big / 2, big / 2).sample(rng)));
}

// One refusal per parameter and per non-finite value: each is refused
// by name, before the range check that an infinite value passes.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(Rayleigh, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)Rayleigh(kInf); }, "finite rho");
    expectRefusedBy([] { (void)Rayleigh(kNan); }, "finite rho");
    expectRefusedBy([] { (void)Rayleigh::fromHorizontalAccuracy(kInf); },
                    "finite rho");
}

TEST(LogNormal, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)LogNormal(kNan, 1.0); }, "finite mu");
    expectRefusedBy([] { (void)LogNormal(-kInf, 1.0); }, "finite mu");
    expectRefusedBy([] { (void)LogNormal(0.0, kInf); }, "finite sigma");
    expectRefusedBy([] { (void)LogNormal(0.0, kNan); }, "finite sigma");
}

TEST(Laplace, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)Laplace(kNan, 1.0); }, "finite mu");
    expectRefusedBy([] { (void)Laplace(kInf, 1.0); }, "finite mu");
    expectRefusedBy([] { (void)Laplace(0.0, kInf); }, "finite b");
    expectRefusedBy([] { (void)Laplace(0.0, kNan); }, "finite b");
}

TEST(Cauchy, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)Cauchy(kNan, 1.0); }, "finite location");
    expectRefusedBy([] { (void)Cauchy(-kInf, 1.0); }, "finite location");
    expectRefusedBy([] { (void)Cauchy(0.0, kInf); }, "finite scale");
    expectRefusedBy([] { (void)Cauchy(0.0, kNan); }, "finite scale");
}

TEST(Gamma, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)Gamma(kInf, 1.0); }, "finite shape");
    expectRefusedBy([] { (void)Gamma(kNan, 1.0); }, "finite shape");
    expectRefusedBy([] { (void)Gamma(2.0, kInf); }, "finite rate");
    expectRefusedBy([] { (void)Gamma(2.0, kNan); }, "finite rate");
}

TEST(Triangular, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)Triangular(-kInf, 0.0, 1.0); }, "finite lo");
    expectRefusedBy([] { (void)Triangular(kNan, 0.0, 1.0); }, "finite lo");
    expectRefusedBy([] { (void)Triangular(-1.0, kNan, 1.0); },
                    "finite mode");
    expectRefusedBy([] { (void)Triangular(-1.0, 0.0, kInf); }, "finite hi");
    expectRefusedBy([] { (void)Triangular(-1.0, 0.0, kNan); }, "finite hi");
}

TEST(Exponential, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)Exponential(kInf); }, "finite lambda");
    expectRefusedBy([] { (void)Exponential(kNan); }, "finite lambda");
}

TEST(Weibull, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)Weibull(kInf, 1.0); }, "finite shape");
    expectRefusedBy([] { (void)Weibull(kNan, 1.0); }, "finite shape");
    expectRefusedBy([] { (void)Weibull(1.5, kInf); }, "finite scale");
    expectRefusedBy([] { (void)Weibull(1.5, kNan); }, "finite scale");
}

TEST(Beta, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)Beta(kInf, 1.0); }, "finite a");
    expectRefusedBy([] { (void)Beta(kNan, 1.0); }, "finite a");
    expectRefusedBy([] { (void)Beta(1.0, kInf); }, "finite b");
    expectRefusedBy([] { (void)Beta(1.0, kNan); }, "finite b");
}

TEST(StudentT, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)StudentT(kInf); }, "finite nu");
    expectRefusedBy([] { (void)StudentT(kNan); }, "finite nu");
}

TEST(ChiSquared, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)ChiSquared(kInf); }, "finite k");
    expectRefusedBy([] { (void)ChiSquared(kNan); }, "finite k");
}

TEST(Poisson, RefusesNonFiniteParameters)
{
    expectRefusedBy([] { (void)Poisson(kInf); }, "finite lambda");
    expectRefusedBy([] { (void)Poisson(kNan); }, "finite lambda");
}

} // namespace
} // namespace random
} // namespace uncertain
