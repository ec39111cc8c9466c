#include "random/student_t.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "random/gamma.hpp"
#include "random/gaussian.hpp"
#include "support/error.hpp"
#include "support/special_math.hpp"

namespace uncertain {
namespace random {

StudentT::StudentT(double nu) : nu_(nu)
{
    UNCERTAIN_REQUIRE(std::isfinite(nu), "StudentT requires finite nu");
    UNCERTAIN_REQUIRE(nu > 0.0, "StudentT requires nu > 0");
}

double
StudentT::sample(Rng& rng) const
{
    double z = Gaussian::standardSample(rng);
    double chi2 = 2.0 * Gamma::standardSample(rng, 0.5 * nu_);
    return z / std::sqrt(chi2 / nu_);
}

void
StudentT::sampleMany(Rng& rng, double* out, std::size_t n) const
{
    // Same z / sqrt(chi2 / nu) construction as the scalar path with
    // both ingredients drawn as bulk columns: ziggurat normals for
    // the numerator, hoisted-constant gamma variates for the
    // chi-square denominator, combined block by block.
    constexpr std::size_t kBlock = 4096;
    double z[kBlock];
    double g[kBlock];
    const double halfNu = 0.5 * nu_;
    for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t m = std::min(kBlock, n - base);
        Gaussian::standardSampleMany(rng, z, m);
        Gamma::standardSampleMany(rng, halfNu, g, m);
        for (std::size_t i = 0; i < m; ++i)
            out[base + i] = z[i] / std::sqrt(2.0 * g[i] / nu_);
    }
}

std::string
StudentT::name() const
{
    std::ostringstream out;
    out << "StudentT(" << nu_ << ")";
    return out.str();
}

double
StudentT::logPdf(double x) const
{
    double halfNuPlus = 0.5 * (nu_ + 1.0);
    return math::logGamma(halfNuPlus) - math::logGamma(0.5 * nu_)
           - 0.5 * std::log(nu_ * M_PI)
           - halfNuPlus * std::log1p(x * x / nu_);
}

void
StudentT::logPdfMany(const double* xs, double* out,
                     std::size_t n) const
{
    // Same arithmetic in the same order as logPdf with the
    // nu-dependent normalizer hoisted; per-element values are
    // bit-identical to the scalar logPdf.
    const double halfNuPlus = 0.5 * (nu_ + 1.0);
    const double norm = math::logGamma(halfNuPlus)
                        - math::logGamma(0.5 * nu_)
                        - 0.5 * std::log(nu_ * M_PI);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = xs[i];
        out[i] = norm - halfNuPlus * std::log1p(x * x / nu_);
    }
}

double
StudentT::cdf(double x) const
{
    return math::studentTCdf(x, nu_);
}

double
StudentT::quantile(double p) const
{
    UNCERTAIN_REQUIRE(p > 0.0 && p < 1.0,
                      "StudentT::quantile requires p in (0, 1)");
    if (p == 0.5)
        return 0.0;

    // Bisection on the monotone CDF; good enough for test-critical
    // values, which are computed once per test.
    double lo = -1.0;
    double hi = 1.0;
    while (cdf(lo) > p)
        lo *= 2.0;
    while (cdf(hi) < p)
        hi *= 2.0;
    for (int i = 0; i < 200; ++i) {
        double mid = 0.5 * (lo + hi);
        if (cdf(mid) < p)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12 * std::max(1.0, std::fabs(hi)))
            break;
    }
    return 0.5 * (lo + hi);
}

double
StudentT::mean() const
{
    UNCERTAIN_REQUIRE(nu_ > 1.0, "StudentT mean requires nu > 1");
    return 0.0;
}

double
StudentT::variance() const
{
    UNCERTAIN_REQUIRE(nu_ > 2.0, "StudentT variance requires nu > 2");
    return nu_ / (nu_ - 2.0);
}

} // namespace random
} // namespace uncertain
