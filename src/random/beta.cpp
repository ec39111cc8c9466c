#include "random/beta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "random/gamma.hpp"
#include "support/error.hpp"
#include "support/special_math.hpp"

namespace uncertain {
namespace random {

Beta::Beta(double a, double b) : a_(a), b_(b)
{
    UNCERTAIN_REQUIRE(std::isfinite(a), "Beta requires finite a");
    UNCERTAIN_REQUIRE(std::isfinite(b), "Beta requires finite b");
    UNCERTAIN_REQUIRE(a > 0.0 && b > 0.0, "Beta requires a, b > 0");
}

double
Beta::sample(Rng& rng) const
{
    double x = Gamma::standardSample(rng, a_);
    double y = Gamma::standardSample(rng, b_);
    return x / (x + y);
}

void
Beta::sampleMany(Rng& rng, double* out, std::size_t n) const
{
    // Same X/(X+Y) construction as the scalar path, but the two gamma
    // variates arrive as bulk columns (hoisted squeeze constants,
    // ziggurat candidate normals) combined block by block so the
    // scratch stays cache-resident at any n.
    constexpr std::size_t kBlock = 4096;
    double x[kBlock];
    double y[kBlock];
    for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t m = std::min(kBlock, n - base);
        Gamma::standardSampleMany(rng, a_, x, m);
        Gamma::standardSampleMany(rng, b_, y, m);
        for (std::size_t i = 0; i < m; ++i)
            out[base + i] = x[i] / (x[i] + y[i]);
    }
}

std::string
Beta::name() const
{
    std::ostringstream out;
    out << "Beta(" << a_ << ", " << b_ << ")";
    return out.str();
}

double
Beta::logPdf(double x) const
{
    if (x <= 0.0 || x >= 1.0)
        return -std::numeric_limits<double>::infinity();
    return (a_ - 1.0) * std::log(x) + (b_ - 1.0) * std::log(1.0 - x)
           - math::logBeta(a_, b_);
}

void
Beta::logPdfMany(const double* xs, double* out, std::size_t n) const
{
    // Same arithmetic in the same order as logPdf with the
    // logBeta(a, b) normalizer hoisted; per-element values are
    // bit-identical to the scalar logPdf.
    const double aM1 = a_ - 1.0;
    const double bM1 = b_ - 1.0;
    const double logNorm = math::logBeta(a_, b_);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = xs[i];
        out[i] = (x <= 0.0 || x >= 1.0)
                     ? -std::numeric_limits<double>::infinity()
                     : aM1 * std::log(x) + bM1 * std::log(1.0 - x)
                           - logNorm;
    }
}

double
Beta::cdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    return math::regularizedBeta(x, a_, b_);
}

double
Beta::mean() const
{
    return a_ / (a_ + b_);
}

double
Beta::variance() const
{
    double s = a_ + b_;
    return a_ * b_ / (s * s * (s + 1.0));
}

} // namespace random
} // namespace uncertain
