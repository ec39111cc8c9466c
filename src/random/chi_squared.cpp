#include "random/chi_squared.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "random/gamma.hpp"
#include "support/error.hpp"
#include "support/special_math.hpp"

namespace uncertain {
namespace random {

ChiSquared::ChiSquared(double k) : k_(k)
{
    UNCERTAIN_REQUIRE(std::isfinite(k), "ChiSquared requires finite k");
    UNCERTAIN_REQUIRE(k > 0.0, "ChiSquared requires k > 0");
}

double
ChiSquared::sample(Rng& rng) const
{
    return 2.0 * Gamma::standardSample(rng, 0.5 * k_);
}

std::string
ChiSquared::name() const
{
    std::ostringstream out;
    out << "ChiSquared(" << k_ << ")";
    return out.str();
}

double
ChiSquared::logPdf(double x) const
{
    if (x <= 0.0)
        return -std::numeric_limits<double>::infinity();
    double half = 0.5 * k_;
    return (half - 1.0) * std::log(x) - 0.5 * x
           - half * std::log(2.0) - math::logGamma(half);
}

double
ChiSquared::cdf(double x) const
{
    return math::chiSquareCdf(x, k_);
}

double
ChiSquared::mean() const
{
    return k_;
}

double
ChiSquared::variance() const
{
    return 2.0 * k_;
}

} // namespace random
} // namespace uncertain
