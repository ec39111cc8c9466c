#include "random/lognormal.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "random/gaussian.hpp"
#include "support/error.hpp"
#include "support/special_math.hpp"

namespace uncertain {
namespace random {

LogNormal::LogNormal(double mu, double sigma) : mu_(mu), sigma_(sigma)
{
    UNCERTAIN_REQUIRE(std::isfinite(mu), "LogNormal requires finite mu");
    UNCERTAIN_REQUIRE(std::isfinite(sigma), "LogNormal requires finite sigma");
    UNCERTAIN_REQUIRE(sigma > 0.0, "LogNormal requires sigma > 0");
}

double
LogNormal::sample(Rng& rng) const
{
    return std::exp(mu_ + sigma_ * Gaussian::standardSample(rng));
}

std::string
LogNormal::name() const
{
    std::ostringstream out;
    out << "LogNormal(" << mu_ << ", " << sigma_ << ")";
    return out.str();
}

double
LogNormal::logPdf(double x) const
{
    if (x <= 0.0)
        return -std::numeric_limits<double>::infinity();
    double z = (std::log(x) - mu_) / sigma_;
    return -0.5 * z * z - std::log(x * sigma_)
           - 0.91893853320467274178; // log(sqrt(2*pi))
}

double
LogNormal::cdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return math::normalCdf((std::log(x) - mu_) / sigma_);
}

double
LogNormal::quantile(double p) const
{
    return std::exp(mu_ + sigma_ * math::normalQuantile(p));
}

double
LogNormal::mean() const
{
    return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double
LogNormal::variance() const
{
    double s2 = sigma_ * sigma_;
    return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
}

} // namespace random
} // namespace uncertain
