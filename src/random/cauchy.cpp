#include "random/cauchy.hpp"

#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace uncertain {
namespace random {

Cauchy::Cauchy(double location, double scale)
    : location_(location), scale_(scale)
{
    UNCERTAIN_REQUIRE(std::isfinite(location),
                      "Cauchy requires finite location");
    UNCERTAIN_REQUIRE(std::isfinite(scale), "Cauchy requires finite scale");
    UNCERTAIN_REQUIRE(scale > 0.0, "Cauchy requires scale > 0");
}

double
Cauchy::sample(Rng& rng) const
{
    // Inverse CDF; the open uniform avoids the poles of tan.
    return location_
           + scale_ * std::tan(M_PI * (rng.nextDoubleOpen() - 0.5));
}

std::string
Cauchy::name() const
{
    std::ostringstream out;
    out << "Cauchy(" << location_ << ", " << scale_ << ")";
    return out.str();
}

double
Cauchy::pdf(double x) const
{
    double z = (x - location_) / scale_;
    return 1.0 / (M_PI * scale_ * (1.0 + z * z));
}

double
Cauchy::logPdf(double x) const
{
    double z = (x - location_) / scale_;
    return -std::log(M_PI * scale_) - std::log1p(z * z);
}

double
Cauchy::cdf(double x) const
{
    return 0.5
           + std::atan((x - location_) / scale_) / M_PI;
}

double
Cauchy::quantile(double p) const
{
    UNCERTAIN_REQUIRE(p > 0.0 && p < 1.0,
                      "Cauchy::quantile requires p in (0, 1)");
    return location_ + scale_ * std::tan(M_PI * (p - 0.5));
}

double
Cauchy::mean() const
{
    notSupported("mean (undefined for Cauchy)");
}

double
Cauchy::variance() const
{
    notSupported("variance (undefined for Cauchy)");
}

} // namespace random
} // namespace uncertain
