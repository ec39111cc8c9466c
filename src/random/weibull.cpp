#include "random/weibull.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/error.hpp"
#include "support/special_math.hpp"

namespace uncertain {
namespace random {

Weibull::Weibull(double shape, double scale)
    : shape_(shape), scale_(scale)
{
    UNCERTAIN_REQUIRE(std::isfinite(shape), "Weibull requires finite shape");
    UNCERTAIN_REQUIRE(std::isfinite(scale), "Weibull requires finite scale");
    UNCERTAIN_REQUIRE(shape > 0.0, "Weibull requires shape > 0");
    UNCERTAIN_REQUIRE(scale > 0.0, "Weibull requires scale > 0");
}

double
Weibull::sample(Rng& rng) const
{
    // Inverse CDF.
    return scale_
           * std::pow(-std::log(rng.nextDoubleOpen()), 1.0 / shape_);
}

std::string
Weibull::name() const
{
    std::ostringstream out;
    out << "Weibull(" << shape_ << ", " << scale_ << ")";
    return out.str();
}

double
Weibull::pdf(double x) const
{
    if (x < 0.0)
        return 0.0;
    if (x == 0.0)
        return shape_ < 1.0
                   ? std::numeric_limits<double>::infinity()
                   : (shape_ == 1.0 ? 1.0 / scale_ : 0.0);
    double z = x / scale_;
    return shape_ / scale_ * std::pow(z, shape_ - 1.0)
           * std::exp(-std::pow(z, shape_));
}

double
Weibull::logPdf(double x) const
{
    if (x <= 0.0)
        return -std::numeric_limits<double>::infinity();
    double z = x / scale_;
    return std::log(shape_ / scale_)
           + (shape_ - 1.0) * std::log(z) - std::pow(z, shape_);
}

double
Weibull::cdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return 1.0 - std::exp(-std::pow(x / scale_, shape_));
}

double
Weibull::quantile(double p) const
{
    UNCERTAIN_REQUIRE(p >= 0.0 && p < 1.0,
                      "Weibull::quantile requires p in [0, 1)");
    return scale_ * std::pow(-std::log(1.0 - p), 1.0 / shape_);
}

double
Weibull::mean() const
{
    return scale_ * std::exp(math::logGamma(1.0 + 1.0 / shape_));
}

double
Weibull::variance() const
{
    double g1 = std::exp(math::logGamma(1.0 + 1.0 / shape_));
    double g2 = std::exp(math::logGamma(1.0 + 2.0 / shape_));
    return scale_ * scale_ * (g2 - g1 * g1);
}

} // namespace random
} // namespace uncertain
