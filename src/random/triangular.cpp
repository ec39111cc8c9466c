#include "random/triangular.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/error.hpp"

namespace uncertain {
namespace random {

Triangular::Triangular(double lo, double mode, double hi)
    : lo_(lo), mode_(mode), hi_(hi)
{
    UNCERTAIN_REQUIRE(std::isfinite(lo), "Triangular requires finite lo");
    UNCERTAIN_REQUIRE(std::isfinite(mode), "Triangular requires finite mode");
    UNCERTAIN_REQUIRE(std::isfinite(hi), "Triangular requires finite hi");
    UNCERTAIN_REQUIRE(lo <= mode && mode <= hi && lo < hi,
                      "Triangular requires lo <= mode <= hi, lo < hi");
}

double
Triangular::sample(Rng& rng) const
{
    return quantile(rng.nextDouble());
}

std::string
Triangular::name() const
{
    std::ostringstream out;
    out << "Triangular(" << lo_ << ", " << mode_ << ", " << hi_ << ")";
    return out.str();
}

double
Triangular::pdf(double x) const
{
    if (x < lo_ || x > hi_)
        return 0.0;
    double span = hi_ - lo_;
    if (x < mode_)
        return 2.0 * (x - lo_) / (span * (mode_ - lo_));
    if (x > mode_)
        return 2.0 * (hi_ - x) / (span * (hi_ - mode_));
    return 2.0 / span;
}

double
Triangular::logPdf(double x) const
{
    double density = pdf(x);
    return density > 0.0 ? std::log(density)
                         : -std::numeric_limits<double>::infinity();
}

double
Triangular::cdf(double x) const
{
    if (x <= lo_)
        return 0.0;
    if (x >= hi_)
        return 1.0;
    double span = hi_ - lo_;
    if (x <= mode_) {
        double d = x - lo_;
        return d * d / (span * (mode_ - lo_));
    }
    double d = hi_ - x;
    return 1.0 - d * d / (span * (hi_ - mode_));
}

double
Triangular::quantile(double p) const
{
    UNCERTAIN_REQUIRE(p >= 0.0 && p <= 1.0,
                      "Triangular::quantile requires p in [0, 1]");
    double span = hi_ - lo_;
    double fMode = (mode_ - lo_) / span;
    if (p < fMode)
        return lo_ + std::sqrt(p * span * (mode_ - lo_));
    return hi_ - std::sqrt((1.0 - p) * span * (hi_ - mode_));
}

double
Triangular::mean() const
{
    return (lo_ + mode_ + hi_) / 3.0;
}

double
Triangular::variance() const
{
    return (lo_ * lo_ + mode_ * mode_ + hi_ * hi_ - lo_ * mode_
            - lo_ * hi_ - mode_ * hi_)
           / 18.0;
}

} // namespace random
} // namespace uncertain
