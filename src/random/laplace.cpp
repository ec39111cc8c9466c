#include "random/laplace.hpp"

#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace uncertain {
namespace random {

Laplace::Laplace(double mu, double b) : mu_(mu), b_(b)
{
    UNCERTAIN_REQUIRE(std::isfinite(mu), "Laplace requires finite mu");
    UNCERTAIN_REQUIRE(std::isfinite(b), "Laplace requires finite b");
    UNCERTAIN_REQUIRE(b > 0.0, "Laplace requires b > 0");
}

double
Laplace::sample(Rng& rng) const
{
    // Inverse CDF on a symmetric uniform.
    double u = rng.nextDoubleOpen() - 0.5;
    double sign = u < 0.0 ? -1.0 : 1.0;
    return mu_ - b_ * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

std::string
Laplace::name() const
{
    std::ostringstream out;
    out << "Laplace(" << mu_ << ", " << b_ << ")";
    return out.str();
}

double
Laplace::pdf(double x) const
{
    return std::exp(-std::fabs(x - mu_) / b_) / (2.0 * b_);
}

double
Laplace::logPdf(double x) const
{
    return -std::fabs(x - mu_) / b_ - std::log(2.0 * b_);
}

double
Laplace::cdf(double x) const
{
    if (x < mu_)
        return 0.5 * std::exp((x - mu_) / b_);
    return 1.0 - 0.5 * std::exp(-(x - mu_) / b_);
}

double
Laplace::quantile(double p) const
{
    UNCERTAIN_REQUIRE(p > 0.0 && p < 1.0,
                      "Laplace::quantile requires p in (0, 1)");
    if (p < 0.5)
        return mu_ + b_ * std::log(2.0 * p);
    return mu_ - b_ * std::log(2.0 * (1.0 - p));
}

double
Laplace::mean() const
{
    return mu_;
}

double
Laplace::variance() const
{
    return 2.0 * b_ * b_;
}

} // namespace random
} // namespace uncertain
