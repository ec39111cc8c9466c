#include "random/rayleigh.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/error.hpp"

namespace uncertain {
namespace random {

Rayleigh::Rayleigh(double rho) : rho_(rho)
{
    UNCERTAIN_REQUIRE(std::isfinite(rho), "Rayleigh requires finite rho");
    UNCERTAIN_REQUIRE(rho > 0.0, "Rayleigh requires rho > 0");
}

Rayleigh
Rayleigh::fromHorizontalAccuracy(double epsilon95)
{
    UNCERTAIN_REQUIRE(epsilon95 > 0.0,
                      "horizontal accuracy must be positive");
    // cdf(eps) = 1 - exp(-eps^2 / (2 rho^2)) = 0.95
    //   => rho = eps / sqrt(2 ln 20) = eps / sqrt(ln 400).
    return Rayleigh(epsilon95 / std::sqrt(std::log(400.0)));
}

double
Rayleigh::sample(Rng& rng) const
{
    // Inverse-CDF: x = rho * sqrt(-2 ln(1 - u)).
    return rho_ * std::sqrt(-2.0 * std::log(rng.nextDoubleOpen()));
}

void
Rayleigh::sampleMany(Rng& rng, double* out, std::size_t n) const
{
    rng.fillDoubleOpen(out, n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = rho_ * std::sqrt(-2.0 * std::log(out[i]));
}

std::string
Rayleigh::name() const
{
    std::ostringstream out;
    out << "Rayleigh(" << rho_ << ")";
    return out.str();
}

double
Rayleigh::pdf(double x) const
{
    if (x < 0.0)
        return 0.0;
    double r2 = rho_ * rho_;
    return x / r2 * std::exp(-x * x / (2.0 * r2));
}

double
Rayleigh::logPdf(double x) const
{
    if (x <= 0.0)
        return -std::numeric_limits<double>::infinity();
    return std::log(x) - 2.0 * std::log(rho_)
           - x * x / (2.0 * rho_ * rho_);
}

double
Rayleigh::cdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return 1.0 - std::exp(-x * x / (2.0 * rho_ * rho_));
}

double
Rayleigh::quantile(double p) const
{
    UNCERTAIN_REQUIRE(p >= 0.0 && p < 1.0,
                      "Rayleigh::quantile requires p in [0, 1)");
    return rho_ * std::sqrt(-2.0 * std::log(1.0 - p));
}

double
Rayleigh::mean() const
{
    return rho_ * std::sqrt(M_PI / 2.0);
}

double
Rayleigh::variance() const
{
    return (2.0 - M_PI / 2.0) * rho_ * rho_;
}

} // namespace random
} // namespace uncertain
