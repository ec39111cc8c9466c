#include "random/exponential.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/error.hpp"

namespace uncertain {
namespace random {

Exponential::Exponential(double lambda) : lambda_(lambda)
{
    UNCERTAIN_REQUIRE(std::isfinite(lambda),
                      "Exponential requires finite lambda");
    UNCERTAIN_REQUIRE(lambda > 0.0, "Exponential requires lambda > 0");
}

double
Exponential::sample(Rng& rng) const
{
    return -std::log(rng.nextDoubleOpen()) / lambda_;
}

void
Exponential::sampleMany(Rng& rng, double* out, std::size_t n) const
{
    rng.fillDoubleOpen(out, n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = -std::log(out[i]) / lambda_;
}

std::string
Exponential::name() const
{
    std::ostringstream out;
    out << "Exponential(" << lambda_ << ")";
    return out.str();
}

double
Exponential::pdf(double x) const
{
    return x < 0.0 ? 0.0 : lambda_ * std::exp(-lambda_ * x);
}

double
Exponential::logPdf(double x) const
{
    if (x < 0.0)
        return -std::numeric_limits<double>::infinity();
    return std::log(lambda_) - lambda_ * x;
}

double
Exponential::cdf(double x) const
{
    return x <= 0.0 ? 0.0 : 1.0 - std::exp(-lambda_ * x);
}

double
Exponential::quantile(double p) const
{
    UNCERTAIN_REQUIRE(p >= 0.0 && p < 1.0,
                      "Exponential::quantile requires p in [0, 1)");
    return -std::log(1.0 - p) / lambda_;
}

double
Exponential::mean() const
{
    return 1.0 / lambda_;
}

double
Exponential::variance() const
{
    return 1.0 / (lambda_ * lambda_);
}

} // namespace random
} // namespace uncertain
