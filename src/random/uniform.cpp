#include "random/uniform.hpp"

#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace uncertain {
namespace random {

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi)
{
    UNCERTAIN_REQUIRE(lo < hi, "Uniform requires lo < hi");
    // Also refuses infinite bounds: the sampler scales by hi - lo.
    UNCERTAIN_REQUIRE(std::isfinite(hi - lo),
                      "Uniform requires finite hi - lo");
}

double
Uniform::sample(Rng& rng) const
{
    return rng.nextRange(lo_, hi_);
}

void
Uniform::sampleMany(Rng& rng, double* out, std::size_t n) const
{
    rng.fillDouble(out, n);
    const double width = hi_ - lo_;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = lo_ + width * out[i];
}

std::string
Uniform::name() const
{
    std::ostringstream out;
    out << "Uniform(" << lo_ << ", " << hi_ << ")";
    return out.str();
}

double
Uniform::pdf(double x) const
{
    return (x >= lo_ && x < hi_) ? 1.0 / (hi_ - lo_) : 0.0;
}

double
Uniform::logPdf(double x) const
{
    double density = pdf(x);
    return density > 0.0 ? std::log(density)
                         : -std::numeric_limits<double>::infinity();
}

double
Uniform::cdf(double x) const
{
    if (x <= lo_)
        return 0.0;
    if (x >= hi_)
        return 1.0;
    return (x - lo_) / (hi_ - lo_);
}

double
Uniform::quantile(double p) const
{
    UNCERTAIN_REQUIRE(p >= 0.0 && p <= 1.0,
                      "Uniform::quantile requires p in [0, 1]");
    return lo_ + p * (hi_ - lo_);
}

double
Uniform::mean() const
{
    return 0.5 * (lo_ + hi_);
}

double
Uniform::variance() const
{
    double width = hi_ - lo_;
    return width * width / 12.0;
}

} // namespace random
} // namespace uncertain
