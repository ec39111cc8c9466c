#include "random/gamma.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "random/gaussian.hpp"
#include "support/error.hpp"
#include "support/special_math.hpp"

namespace uncertain {
namespace random {

Gamma::Gamma(double shape, double rate) : shape_(shape), rate_(rate)
{
    UNCERTAIN_REQUIRE(std::isfinite(shape), "Gamma requires finite shape");
    UNCERTAIN_REQUIRE(std::isfinite(rate), "Gamma requires finite rate");
    UNCERTAIN_REQUIRE(shape > 0.0, "Gamma requires shape > 0");
    UNCERTAIN_REQUIRE(rate > 0.0, "Gamma requires rate > 0");
}

double
Gamma::standardSample(Rng& rng, double shape)
{
    // Marsaglia & Tsang (2000). For shape < 1, boost to shape + 1 and
    // scale by u^{1/shape}.
    if (shape < 1.0) {
        double u = rng.nextDoubleOpen();
        return standardSample(rng, shape + 1.0)
               * std::pow(u, 1.0 / shape);
    }

    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x;
        double v;
        do {
            x = Gaussian::standardSample(rng);
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        double u = rng.nextDoubleOpen();
        double x2 = x * x;
        if (u < 1.0 - 0.0331 * x2 * x2)
            return d * v;
        if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v)))
            return d * v;
    }
}

namespace {

/**
 * Block-refilled deviate feeds for the bulk squeeze loop: candidate
 * normals through the ziggurat bulk path, open uniforms through
 * fillDoubleOpen. Rejection consumes a data-dependent number of
 * deviates, which the bulk contract permits (same law, different
 * stream schedule than the scalar path).
 */
struct SqueezeFeed
{
    static constexpr std::size_t kBuf = 1024;
    double normals[kBuf];
    double uniforms[kBuf];
    std::size_t normalPos = kBuf;
    std::size_t uniformPos = kBuf;

    double
    nextNormal(Rng& rng)
    {
        if (normalPos == kBuf) {
            Gaussian::standardSampleMany(rng, normals, kBuf);
            normalPos = 0;
        }
        return normals[normalPos++];
    }

    double
    nextUniform(Rng& rng)
    {
        if (uniformPos == kBuf) {
            rng.fillDoubleOpen(uniforms, kBuf);
            uniformPos = 0;
        }
        return uniforms[uniformPos++];
    }
};

} // namespace

double
Gamma::sample(Rng& rng) const
{
    return standardSample(rng, shape_) / rate_;
}

void
Gamma::standardSampleMany(Rng& rng, double shape, double* out,
                          std::size_t n)
{
    if (shape < 1.0) {
        // Boost to shape + 1, then scale by u^{1/shape}: the standard
        // small-shape correction, applied as a second vectorized pass
        // over the boosted column.
        standardSampleMany(rng, shape + 1.0, out, n);
        const double invShape = 1.0 / shape;
        constexpr std::size_t kBuf = 1024;
        double uniforms[kBuf];
        for (std::size_t base = 0; base < n; base += kBuf) {
            const std::size_t m = std::min(kBuf, n - base);
            rng.fillDoubleOpen(uniforms, m);
            for (std::size_t i = 0; i < m; ++i)
                out[base + i] *= std::pow(uniforms[i], invShape);
        }
        return;
    }

    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    SqueezeFeed feed;
    for (std::size_t i = 0; i < n; ++i) {
        for (;;) {
            double x;
            double v;
            do {
                x = feed.nextNormal(rng);
                v = 1.0 + c * x;
            } while (v <= 0.0);
            v = v * v * v;
            const double u = feed.nextUniform(rng);
            const double x2 = x * x;
            if (u < 1.0 - 0.0331 * x2 * x2) {
                out[i] = d * v;
                break;
            }
            if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
                out[i] = d * v;
                break;
            }
        }
    }
}

void
Gamma::sampleMany(Rng& rng, double* out, std::size_t n) const
{
    standardSampleMany(rng, shape_, out, n);
    const double scale = 1.0 / rate_;
    for (std::size_t i = 0; i < n; ++i)
        out[i] *= scale;
}

std::string
Gamma::name() const
{
    std::ostringstream out;
    out << "Gamma(" << shape_ << ", " << rate_ << ")";
    return out.str();
}

double
Gamma::logPdf(double x) const
{
    if (x <= 0.0)
        return -std::numeric_limits<double>::infinity();
    return shape_ * std::log(rate_) + (shape_ - 1.0) * std::log(x)
           - rate_ * x - math::logGamma(shape_);
}

void
Gamma::logPdfMany(const double* xs, double* out, std::size_t n) const
{
    // Same arithmetic in the same order as logPdf with the
    // shape*log(rate) and logGamma(shape) terms hoisted; per-element
    // values are bit-identical to the scalar logPdf.
    const double shapeLogRate = shape_ * std::log(rate_);
    const double shapeM1 = shape_ - 1.0;
    const double logGammaShape = math::logGamma(shape_);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = xs[i];
        out[i] = x <= 0.0
                     ? -std::numeric_limits<double>::infinity()
                     : shapeLogRate + shapeM1 * std::log(x) - rate_ * x
                           - logGammaShape;
    }
}

double
Gamma::cdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return math::regularizedGammaP(shape_, rate_ * x);
}

double
Gamma::mean() const
{
    return shape_ / rate_;
}

double
Gamma::variance() const
{
    return shape_ / (rate_ * rate_);
}

} // namespace random
} // namespace uncertain
