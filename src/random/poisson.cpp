#include "random/poisson.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/error.hpp"
#include "support/special_math.hpp"

namespace uncertain {
namespace random {

namespace {

/** PTRS transformed-rejection constants (Hormann, 1993). */
struct PtrsConstants
{
    double b;
    double a;
    double invAlpha;
    double vr;

    explicit PtrsConstants(double lambda)
    {
        b = 0.931 + 2.53 * std::sqrt(lambda);
        a = -0.059 + 0.02483 * b;
        invAlpha = 1.1239 + 1.1328 / (b - 3.4);
        vr = 0.9277 - 3.6224 / (b - 2.0);
    }
};

/** One Knuth-multiplication draw with exp(-lambda) precomputed. */
inline double
knuthDraw(Rng& rng, double limit)
{
    double product = rng.nextDouble();
    double count = 0.0;
    while (product > limit) {
        product *= rng.nextDouble();
        count += 1.0;
    }
    return count;
}

/** One PTRS draw with the setup constants and log(lambda) hoisted. */
inline double
ptrsDraw(Rng& rng, const PtrsConstants& c, double lambda,
         double logLambda)
{
    for (;;) {
        double u = rng.nextDouble() - 0.5;
        double v = rng.nextDoubleOpen();
        double us = 0.5 - std::fabs(u);
        double k = std::floor((2.0 * c.a / us + c.b) * u + lambda
                              + 0.43);
        if (us >= 0.07 && v <= c.vr)
            return k;
        if (k < 0.0 || (us < 0.013 && v > us))
            continue;
        if (std::log(v * c.invAlpha / (c.a / (us * us) + c.b))
            <= k * logLambda - lambda - math::logGamma(k + 1.0)) {
            return k;
        }
    }
}

} // namespace

Poisson::Poisson(double lambda)
    : lambda_(lambda), expNegLambda_(std::exp(-lambda)),
      logLambda_(std::log(lambda))
{
    UNCERTAIN_REQUIRE(std::isfinite(lambda),
                      "Poisson requires finite lambda");
    UNCERTAIN_REQUIRE(lambda > 0.0, "Poisson requires lambda > 0");
}

double
Poisson::sample(Rng& rng) const
{
    if (lambda_ < 30.0)
        return knuthDraw(rng, expNegLambda_);
    PtrsConstants c(lambda_);
    return ptrsDraw(rng, c, lambda_, logLambda_);
}

void
Poisson::sampleMany(Rng& rng, double* out, std::size_t n) const
{
    // Same per-draw algorithms as sample() with every lambda-only
    // quantity (exp(-lambda), log(lambda), the PTRS setup) computed
    // once per column instead of once per draw, and no virtual
    // dispatch inside the loop.
    if (lambda_ < 30.0) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = knuthDraw(rng, expNegLambda_);
        return;
    }
    const PtrsConstants c(lambda_);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = ptrsDraw(rng, c, lambda_, logLambda_);
}

std::string
Poisson::name() const
{
    std::ostringstream out;
    out << "Poisson(" << lambda_ << ")";
    return out.str();
}

double
Poisson::pdf(double x) const
{
    double k = std::round(x);
    if (k != x || k < 0.0)
        return 0.0;
    return std::exp(logPdf(x));
}

double
Poisson::logPdf(double x) const
{
    double k = std::round(x);
    if (k != x || k < 0.0)
        return -std::numeric_limits<double>::infinity();
    return k * logLambda_ - lambda_ - math::logGamma(k + 1.0);
}

void
Poisson::logPdfMany(const double* xs, double* out, std::size_t n) const
{
    // Same arithmetic in the same order as logPdf (log(lambda) is
    // already hoisted into the constructor); bit-identical values,
    // no virtual dispatch inside the loop.
    for (std::size_t i = 0; i < n; ++i) {
        const double k = std::round(xs[i]);
        out[i] = (k != xs[i] || k < 0.0)
                     ? -std::numeric_limits<double>::infinity()
                     : k * logLambda_ - lambda_
                           - math::logGamma(k + 1.0);
    }
}

double
Poisson::cdf(double x) const
{
    if (x < 0.0)
        return 0.0;
    double k = std::floor(x);
    // Pr[X <= k] = Q(k + 1, lambda).
    return math::regularizedGammaQ(k + 1.0, lambda_);
}

double
Poisson::mean() const
{
    return lambda_;
}

double
Poisson::variance() const
{
    return lambda_;
}

bool
Poisson::finiteSupport(std::vector<double>& values,
                       std::vector<double>& probabilities) const
{
    constexpr std::size_t kMaxSupport = 4096;
    constexpr double kTailMass = 1e-14;

    // Walk the pmf recurrence p_{k+1} = p_k * lambda / (k + 1) until
    // the accumulated mass is within kTailMass of 1. exp(-lambda)
    // underflows near lambda ~ 745, far beyond the kMaxSupport cap,
    // so the recurrence start is safe wherever this succeeds.
    std::vector<double> pmf;
    double p = expNegLambda_;
    double mass = p;
    pmf.push_back(p);
    std::size_t k = 0;
    while (mass < 1.0 - kTailMass) {
        if (pmf.size() >= kMaxSupport || p == 0.0)
            return false;
        ++k;
        p *= lambda_ / static_cast<double>(k);
        pmf.push_back(p);
        mass += p;
    }

    values.resize(pmf.size());
    probabilities.resize(pmf.size());
    for (std::size_t i = 0; i < pmf.size(); ++i) {
        values[i] = static_cast<double>(i);
        probabilities[i] = pmf[i] / mass;
    }
    return true;
}

} // namespace random
} // namespace uncertain
