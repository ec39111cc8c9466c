#include "stats/sprt.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace uncertain {
namespace stats {

Sprt::Sprt(double threshold, const SprtOptions& options)
    : threshold_(threshold), maxSamples_(options.maxSamples)
{
    UNCERTAIN_REQUIRE(threshold > 0.0 && threshold < 1.0,
                      "SPRT threshold must be in (0, 1)");
    UNCERTAIN_REQUIRE(options.indifference > 0.0,
                      "SPRT indifference must be positive");
    UNCERTAIN_REQUIRE(options.alpha > 0.0 && options.alpha < 1.0,
                      "SPRT alpha must be in (0, 1)");
    UNCERTAIN_REQUIRE(options.beta > 0.0 && options.beta < 1.0,
                      "SPRT beta must be in (0, 1)");
    UNCERTAIN_REQUIRE(options.maxSamples >= 1,
                      "SPRT maxSamples must be >= 1");

    // Clamp the simple hypotheses into (0, 1) so thresholds near the
    // edges remain testable.
    constexpr double kEdge = 1e-4;
    double p0 = std::clamp(threshold - options.indifference, kEdge,
                           1.0 - 2.0 * kEdge);
    double p1 = std::clamp(threshold + options.indifference,
                           p0 + kEdge, 1.0 - kEdge);

    logIncrementSuccess_ = std::log(p1 / p0);
    logIncrementFailure_ = std::log((1.0 - p1) / (1.0 - p0));
    upperBoundary_ = std::log((1.0 - options.beta) / options.alpha);
    lowerBoundary_ = std::log(options.beta / (1.0 - options.alpha));
}

TestDecision
Sprt::add(bool success)
{
    if (isDecided() || samples_ >= maxSamples_)
        return decision_;

    ++samples_;
    if (success) {
        ++successes_;
        logLikelihoodRatio_ += logIncrementSuccess_;
    } else {
        logLikelihoodRatio_ += logIncrementFailure_;
    }

    if (logLikelihoodRatio_ >= upperBoundary_)
        decision_ = TestDecision::AcceptAlternative;
    else if (logLikelihoodRatio_ <= lowerBoundary_)
        decision_ = TestDecision::AcceptNull;
    return decision_;
}

TestDecision
Sprt::addMany(const std::uint8_t* observations, std::size_t count)
{
    for (std::size_t i = 0; i < count && !isDecided(); ++i)
        add(observations[i] != 0);
    return decision_;
}

bool
Sprt::isDecided() const
{
    return decision_ != TestDecision::Inconclusive;
}

double
Sprt::estimate() const
{
    UNCERTAIN_REQUIRE(samples_ >= 1, "SPRT estimate requires observations");
    return static_cast<double>(successes_)
           / static_cast<double>(samples_);
}

} // namespace stats
} // namespace uncertain
