#include "inference/discrete_bayes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace uncertain {
namespace inference {

DiscretePosterior::DiscretePosterior(
    const std::vector<Hypothesis>& hypotheses,
    const Likelihood& likelihood)
{
    UNCERTAIN_REQUIRE(!hypotheses.empty(),
                      "DiscretePosterior requires >= 1 hypothesis");

    std::vector<double> logPosterior;
    logPosterior.reserve(hypotheses.size());
    double maxLog = -std::numeric_limits<double>::infinity();
    for (const Hypothesis& h : hypotheses) {
        UNCERTAIN_REQUIRE(h.prior >= 0.0,
                          "hypothesis priors must be >= 0");
        values_.push_back(h.value);
        double lp = h.prior > 0.0
                        ? std::log(h.prior)
                              + likelihood.logLikelihood(h.value)
                        : -std::numeric_limits<double>::infinity();
        logPosterior.push_back(lp);
        maxLog = std::max(maxLog, lp);
    }
    UNCERTAIN_REQUIRE(std::isfinite(maxLog),
                      "DiscretePosterior: zero posterior mass (check "
                      "priors and likelihood)");

    // The evidence Pr[v] is just the normalizer — the common
    // denominator the paper notes "we need not calculate" for MAP,
    // but we normalize anyway so probability() is meaningful.
    double total = 0.0;
    posterior_.reserve(logPosterior.size());
    for (double lp : logPosterior) {
        double p = std::exp(lp - maxLog);
        posterior_.push_back(p);
        total += p;
    }
    for (double& p : posterior_)
        p /= total;
}

double
DiscretePosterior::probability(std::size_t index) const
{
    UNCERTAIN_REQUIRE(index < posterior_.size(),
                      "hypothesis index out of range");
    return posterior_[index];
}

std::size_t
DiscretePosterior::mapIndex() const
{
    return static_cast<std::size_t>(
        std::max_element(posterior_.begin(), posterior_.end())
        - posterior_.begin());
}

double
DiscretePosterior::mapValue() const
{
    return values_[mapIndex()];
}

double
DiscretePosterior::mean() const
{
    double total = 0.0;
    for (std::size_t i = 0; i < values_.size(); ++i)
        total += values_[i] * posterior_[i];
    return total;
}

} // namespace inference
} // namespace uncertain
