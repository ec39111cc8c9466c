/**
 * @file
 * Exact Bayes' rule over a finite hypothesis set. This is the
 * machinery behind BayesLife (paper section 5.2): hypotheses
 * H0: s = 0 and H1: s = 1 with equal priors, Gaussian likelihood of
 * the raw sensor reading, pick the maximum-a-posteriori hypothesis.
 */

#ifndef UNCERTAIN_INFERENCE_DISCRETE_BAYES_HPP
#define UNCERTAIN_INFERENCE_DISCRETE_BAYES_HPP

#include <cstddef>
#include <vector>

#include "inference/likelihood.hpp"

namespace uncertain {
namespace inference {

/** One hypothesis: a candidate value and its prior probability. */
struct Hypothesis
{
    double value;
    double prior;
};

/** Posterior over a finite hypothesis set. */
class DiscretePosterior
{
  public:
    /**
     * Compute the posterior for @p hypotheses given @p likelihood.
     * Priors must be non-negative with positive total (normalized
     * internally); at least one hypothesis must have non-zero
     * posterior mass.
     */
    DiscretePosterior(const std::vector<Hypothesis>& hypotheses,
                      const Likelihood& likelihood);

    /** Posterior probability of hypothesis @p index. */
    double probability(std::size_t index) const;

    /** Index of the maximum-a-posteriori hypothesis. */
    std::size_t mapIndex() const;

    /** Value of the maximum-a-posteriori hypothesis. */
    double mapValue() const;

    /** Posterior mean over the hypothesis values. */
    double mean() const;

    std::size_t size() const { return values_.size(); }

  private:
    std::vector<double> values_;
    std::vector<double> posterior_;
};

} // namespace inference
} // namespace uncertain

#endif // UNCERTAIN_INFERENCE_DISCRETE_BAYES_HPP
