/**
 * @file
 * Finite mixture distribution: weighted combination of component
 * distributions. Multimodal error models (e.g. a GPS receiver that
 * is usually accurate but occasionally in multipath) are mixtures,
 * and mixtures are where point summaries mislead the most — exactly
 * the kind of distribution Uncertain<T> exists to carry around.
 */

#ifndef UNCERTAIN_RANDOM_MIXTURE_HPP
#define UNCERTAIN_RANDOM_MIXTURE_HPP

#include <vector>

#include "random/discrete.hpp"
#include "random/distribution.hpp"

namespace uncertain {
namespace random {

/** Mixture of component distributions with given weights. */
class Mixture : public Distribution
{
  public:
    /**
     * Requires matching non-empty components/weights with
     * non-negative weights of positive total (normalized
     * internally).
     */
    Mixture(std::vector<DistributionPtr> components,
            std::vector<double> weights);

    double sample(Rng& rng) const override;
    std::string name() const override;
    double pdf(double x) const override;
    double logPdf(double x) const override;
    double cdf(double x) const override;
    double mean() const override;
    double variance() const override;

    double weightOf(std::size_t index) const;

  private:
    std::vector<DistributionPtr> components_;
    Discrete selector_;
};

} // namespace random
} // namespace uncertain

#endif // UNCERTAIN_RANDOM_MIXTURE_HPP
