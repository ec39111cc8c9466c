/**
 * @file
 * Sampling-importance-resampling over arbitrary base types.
 *
 * inference/reweight.hpp runs the Bayes operator for
 * Uncertain<double>; reweightSamples is the same operator, through
 * the same core, for any T (locations, vectors, user types): draw a
 * proposal pool from the source variable, weight each draw with a
 * caller-supplied log-weight, resample proportionally, and return a
 * new leaf over the resampled pool. This is what location priors
 * such as road snapping (paper section 3.5, Figure 10) need, where
 * the target variable is a GeoCoordinate rather than a scalar.
 */

#ifndef UNCERTAIN_INFERENCE_GENERIC_REWEIGHT_HPP
#define UNCERTAIN_INFERENCE_GENERIC_REWEIGHT_HPP

#include <cstddef>
#include <utility>
#include <vector>

#include "core/uncertain.hpp"
#include "inference/reweight.hpp"
#include "support/rng.hpp"

namespace uncertain {
namespace inference {

/**
 * Resample draws of @p source in proportion to
 * exp(logWeight(value)). Throws when every weight is zero.
 */
template <typename T, typename LogWeight>
GenericReweightResult<T>
reweightSamples(const Uncertain<T>& source, LogWeight&& logWeight,
                const ReweightOptions& options, Rng& rng)
{
    return detail::sampleImportanceResample(
        source,
        [&logWeight](const std::vector<T>& proposals,
                     double* logWeights) {
            for (std::size_t i = 0; i < proposals.size(); ++i)
                logWeights[i] = logWeight(proposals[i]);
        },
        options, rng);
}

/** reweightSamples() with the thread's global generator. */
template <typename T, typename LogWeight>
GenericReweightResult<T>
reweightSamples(const Uncertain<T>& source, LogWeight&& logWeight,
                const ReweightOptions& options = {})
{
    return reweightSamples(source,
                           std::forward<LogWeight>(logWeight),
                           options, globalRng());
}

} // namespace inference
} // namespace uncertain

#endif // UNCERTAIN_INFERENCE_GENERIC_REWEIGHT_HPP
