/**
 * @file
 * Resampling kernels for sampling-importance-resampling
 * (inference/reweight.hpp): weight normalization with the Kish
 * effective-sample-size diagnostic, and the two resamplers, classic
 * multinomial and low-variance systematic. Each resampler returns
 * proposal indices, so the SIR core fills its pool the same way for
 * either scheme and any base type.
 *
 * Multinomial resampling draws each posterior pool entry
 * independently from the alias table, so the number of copies of
 * proposal i is Binomial(n, w_i) — correct but noisy. Systematic
 * resampling draws ONE uniform offset and then walks n evenly spaced
 * positions through the cumulative weights, so the copy count of each
 * proposal deviates from n*w_i by strictly less than one. Both target
 * the same posterior; the systematic pool just carries less
 * resampling noise for the same pool size.
 */

#ifndef UNCERTAIN_INFERENCE_RESAMPLE_HPP
#define UNCERTAIN_INFERENCE_RESAMPLE_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "random/discrete.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uncertain {
namespace inference {

/** How the posterior pool is drawn from the weighted proposals. */
enum class ResamplingScheme
{
    /**
     * Independent draws from the alias table (the historical scheme
     * and the default: its consumption of the random stream is
     * bit-compatible with earlier releases).
     */
    Multinomial,
    /**
     * One uniform offset, evenly spaced positions over the cumulative
     * weights: lower-variance pools at the same cost, at the price of
     * a different (still single-pass) stream consumption.
     */
    Systematic,
};

namespace detail {

/** Diagnostics of one weight-normalization pass. */
struct WeightSummary
{
    double total; //!< sum of the shifted weights exp(logW - maxLogW)
    double ess;   //!< Kish effective sample size of those weights
};

/**
 * Exponentiate @p logWeights shifted by their maximum (log-space
 * normalization for stability) into @p weights, and compute the Kish
 * effective sample size (sum w)^2 / sum w^2 in the same pass. Throws
 * uncertain::Error naming the fault when a log-weight is NaN or
 * +infinity (a broken weight model, not a weight), and with
 * @p noOverlapMessage when every weight is zero (every log-weight is
 * -infinity).
 */
inline WeightSummary
normalizeLogWeights(const std::vector<double>& logWeights,
                    std::vector<double>& weights,
                    const char* noOverlapMessage)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double maxLog = -kInf;
    for (double logW : logWeights) {
        UNCERTAIN_REQUIRE(!std::isnan(logW),
                          "importance log-weight is NaN");
        UNCERTAIN_REQUIRE(logW != kInf,
                          "importance log-weight is +infinity");
        maxLog = std::max(maxLog, logW);
    }
    UNCERTAIN_REQUIRE(std::isfinite(maxLog), noOverlapMessage);

    weights.resize(logWeights.size());
    double total = 0.0;
    double totalSq = 0.0;
    for (std::size_t i = 0; i < logWeights.size(); ++i) {
        weights[i] = std::exp(logWeights[i] - maxLog);
        total += weights[i];
        totalSq += weights[i] * weights[i];
    }
    return {total, total * total / totalSq};
}

/**
 * Multinomial resampling: proposal indices for a pool of
 * @p resampleSize entries, each drawn independently from the alias
 * table of @p weights with random::Discrete::sampleIndex. The table
 * depends on the weights alone, so the indices are those a Discrete
 * over the proposal values would pick, from the same stream.
 */
inline std::vector<std::size_t>
multinomialIndices(const std::vector<double>& weights,
                   std::size_t resampleSize, Rng& rng)
{
    const random::Discrete table(std::vector<double>(weights.size()),
                                 weights);
    std::vector<std::size_t> indices(resampleSize);
    for (std::size_t& index : indices)
        index = table.sampleIndex(rng);
    return indices;
}

/**
 * Systematic (low-variance) resampling: proposal indices for a pool
 * of @p resampleSize entries, drawn with a single uniform offset in
 * [0, total/resampleSize) and evenly spaced positions through the
 * cumulative @p weights. Consumes exactly one draw from @p rng.
 * Returned indices are non-decreasing; with equal weights and
 * resampleSize == weights.size() every proposal appears exactly once.
 */
inline std::vector<std::size_t>
systematicIndices(const std::vector<double>& weights, double total,
                  std::size_t resampleSize, Rng& rng)
{
    const double step = total / static_cast<double>(resampleSize);
    const double offset = rng.nextRange(0.0, step);

    std::vector<std::size_t> indices;
    indices.reserve(resampleSize);
    std::size_t i = 0;
    double cumulative = weights.empty() ? 0.0 : weights[0];
    for (std::size_t k = 0; k < resampleSize; ++k) {
        const double position =
            offset + static_cast<double>(k) * step;
        while (cumulative < position && i + 1 < weights.size()) {
            ++i;
            cumulative += weights[i];
        }
        indices.push_back(i);
    }
    return indices;
}

} // namespace detail
} // namespace inference
} // namespace uncertain

#endif // UNCERTAIN_INFERENCE_RESAMPLE_HPP
