/**
 * @file
 * Bayesian improvement of sampled distributions (paper section 3.5).
 *
 * Posterior = prior x likelihood, computed over sampling functions by
 * sampling-importance-resampling (SIR), the sampled-distribution
 * Bayes operator of Park et al. that the paper points to: draw a
 * proposal pool from one distribution, weight each draw by the other
 * distribution's density, and resample proportionally. The result is
 * a new leaf whose sampling function draws from the reweighted pool.
 * One template core, detail::sampleImportanceResample, runs that
 * pipeline for every entry point and every base type (reweightSamples
 * in inference/generic_reweight.hpp is its typed front end).
 *
 * Two directions are provided:
 *  - applyPrior(estimate, prior): samples come from the estimation
 *    process (e.g. the GPS speed distribution) and are weighted by a
 *    domain-knowledge prior (e.g. plausible walking speeds). This is
 *    the "road snapping" / walking-speed pattern of sections 3.5
 *    and 5.1.
 *  - posteriorFromPrior(prior, likelihood): samples come from the
 *    prior and are weighted by an evidence likelihood.
 */

#ifndef UNCERTAIN_INFERENCE_REWEIGHT_HPP
#define UNCERTAIN_INFERENCE_REWEIGHT_HPP

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/uncertain.hpp"
#include "inference/likelihood.hpp"
#include "inference/resample.hpp"
#include "random/distribution.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uncertain {
namespace inference {

/** Tuning for sampling-importance-resampling. */
struct ReweightOptions
{
    /** Proposal pool size drawn from the source distribution. */
    std::size_t proposalSamples = 4000;
    /** Size of the resampled pool backing the posterior. */
    std::size_t resampleSize = 2000;
    /**
     * How the posterior pool is drawn from the weighted proposals.
     * Multinomial (the default) consumes the random stream exactly as
     * earlier releases did; Systematic produces lower-variance pools
     * (see inference/resample.hpp).
     */
    ResamplingScheme scheme = ResamplingScheme::Multinomial;
    /**
     * Borrowed columnar batch engine (core::BatchSampler). When
     * non-null, the proposal pool is drawn through the sampler's
     * compiled plans — bulk leaf fills and fused elementwise kernels
     * over column blocks — instead of the per-sample tree walk. Same
     * law either way (the engine-equivalence contract of
     * core/batch.hpp), but the streams differ, so the two engines
     * produce different (equally valid) proposal pools for the same
     * seed. nullptr keeps the tree walk. The sampler is not owned and
     * must outlive the call.
     */
    core::BatchSampler* sampler = nullptr;
    /**
     * Degenerate-overlap warning threshold, as a fraction of
     * proposalSamples. When positive and the effective sample size
     * falls below essWarnFraction * proposalSamples, the low-ESS
     * condition is surfaced: onLowEss is invoked when set, otherwise
     * a one-line warning goes to stderr, and the result's lowEss flag
     * is raised either way. Zero (the default) disables the check and
     * preserves the historical silent behavior.
     */
    double essWarnFraction = 0.0;
    /** Receives (ess, proposalSamples) when the threshold trips. */
    std::function<void(double, std::size_t)> onLowEss;
};

/** A reweighted distribution of base type T plus diagnostics. */
template <typename T>
struct GenericReweightResult
{
    /** Posterior as a new leaf (resampled-pool sampling function). */
    Uncertain<T> posterior;
    /**
     * Kish effective sample size (sum w)^2 / (sum w^2) of the
     * importance weights, computed on the PRE-resampling proposal
     * weights — it measures how well the proposal pool covers the
     * posterior, and is independent of resampleSize. A small value
     * relative to proposalSamples means the prior and the proposal
     * barely overlap and the posterior is unreliable; see
     * ReweightOptions::essWarnFraction to be told instead of having
     * to check manually.
     */
    double effectiveSampleSize;
    /** True when the essWarnFraction threshold tripped. */
    bool lowEss = false;
};

/** The result of the Uncertain<double> entry points. */
using ReweightResult = GenericReweightResult<double>;

namespace detail {

/** Low-ESS surfacing for sampleImportanceResample(). */
inline bool
warnLowEss(double ess, const ReweightOptions& options)
{
    if (options.essWarnFraction <= 0.0)
        return false;
    const double threshold = options.essWarnFraction
                             * static_cast<double>(
                                 options.proposalSamples);
    if (ess >= threshold)
        return false;
    if (options.onLowEss) {
        options.onLowEss(ess, options.proposalSamples);
    } else {
        std::fprintf(stderr,
                     "uncertain: reweight effective sample size %.1f "
                     "of %zu proposals is below the warning "
                     "threshold %.1f; prior and estimate barely "
                     "overlap, posterior may be unreliable\n",
                     ess, options.proposalSamples, threshold);
    }
    return true;
}

/**
 * The SIR pipeline behind every entry point: a proposal pool of
 * @p source (tree walk, or the columnar plans of options.sampler),
 * one log-weight pass @p logWeightMany
 * `void(const std::vector<T>& proposals, double* logWeights)`, one
 * normalization/ESS pass, resampling per options.scheme, and a
 * pool-backed posterior leaf that carries a bulk sampler so
 * downstream graphs stay columnar. Throws uncertain::Error when every
 * weight is zero (no overlap).
 */
template <typename T, typename LogWeightMany>
GenericReweightResult<T>
sampleImportanceResample(const Uncertain<T>& source,
                         LogWeightMany&& logWeightMany,
                         const ReweightOptions& options, Rng& rng)
{
    UNCERTAIN_REQUIRE(options.proposalSamples >= 2,
                      "reweight requires >= 2 proposal samples");
    UNCERTAIN_REQUIRE(options.resampleSize >= 1,
                      "reweight requires >= 1 resample");

    std::vector<T> proposals =
        options.sampler != nullptr
            ? source.takeSamples(options.proposalSamples, rng,
                                 *options.sampler)
            : source.takeSamples(options.proposalSamples, rng);

    std::vector<double> logWeights(proposals.size());
    logWeightMany(proposals, logWeights.data());

    // Normalize in log space for stability.
    std::vector<double> weights;
    const WeightSummary summary = normalizeLogWeights(
        logWeights, weights,
        "reweight: all importance weights are zero; the "
        "prior and the estimate do not overlap");
    const bool lowEss = warnLowEss(summary.ess, options);

    const std::vector<std::size_t> indices =
        options.scheme == ResamplingScheme::Systematic
            ? systematicIndices(weights, summary.total,
                                options.resampleSize, rng)
            : multinomialIndices(weights, options.resampleSize, rng);
    auto pool = std::make_shared<std::vector<T>>();
    pool->reserve(indices.size());
    for (std::size_t index : indices)
        pool->push_back(proposals[index]);

    auto posterior = core::fromPool<T>(
        std::move(pool), "posterior("
                             + std::to_string(options.resampleSize)
                             + " resamples)");
    return {std::move(posterior), summary.ess, lowEss};
}

} // namespace detail

/**
 * Core SIR operation: resample draws of @p source in proportion to
 * exp(logWeight(x)). Throws uncertain::Error when every weight is
 * zero (no overlap).
 */
ReweightResult reweight(const Uncertain<double>& source,
                        const std::function<double(double)>& logWeight,
                        const ReweightOptions& options, Rng& rng);

/** reweight() with the thread's global generator. */
ReweightResult reweight(const Uncertain<double>& source,
                        const std::function<double(double)>& logWeight,
                        const ReweightOptions& options = {});

/**
 * Vectorized log-weight evaluator: fill logWeights[0..n) for the
 * contiguous proposal column values[0..n). Lets weight models hoist
 * per-call constants out of the loop (see
 * Likelihood::logLikelihoodMany).
 */
using BulkLogWeight =
    std::function<void(const double* values, double* logWeights,
                       std::size_t n)>;

/**
 * reweight() with a vectorized log-weight: the proposal column is
 * weighted in one pass instead of one std::function call per sample.
 * Semantics are otherwise identical to the scalar overload.
 */
ReweightResult reweightBulk(const Uncertain<double>& source,
                            const BulkLogWeight& logWeightMany,
                            const ReweightOptions& options, Rng& rng);

/**
 * Improve an estimate with domain knowledge: posterior proportional
 * to estimate-density x prior-density, sampled from the estimate and
 * weighted by the prior.
 */
Uncertain<double> applyPrior(const Uncertain<double>& estimate,
                             const random::Distribution& prior,
                             const ReweightOptions& options, Rng& rng);

/** applyPrior() with the thread's global generator. */
Uncertain<double> applyPrior(const Uncertain<double>& estimate,
                             const random::Distribution& prior,
                             const ReweightOptions& options = {});

/**
 * Classic Bayes update over sampling functions: draw hypotheses from
 * @p prior, weight by @p likelihood of the observed evidence.
 */
Uncertain<double> posteriorFromPrior(const random::Distribution& prior,
                                     const Likelihood& likelihood,
                                     const ReweightOptions& options,
                                     Rng& rng);

/** posteriorFromPrior() with the thread's global generator. */
Uncertain<double> posteriorFromPrior(const random::Distribution& prior,
                                     const Likelihood& likelihood,
                                     const ReweightOptions& options = {});

} // namespace inference
} // namespace uncertain

#endif // UNCERTAIN_INFERENCE_REWEIGHT_HPP
