#include "inference/reweight.hpp"

#include <vector>

#include "inference/generic_reweight.hpp"

namespace uncertain {
namespace inference {

ReweightResult
reweight(const Uncertain<double>& source,
         const std::function<double(double)>& logWeight,
         const ReweightOptions& options, Rng& rng)
{
    return reweightSamples(source, logWeight, options, rng);
}

ReweightResult
reweight(const Uncertain<double>& source,
         const std::function<double(double)>& logWeight,
         const ReweightOptions& options)
{
    return reweight(source, logWeight, options, globalRng());
}

ReweightResult
reweightBulk(const Uncertain<double>& source,
             const BulkLogWeight& logWeightMany,
             const ReweightOptions& options, Rng& rng)
{
    return detail::sampleImportanceResample(
        source,
        [&logWeightMany](const std::vector<double>& proposals,
                         double* logWeights) {
            logWeightMany(proposals.data(), logWeights,
                          proposals.size());
        },
        options, rng);
}

Uncertain<double>
applyPrior(const Uncertain<double>& estimate,
           const random::Distribution& prior,
           const ReweightOptions& options, Rng& rng)
{
    // One vectorized logPdfMany pass over the proposal column; the
    // values match the scalar logPdf bit-for-bit.
    return reweightBulk(
               estimate,
               [&prior](const double* values, double* logWeights,
                        std::size_t n) {
                   prior.logPdfMany(values, logWeights, n);
               },
               options, rng)
        .posterior;
}

Uncertain<double>
applyPrior(const Uncertain<double>& estimate,
           const random::Distribution& prior,
           const ReweightOptions& options)
{
    return applyPrior(estimate, prior, options, globalRng());
}

Uncertain<double>
posteriorFromPrior(const random::Distribution& prior,
                   const Likelihood& likelihood,
                   const ReweightOptions& options, Rng& rng)
{
    // Draw hypotheses from the prior (bulk sampleMany keeps the
    // proposal column columnar under a batch sampler)...
    auto priorSampler = Uncertain<double>::fromSampler(
        [&prior](Rng& r) { return prior.sample(r); },
        [&prior](Rng& r, double* out, std::size_t n) {
            prior.sampleMany(r, out, n);
        },
        prior.name());
    // ...and weight them by the evidence, one vectorized pass.
    return reweightBulk(
               priorSampler,
               [&likelihood](const double* values, double* logWeights,
                             std::size_t n) {
                   likelihood.logLikelihoodMany(values, logWeights,
                                                n);
               },
               options, rng)
        .posterior;
}

Uncertain<double>
posteriorFromPrior(const random::Distribution& prior,
                   const Likelihood& likelihood,
                   const ReweightOptions& options)
{
    return posteriorFromPrior(prior, likelihood, options, globalRng());
}

} // namespace inference
} // namespace uncertain
