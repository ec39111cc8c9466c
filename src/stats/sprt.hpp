/**
 * @file
 * Wald's sequential probability ratio test (SPRT) for a Bernoulli
 * parameter. This is the paper's mechanism for executing conditionals
 * on uncertain data (section 4.3): sample evidence until
 * Pr[condition] is significantly above or below the threshold, capping
 * the sample count to guarantee termination. The paper's runtime
 * draws in steps of k = 10; here the boundaries are checked after
 * every observation (core::evaluateCondition feeds them in index
 * order), which stops at the first draw that can decide.
 */

#ifndef UNCERTAIN_STATS_SPRT_HPP
#define UNCERTAIN_STATS_SPRT_HPP

#include <cstddef>
#include <cstdint>

namespace uncertain {
namespace stats {

/** Outcome of a sequential test. */
enum class TestDecision
{
    AcceptNull,        //!< evidence that p <= threshold
    AcceptAlternative, //!< evidence that p > threshold
    Inconclusive,      //!< still sampling, or capped without significance
};

/** Tuning knobs for the SPRT (defaults follow the paper's narrative). */
struct SprtOptions
{
    /**
     * Half-width of the indifference region: the test discriminates
     * H0: p <= threshold - indifference from
     * H1: p >= threshold + indifference. Within the region either
     * answer is acceptable.
     */
    double indifference = 0.05;
    /** Bound on false positives (rejecting a true H0). */
    double alpha = 0.05;
    /** Bound on false negatives (power = 1 - beta). */
    double beta = 0.05;
    /**
     * Artificial cap that guarantees termination (the SPRT alone is
     * potentially unbounded). Hitting the cap yields Inconclusive.
     */
    std::size_t maxSamples = 1000;
};

/**
 * Incremental SPRT. Feed Bernoulli observations with add(); the
 * decision becomes AcceptNull or AcceptAlternative when the
 * log-likelihood ratio crosses Wald's boundaries
 * log(beta/(1-alpha)) and log((1-beta)/alpha).
 */
class Sprt
{
  public:
    /**
     * @param threshold the probability the conditional compares
     *        against (0.5 for the implicit operator); must lie in
     *        (0, 1)
     * @param options   test tuning
     */
    explicit Sprt(double threshold, const SprtOptions& options = {});

    /**
     * Fold in one observation and return the running decision.
     * Observations after a terminal decision are ignored.
     */
    TestDecision add(bool success);

    /**
     * Fold in a pre-drawn chunk of observations in index order,
     * stopping at the first terminal decision. This is how the
     * batch engine consumes evidence: the chunk is drawn eagerly
     * (possibly concurrently), but the boundaries see observations in
     * exactly the order a serial test would, so the decision — and
     * samplesUsed() — match a serial SPRT fed the same sequence.
     * Returns the running decision.
     */
    TestDecision addMany(const std::uint8_t* observations,
                         std::size_t count);

    /** Current decision (Inconclusive until a boundary is crossed). */
    TestDecision decision() const { return decision_; }

    /** True once AcceptNull/AcceptAlternative has been reached. */
    bool isDecided() const;

    /** True once maxSamples observations have been consumed. */
    bool isCapped() const { return samples_ >= maxSamples_; }

    /** Number of observations consumed. */
    std::size_t samplesUsed() const { return samples_; }

    /** Empirical estimate of p; requires >= 1 observation. */
    double estimate() const;

    double threshold() const { return threshold_; }

  private:
    double threshold_;
    double logIncrementSuccess_;
    double logIncrementFailure_;
    double upperBoundary_; //!< log((1-beta)/alpha): accept H1 above
    double lowerBoundary_; //!< log(beta/(1-alpha)): accept H0 below
    std::size_t maxSamples_;

    double logLikelihoodRatio_ = 0.0;
    std::size_t samples_ = 0;
    std::size_t successes_ = 0;
    TestDecision decision_ = TestDecision::Inconclusive;
};

} // namespace stats
} // namespace uncertain

#endif // UNCERTAIN_STATS_SPRT_HPP
