/**
 * @file
 * Conditional-evaluation engine: converts the Bernoulli distribution
 * produced by a lifted comparison into a concrete boolean via a
 * statistical hypothesis test (paper sections 3.4 and 4.3).
 *
 * The default strategy is Wald's SPRT with a sample cap.
 * Group-sequential (Pocock) and fixed-size strategies are provided
 * for the ablation benches and as the paper's anticipated "closed"
 * alternative. One loop, evaluateCondition, runs all three for
 * both engines; an engine only supplies the evidence, in chunks.
 */

#ifndef UNCERTAIN_CORE_CONDITIONAL_HPP
#define UNCERTAIN_CORE_CONDITIONAL_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/sequential.hpp"
#include "stats/sprt.hpp"
#include "support/error.hpp"

namespace uncertain {
namespace core {

/** Which sequential test executes a conditional. */
enum class ConditionalStrategy
{
    Sprt,            //!< Wald SPRT (the paper's implementation)
    GroupSequential, //!< Pocock boundaries, bounded sample size
    FixedSample,     //!< draw N samples, compare the estimate (baseline)
};

/**
 * Whether a conditional may bypass the sequential test entirely via
 * the exact enumeration backend (src/exact). Auto is safe to leave
 * on: the backend only accepts graphs whose leaves declare finite
 * support, for which the closed-form answer is the value the
 * hypothesis test estimates.
 */
enum class ExactRouting
{
    Auto,  //!< answer in closed form whenever the backend accepts
    Never, //!< always run the sequential sampling test
};

/** Tuning for conditional evaluation. */
struct ConditionalOptions
{
    ConditionalStrategy strategy = ConditionalStrategy::Sprt;
    /** SPRT tuning (also supplies maxSamples for the group test). */
    stats::SprtOptions sprt{};
    /** Interim analyses for the group-sequential strategy. */
    std::size_t groupLooks = 5;
    /** Sample size for the fixed-size strategy; must be >= 1. */
    std::size_t fixedSamples = 100;
    /** Closed-form bypass policy (see ExactRouting). */
    ExactRouting exactRouting = ExactRouting::Auto;
    /**
     * Joint-state bound for the closed-form bypass. Deliberately
     * tighter than exact::EnumerationLimits' default: past this size
     * a sequential test is usually cheaper than enumerating, so the
     * conditional falls back to sampling rather than stalling.
     */
    std::size_t exactMaxStates = std::size_t{1} << 16;
};

/** Outcome of evaluating one conditional. */
struct ConditionalResult
{
    /**
     * Ternary decision (section 3.4): AcceptAlternative means the
     * evidence that Pr[cond] > threshold is significant; AcceptNull
     * means the evidence for the converse is significant;
     * Inconclusive means neither (the conditional falls through,
     * like the paper's A < B / A >= B example).
     */
    stats::TestDecision decision;
    /** Empirical estimate of Pr[cond] from the samples drawn. */
    double estimate;
    /** Samples consumed by the test. */
    std::size_t samplesUsed;

    /** The boolean a branch sees: true only on AcceptAlternative. */
    bool
    toBool() const
    {
        return decision == stats::TestDecision::AcceptAlternative;
    }
};

/**
 * Per-thread counters for sampling effort, powering the paper's
 * "samples per cell update" measurements (Figure 14(b)).
 */
struct EvalStats
{
    std::uint64_t rootSamples = 0;  //!< root draws (one graph pass each)
    std::uint64_t conditionals = 0; //!< conditional evaluations
    std::uint64_t expectations = 0; //!< expected-value evaluations
};

/** Access the calling thread's counters. */
EvalStats& evalStats();

/** Zero the calling thread's counters. */
void resetEvalStats();

/**
 * Evaluate "Pr[cond] > threshold" under the configured sequential
 * test. Every conditional runs through this one loop: the tree walk
 * and the batch engine differ only in how they draw evidence.
 *
 * @p drawChunk is a callable
 * `void(std::size_t offset, std::size_t count, std::uint8_t* out)`
 * filling out[0..count) with the Bernoulli observations for sample
 * indices [offset, offset + count). The SPRT draws chunks of
 * @p chunkSize (>= 1); the group-sequential test draws one look at a
 * time, the only points where it can decide; the fixed-size test
 * draws its n observations as one chunk. The test consumes each
 * chunk in index order and stops at its first decision, so the
 * decision, estimate and samplesUsed() are those of a test fed one
 * observation at a time. Only the number of *drawn* samples (counted
 * in evalStats) can overshoot the decision, by less than one chunk:
 * the tree walk passes chunkSize 1 and draws exactly what the test
 * consumes; the batch engine passes BatchSampler::kEvidenceChunk.
 */
template <typename ChunkSampler>
ConditionalResult
evaluateCondition(ChunkSampler&& drawChunk, double threshold,
                  const ConditionalOptions& options,
                  std::size_t chunkSize)
{
    UNCERTAIN_REQUIRE(threshold > 0.0 && threshold < 1.0,
                      "conditional threshold must be in (0, 1)");
    UNCERTAIN_REQUIRE(chunkSize >= 1, "evidence chunk must be >= 1");
    EvalStats& counters = evalStats();
    ++counters.conditionals;

    std::vector<std::uint8_t> chunk;
    auto draw = [&](std::size_t offset, std::size_t count) {
        chunk.resize(count);
        drawChunk(offset, count, chunk.data());
        counters.rootSamples += count;
    };
    // Feed @p test chunks of at most @p width observations until it
    // decides or has seen all @p budget of them.
    auto run = [&](auto& test, std::size_t width, std::size_t budget) {
        std::size_t drawn = 0;
        while (test.decision() == stats::TestDecision::Inconclusive
               && drawn < budget) {
            const std::size_t count = std::min(width, budget - drawn);
            draw(drawn, count);
            test.addMany(chunk.data(), count);
            drawn += count;
        }
        return ConditionalResult{test.decision(), test.estimate(),
                                 test.samplesUsed()};
    };

    switch (options.strategy) {
      case ConditionalStrategy::Sprt: {
        stats::Sprt test(threshold, options.sprt);
        return run(test, chunkSize, options.sprt.maxSamples);
      }

      case ConditionalStrategy::GroupSequential: {
        stats::GroupSequentialTest test(threshold, options.groupLooks,
                                        options.sprt.maxSamples);
        return run(test, test.maxSamples() / options.groupLooks,
                   test.maxSamples());
      }

      case ConditionalStrategy::FixedSample: {
        UNCERTAIN_REQUIRE(options.fixedSamples >= 1,
                          "fixedSamples must be >= 1");
        draw(0, options.fixedSamples);
        std::size_t successes = 0;
        for (std::size_t i = 0; i < options.fixedSamples; ++i)
            successes += chunk[i] ? 1 : 0;
        double estimate = static_cast<double>(successes)
                          / static_cast<double>(options.fixedSamples);
        // No significance machinery: the estimate decides directly,
        // which is exactly the uncontrolled-approximation-error
        // baseline the paper argues against.
        auto decision = estimate > threshold
                            ? stats::TestDecision::AcceptAlternative
                            : stats::TestDecision::AcceptNull;
        return {decision, estimate, options.fixedSamples};
      }
    }
    UNCERTAIN_ASSERT(false, "unknown conditional strategy");
    return {stats::TestDecision::Inconclusive, 0.0, 0};
}

} // namespace core
} // namespace uncertain

#endif // UNCERTAIN_CORE_CONDITIONAL_HPP
