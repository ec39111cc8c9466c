/**
 * @file
 * Conditional-evaluation engine: converts the Bernoulli distribution
 * produced by a lifted comparison into a concrete boolean via a
 * statistical hypothesis test (paper sections 3.4 and 4.3).
 *
 * The default strategy is Wald's SPRT with batched draws and a sample
 * cap. Group-sequential (Pocock) and fixed-size strategies are
 * provided for the ablation benches and as the paper's anticipated
 * "closed" alternative.
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
    /** SPRT tuning (also supplies batchSize/maxSamples for others). */
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
 * Evaluate "Pr[cond] > threshold" by repeatedly invoking @p draw (a
 * callable returning one Bernoulli observation) under the configured
 * sequential test.
 */
template <typename Sampler>
ConditionalResult
evaluateCondition(Sampler&& draw, double threshold,
                  const ConditionalOptions& options = {})
{
    UNCERTAIN_REQUIRE(threshold > 0.0 && threshold < 1.0,
                      "conditional threshold must be in (0, 1)");
    EvalStats& counters = evalStats();
    ++counters.conditionals;

    switch (options.strategy) {
      case ConditionalStrategy::Sprt: {
        stats::Sprt test(threshold, options.sprt);
        const std::size_t batch = options.sprt.batchSize;
        while (!test.isDecided() && !test.isCapped()) {
            // Draw a full batch before consulting the boundaries, as
            // the paper's runtime does with step size k.
            for (std::size_t i = 0;
                 i < batch && !test.isCapped() && !test.isDecided();
                 ++i) {
                test.add(draw());
                ++counters.rootSamples;
            }
        }
        return {test.decision(), test.estimate(), test.samplesUsed()};
      }

      case ConditionalStrategy::GroupSequential: {
        stats::GroupSequentialTest test(threshold, options.groupLooks,
                                        options.sprt.maxSamples);
        while (test.decision() == stats::TestDecision::Inconclusive
               && test.samplesUsed() < test.maxSamples()) {
            test.add(draw());
            ++counters.rootSamples;
        }
        return {test.decision(), test.estimate(), test.samplesUsed()};
      }

      case ConditionalStrategy::FixedSample: {
        UNCERTAIN_REQUIRE(options.fixedSamples >= 1,
                          "fixedSamples must be >= 1");
        std::size_t successes = 0;
        for (std::size_t i = 0; i < options.fixedSamples; ++i) {
            successes += draw() ? 1 : 0;
            ++counters.rootSamples;
        }
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

/**
 * Chunk-wise conditional evaluation, the batch engine's entry
 * point (core/batch.hpp). @p drawChunk is a callable
 * `void(std::size_t offset, std::size_t count, std::uint8_t* out)`
 * filling out[0..count) with the Bernoulli observations for sample
 * indices [offset, offset + count) — typically drawn concurrently
 * from split() streams. The sequential test consumes each chunk in
 * index order and the stopping boundaries are consulted between
 * chunks, so the decision and samplesUsed() match a serial test fed
 * the same observation sequence; only the number of *drawn* samples
 * (counted in evalStats) can overshoot the decision point by at most
 * one chunk.
 */
template <typename ChunkSampler>
ConditionalResult
evaluateConditionChunked(ChunkSampler&& drawChunk, double threshold,
                         const ConditionalOptions& options = {},
                         std::size_t chunkSize = 0)
{
    UNCERTAIN_REQUIRE(threshold > 0.0 && threshold < 1.0,
                      "conditional threshold must be in (0, 1)");
    EvalStats& counters = evalStats();
    ++counters.conditionals;

    std::vector<std::uint8_t> chunk;
    auto draw = [&](std::size_t offset, std::size_t count) {
        chunk.resize(count);
        drawChunk(offset, count, chunk.data());
        counters.rootSamples += count;
    };

    switch (options.strategy) {
      case ConditionalStrategy::Sprt: {
        stats::Sprt test(threshold, options.sprt);
        // Default to the SPRT batch ("step size k"); the caller may
        // widen chunks to amortize fan-out overhead.
        const std::size_t batch =
            chunkSize > 0 ? chunkSize : options.sprt.batchSize;
        std::size_t drawn = 0;
        while (!test.isDecided() && !test.isCapped()) {
            std::size_t count =
                std::min(batch, options.sprt.maxSamples - drawn);
            draw(drawn, count);
            test.addMany(chunk.data(), count);
            drawn += count;
        }
        return {test.decision(), test.estimate(), test.samplesUsed()};
      }

      case ConditionalStrategy::GroupSequential: {
        stats::GroupSequentialTest test(threshold, options.groupLooks,
                                        options.sprt.maxSamples);
        // Chunk at look boundaries: decisions only occur at looks, so
        // this is behaviorally identical to the serial test.
        const std::size_t perLook = std::max<std::size_t>(
            1, test.maxSamples() / std::max<std::size_t>(
                   1, options.groupLooks));
        std::size_t drawn = 0;
        while (test.decision() == stats::TestDecision::Inconclusive
               && drawn < test.maxSamples()) {
            std::size_t count =
                std::min(perLook, test.maxSamples() - drawn);
            draw(drawn, count);
            test.addMany(chunk.data(), count);
            drawn += count;
        }
        return {test.decision(), test.estimate(), test.samplesUsed()};
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
