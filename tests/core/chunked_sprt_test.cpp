/**
 * @file
 * Edge-case coverage for chunk-wise SPRT evaluation
 * (core/conditional.hpp evaluateCondition). The chunk sampler
 * here is scripted — a pure function of the absolute sample index —
 * so each test controls the exact observation sequence and can check
 * the contract precisely: decisions and samplesUsed match a serial
 * test fed the same sequence, chunks never overlap or exceed the
 * sample budget, and overshoot is bounded by one chunk.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/conditional.hpp"
#include "stats/sequential.hpp"
#include "stats/sprt.hpp"

namespace uncertain {
namespace core {
namespace {

/** Scripted Bernoulli source: observation i = pattern(i). */
struct ScriptedSource
{
    std::function<bool(std::size_t)> pattern;
    /** Every (offset, count) window requested, in order. */
    std::vector<std::pair<std::size_t, std::size_t>> requests;

    auto
    chunkSampler()
    {
        return [this](std::size_t offset, std::size_t count,
                      std::uint8_t* out) {
            requests.emplace_back(offset, count);
            for (std::size_t i = 0; i < count; ++i)
                out[i] = pattern(offset + i) ? 1 : 0;
        };
    }

    /**
     * The serial reference: the configured test fed one scripted
     * observation at a time, written out here so that it does not
     * share code with the loop it checks.
     */
    ConditionalResult
    serialReference(double threshold,
                    const ConditionalOptions& options) const
    {
        switch (options.strategy) {
          case ConditionalStrategy::Sprt: {
            stats::Sprt test(threshold, options.sprt);
            for (std::size_t i = 0;
                 !test.isDecided() && !test.isCapped(); ++i)
                test.add(pattern(i));
            return {test.decision(), test.estimate(),
                    test.samplesUsed()};
          }
          case ConditionalStrategy::GroupSequential: {
            stats::GroupSequentialTest test(threshold,
                                            options.groupLooks,
                                            options.sprt.maxSamples);
            for (std::size_t i = 0;
                 test.decision() == stats::TestDecision::Inconclusive
                 && i < test.maxSamples();
                 ++i)
                test.add(pattern(i));
            return {test.decision(), test.estimate(),
                    test.samplesUsed()};
          }
          case ConditionalStrategy::FixedSample: {
            std::size_t successes = 0;
            for (std::size_t i = 0; i < options.fixedSamples; ++i)
                successes += pattern(i) ? 1 : 0;
            const double estimate =
                static_cast<double>(successes)
                / static_cast<double>(options.fixedSamples);
            return {estimate > threshold
                        ? stats::TestDecision::AcceptAlternative
                        : stats::TestDecision::AcceptNull,
                    estimate, options.fixedSamples};
          }
        }
        return {stats::TestDecision::Inconclusive, 0.0, 0};
    }

    std::size_t
    totalDrawn() const
    {
        std::size_t total = 0;
        for (const auto& request : requests)
            total += request.second;
        return total;
    }
};

TEST(ChunkedSprt, BoundaryCrossedMidChunkStopsAtTheSerialSampleSize)
{
    // All-true evidence decides well inside the first 64-wide chunk;
    // samplesUsed must be the serial decision point, not the chunk
    // end, and the overshoot (drawn - used) stays under one chunk.
    ScriptedSource source{[](std::size_t) { return true; }, {}};
    ConditionalOptions options;
    const std::size_t chunk = 64;
    auto result = evaluateCondition(source.chunkSampler(), 0.5, options,
                                    chunk);
    auto serial = source.serialReference(0.5, options);

    EXPECT_EQ(result.decision, stats::TestDecision::AcceptAlternative);
    EXPECT_EQ(result.decision, serial.decision);
    EXPECT_EQ(result.samplesUsed, serial.samplesUsed);
    EXPECT_LT(result.samplesUsed, chunk);
    EXPECT_EQ(source.requests.size(), 1u);
    EXPECT_LT(source.totalDrawn() - result.samplesUsed, chunk);
}

TEST(ChunkedSprt, ChunkSizeOneReproducesTheSerialTestExactly)
{
    // Degenerate chunking: every observation is its own chunk, so
    // decision, estimate, and samplesUsed are all bit-for-bit the
    // serial test's, with zero overshoot.
    auto pattern = [](std::size_t i) { return i % 3 != 0; }; // p = 2/3
    ScriptedSource source{pattern, {}};
    ConditionalOptions options;
    auto result = evaluateCondition(source.chunkSampler(), 0.5, options,
                                    1);
    auto serial = source.serialReference(0.5, options);

    EXPECT_EQ(result.decision, serial.decision);
    EXPECT_EQ(result.samplesUsed, serial.samplesUsed);
    EXPECT_DOUBLE_EQ(result.estimate, serial.estimate);
    EXPECT_EQ(source.totalDrawn(), result.samplesUsed);
    // The schedule is the identity: offset i, count 1.
    for (std::size_t i = 0; i < source.requests.size(); ++i) {
        EXPECT_EQ(source.requests[i].first, i);
        EXPECT_EQ(source.requests[i].second, 1u);
    }
}

TEST(ChunkedSprt, ChunkLargerThanBudgetIsClampedToTheBudget)
{
    // chunk >> maxSamples: the request must be clamped so the source
    // is never asked for more than the budget, and a deciding
    // sequence still decides.
    ScriptedSource source{[](std::size_t) { return true; }, {}};
    ConditionalOptions options;
    options.sprt.maxSamples = 100;
    auto result = evaluateCondition(source.chunkSampler(), 0.5, options,
                                    100000);

    EXPECT_EQ(result.decision, stats::TestDecision::AcceptAlternative);
    ASSERT_EQ(source.requests.size(), 1u);
    EXPECT_EQ(source.requests[0].first, 0u);
    EXPECT_EQ(source.requests[0].second, 100u);
}

TEST(ChunkedSprt, BudgetExhaustionWithoutDecisionIsInconclusive)
{
    // Perfectly alternating evidence sits at the threshold: the LLR
    // oscillates inside Wald's boundaries forever, so the test must
    // stop at exactly maxSamples with Inconclusive — never loop, never
    // draw past the budget.
    ScriptedSource source{[](std::size_t i) { return i % 2 == 0; }, {}};
    ConditionalOptions options;
    options.sprt.maxSamples = 500;
    const std::size_t chunk = 64;
    auto result = evaluateCondition(source.chunkSampler(), 0.5, options,
                                    chunk);
    auto serial = source.serialReference(0.5, options);

    EXPECT_EQ(result.decision, stats::TestDecision::Inconclusive);
    EXPECT_EQ(result.samplesUsed, 500u);
    EXPECT_EQ(result.decision, serial.decision);
    EXPECT_EQ(result.samplesUsed, serial.samplesUsed);
    EXPECT_NEAR(result.estimate, 0.5, 1e-9);
    // Chunks tile [0, maxSamples) exactly: consecutive, no overlap,
    // final short chunk clamped to the remaining budget.
    std::size_t expectedOffset = 0;
    for (const auto& request : source.requests) {
        EXPECT_EQ(request.first, expectedOffset);
        EXPECT_LE(request.second, chunk);
        expectedOffset += request.second;
    }
    EXPECT_EQ(expectedOffset, 500u);
}

TEST(ChunkedSprt, CappedMidChunkDoesNotOvershootTheBudget)
{
    // Budget not a multiple of the chunk: the final chunk must shrink
    // to the remainder rather than read past maxSamples.
    ScriptedSource source{[](std::size_t i) { return i % 2 == 0; }, {}};
    ConditionalOptions options;
    options.sprt.maxSamples = 130;
    auto result = evaluateCondition(source.chunkSampler(), 0.5, options,
                                    64);

    EXPECT_EQ(result.decision, stats::TestDecision::Inconclusive);
    EXPECT_EQ(result.samplesUsed, 130u);
    EXPECT_EQ(source.totalDrawn(), 130u);
    ASSERT_EQ(source.requests.size(), 3u);
    EXPECT_EQ(source.requests[2].second, 2u);
}

TEST(ChunkedSprt, GroupSequentialChunksAtLookBoundaries)
{
    // The group-sequential path chunks per look; an always-true
    // sequence decides at the first look, after exactly
    // maxSamples / looks draws.
    ScriptedSource source{[](std::size_t) { return true; }, {}};
    ConditionalOptions options;
    options.strategy = ConditionalStrategy::GroupSequential;
    options.groupLooks = 5;
    options.sprt.maxSamples = 1000;
    auto result = evaluateCondition(source.chunkSampler(), 0.5, options,
                                    /*chunkSize=*/1);

    EXPECT_EQ(result.decision, stats::TestDecision::AcceptAlternative);
    ASSERT_GE(source.requests.size(), 1u);
    EXPECT_EQ(source.requests[0].second, 200u);
}

TEST(ChunkedSprt, EveryStrategyMatchesTheSerialReference)
{
    // Whatever the chunk width — 1 on the tree walk, wide on the batch
    // engine — each strategy decides, estimates and counts exactly as
    // the test fed one observation at a time. The budgets are not
    // multiples of the looks, so the last group-sequential chunk is
    // the short remainder.
    const std::function<bool(std::size_t)> patterns[] = {
        [](std::size_t) { return true; },
        [](std::size_t i) { return i % 2 == 0; },
        [](std::size_t i) { return i % 7 == 0; },
        [](std::size_t i) { return i % 5 != 0; },
    };
    for (auto strategy :
         {ConditionalStrategy::Sprt, ConditionalStrategy::GroupSequential,
          ConditionalStrategy::FixedSample}) {
        for (const auto& pattern : patterns) {
            for (std::size_t width : {1, 64}) {
                ConditionalOptions options;
                options.strategy = strategy;
                options.groupLooks = 3;
                options.sprt.maxSamples = 301;
                options.fixedSamples = 97;
                ScriptedSource source{pattern, {}};
                auto result = evaluateCondition(source.chunkSampler(),
                                                0.6, options, width);
                auto serial = source.serialReference(0.6, options);
                EXPECT_EQ(result.decision, serial.decision);
                EXPECT_EQ(result.estimate, serial.estimate);
                EXPECT_EQ(result.samplesUsed, serial.samplesUsed);
            }
        }
    }
}

} // namespace
} // namespace core
} // namespace uncertain
