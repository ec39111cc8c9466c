/**
 * @file
 * Golden output digests of the two inference operators: conditional
 * evaluation (the sequential tests of core/conditional.hpp, on the
 * tree walk and on the batch engine) and sampling-importance-
 * resampling (inference/reweight.hpp, generic_reweight.hpp).
 *
 * The engine and law tests compare answers with each other or with a
 * distribution. They do not notice a change that keeps the law but
 * moves the bits: a test that stops one draw later, a chunk that
 * consumes the Rng differently, a resampler that walks the alias
 * table in another order. These digests pin the bits themselves.
 *
 * Each conditional case hashes (FNV-1a) the decision, the estimate's
 * bits, samplesUsed and the caller's next Rng word; each SIR case
 * hashes the effective sample size's bits, the caller's next Rng word
 * and 64 posterior draws. The inputs are integer-valued finite
 * leaves and log-weights of 0 or -infinity, so exp() returns exactly
 * 1 or 0 and the only libm call is the SPRT's boundary std::log at
 * construction. A digest changes only when the sampled bits change;
 * a refactor of either operator must keep every constant below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "inference/generic_reweight.hpp"
#include "inference/reweight.hpp"

namespace uncertain {
namespace core {
namespace {

/** Incremental FNV-1a over raw bytes. */
struct Fnv1a
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;

    template <typename T>
    void
    add(const T& value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char byte : bytes) {
            hash ^= byte;
            hash *= 0x100000001b3ULL;
        }
    }
};

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << std::setw(16) << std::setfill('0')
        << value << "ULL";
    return out.str();
}

Uncertain<double>
die(const std::string& label)
{
    return fromFiniteSupport<double>({1.0, 2.0, 3.0, 4.0, 5.0, 6.0},
                                     {1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                                     label);
}

/** Events with Pr 1/6, 15/36, 1/2 and 5/6. */
std::vector<Uncertain<bool>>
events()
{
    auto a = die("a");
    auto b = die("b");
    return {a < 2.0, a + b > 7.0, a > 3.0, a + b > 4.0};
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};
constexpr std::size_t kMaxSamples[] = {97, 1000, 1001};
constexpr double kThresholds[] = {0.2, 0.5, 0.8};

/**
 * Digest of every event x maxSamples x threshold x seed under one
 * strategy, evaluated by @p evaluate(event, threshold, options, rng).
 */
template <typename Evaluate>
std::uint64_t
conditionalDigest(ConditionalStrategy strategy, Evaluate&& evaluate)
{
    Fnv1a fnv;
    for (const Uncertain<bool>& event : events()) {
        for (std::size_t maxSamples : kMaxSamples) {
            for (double threshold : kThresholds) {
                for (std::uint64_t seed : kSeeds) {
                    ConditionalOptions options;
                    options.strategy = strategy;
                    options.exactRouting = ExactRouting::Never;
                    options.sprt.maxSamples = maxSamples;
                    options.groupLooks = 3;
                    options.fixedSamples = maxSamples;
                    Rng rng(seed);
                    ConditionalResult result =
                        evaluate(event, threshold, options, rng);
                    fnv.add(static_cast<int>(result.decision));
                    fnv.add(result.estimate);
                    fnv.add(static_cast<std::uint64_t>(
                        result.samplesUsed));
                    fnv.add(rng.nextU64());
                }
            }
        }
    }
    return fnv.hash;
}

struct StrategyDigest
{
    ConditionalStrategy strategy;
    const char* name;
    std::uint64_t want;
};

TEST(InferenceGolden, TreeWalkConditionals)
{
    const StrategyDigest cases[] = {
        {ConditionalStrategy::Sprt, "sprt", 0x3801bdd188a85539ULL},
        {ConditionalStrategy::GroupSequential, "group sequential",
         0x095e4b610d300ee2ULL},
        {ConditionalStrategy::FixedSample, "fixed sample",
         0xeb3e2228f9a08506ULL},
    };
    for (const StrategyDigest& c : cases) {
        const std::uint64_t got = conditionalDigest(
            c.strategy,
            [](const Uncertain<bool>& event, double threshold,
               const ConditionalOptions& options, Rng& rng) {
                return event.evaluate(threshold, options, rng);
            });
        EXPECT_EQ(got, c.want) << c.name << ": got " << hex(got);
    }
}

TEST(InferenceGolden, BatchConditionals)
{
    const StrategyDigest cases[] = {
        {ConditionalStrategy::Sprt, "sprt", 0x8e2ca8cf959cde47ULL},
        {ConditionalStrategy::GroupSequential, "group sequential",
         0x6a89ca6843e4c681ULL},
        {ConditionalStrategy::FixedSample, "fixed sample",
         0x192267d96e079a40ULL},
    };
    for (const StrategyDigest& c : cases) {
        BatchSampler sampler;
        const std::uint64_t got = conditionalDigest(
            c.strategy,
            [&sampler](const Uncertain<bool>& event, double threshold,
                       const ConditionalOptions& options, Rng& rng) {
                return event.evaluate(threshold, options, rng,
                                      sampler);
            });
        EXPECT_EQ(got, c.want) << c.name << ": got " << hex(got);
    }
}

/** Keep even values and values >= 6 of 0..7; drop the rest. */
double
keepLogWeight(double x)
{
    return (static_cast<int>(x) % 2 == 0 || x >= 6.0)
               ? 0.0
               : -std::numeric_limits<double>::infinity();
}

template <typename T, typename Run>
std::uint64_t
reweightDigest(inference::ResamplingScheme scheme, bool columnar,
               Run&& run)
{
    Fnv1a fnv;
    for (std::uint64_t seed : kSeeds) {
        BatchSampler sampler;
        inference::ReweightOptions options;
        options.proposalSamples = 500;
        options.resampleSize = 300;
        options.scheme = scheme;
        options.sampler = columnar ? &sampler : nullptr;
        Rng rng(seed);
        const auto result = run(options, rng);
        fnv.add(result.effectiveSampleSize);
        fnv.add(rng.nextU64());
        for (const T& value : result.posterior.takeSamples(64, rng))
            fnv.add(value);
    }
    return fnv.hash;
}

TEST(InferenceGolden, ReweightPools)
{
    using inference::ResamplingScheme;
    const auto source = fromFiniteSupport<double>(
        {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0},
        {1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0}, "source");
    const auto sourceInt = fromFiniteSupport<int>(
        {0, 1, 2, 3, 4, 5, 6, 7}, {1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0},
        "source");

    struct Case
    {
        ResamplingScheme scheme;
        bool columnar;
        std::uint64_t reweight;
        std::uint64_t bulk;
        std::uint64_t samples;
    };
    const Case cases[] = {
        {ResamplingScheme::Multinomial, false, 0x39a1e6851a64d52dULL,
         0x39a1e6851a64d52dULL, 0xbed61ede4741213fULL},
        {ResamplingScheme::Multinomial, true, 0x0f4c8a07388c1d06ULL,
         0x0f4c8a07388c1d06ULL, 0x113d8fed904311deULL},
        {ResamplingScheme::Systematic, false, 0x25f009dee82659ddULL,
         0x25f009dee82659ddULL, 0xfab0a75e6c096fb1ULL},
        {ResamplingScheme::Systematic, true, 0x40289dab78469531ULL,
         0x40289dab78469531ULL, 0xcff6a0f12ba16228ULL},
    };
    for (const Case& c : cases) {
        const std::string what =
            std::string(c.scheme == ResamplingScheme::Systematic
                            ? "systematic"
                            : "multinomial")
            + (c.columnar ? ", sampler proposals" : ", tree proposals");

        const std::uint64_t scalar = reweightDigest<double>(
            c.scheme, c.columnar,
            [&](const inference::ReweightOptions& options, Rng& rng) {
                return inference::reweight(source, keepLogWeight,
                                           options, rng);
            });
        EXPECT_EQ(scalar, c.reweight)
            << "reweight, " << what << ": got " << hex(scalar);

        const std::uint64_t bulk = reweightDigest<double>(
            c.scheme, c.columnar,
            [&](const inference::ReweightOptions& options, Rng& rng) {
                return inference::reweightBulk(
                    source,
                    [](const double* values, double* logWeights,
                       std::size_t n) {
                        for (std::size_t i = 0; i < n; ++i)
                            logWeights[i] = keepLogWeight(values[i]);
                    },
                    options, rng);
            });
        EXPECT_EQ(bulk, c.bulk)
            << "reweightBulk, " << what << ": got " << hex(bulk);

        const std::uint64_t samples = reweightDigest<int>(
            c.scheme, c.columnar,
            [&](const inference::ReweightOptions& options, Rng& rng) {
                return inference::reweightSamples(
                    sourceInt,
                    [](int x) {
                        return keepLogWeight(static_cast<double>(x));
                    },
                    options, rng);
            });
        EXPECT_EQ(samples, c.samples)
            << "reweightSamples<int>, " << what << ": got "
            << hex(samples);
    }
}

} // namespace
} // namespace core
} // namespace uncertain
