/**
 * @file
 * Ground-truth oracle suite: the exact enumeration backend computes
 * closed-form pmfs for a corpus of finite-support graphs, and every
 * stochastic engine (per-sample tree walk, chunk-parallel, columnar
 * batch, optimized batch) must draw samples consistent with those
 * pmfs — matched bit-for-bit to the support (the corpus is closed
 * over exactly-representable integers) and judged by chi-square and
 * moment tests. The same corpus checks SPRT decisions against the
 * exact probabilities at well-separated thresholds, and ExactBayesLife
 * is validated as a zero-sample drop-in for the Life case study.
 *
 * Alpha levels: each corpus graph runs 4 engines x 1 chi-square, so
 * the suite-wide false-positive budget is controlled by running the
 * distance tests at alpha = 1e-4 (fixed seeds; a failure means an
 * engine diverged from the oracle, not bad luck).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "life/board.hpp"
#include "life/variants.hpp"
#include "random/binomial.hpp"
#include "random/discrete.hpp"
#include "random/poisson.hpp"
#include "stat_assert.hpp"
#include "support/graph_gen.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace {

using core::bernoulliEvent;
using core::fromFiniteSupport;

constexpr double kOracleAlpha = 1e-4;
constexpr std::size_t kSamplesPerEngine = 4000;

struct CorpusGraph
{
    std::string name;
    Uncertain<double> graph;
};

Uncertain<double>
intLeaf(std::vector<double> values, std::vector<double> weights,
        const std::string& label)
{
    return fromFiniteSupport<double>(std::move(values),
                                     std::move(weights), label);
}

/**
 * ~20 finite-support graphs spanning the supported operator set:
 * shared-leaf diamonds, select chains, comparison trees, min/max
 * lattices, distribution-backed leaves, and seeded random DAGs.
 * All supports are small integers, so sampled values either equal a
 * support value exactly or the engine is wrong.
 */
std::vector<CorpusGraph>
corpus()
{
    std::vector<CorpusGraph> graphs;
    auto add = [&](std::string name, Uncertain<double> g) {
        graphs.push_back({std::move(name), std::move(g)});
    };

    auto coin = intLeaf({0, 1}, {0.5, 0.5}, "coin");
    auto skew = intLeaf({0, 1}, {0.2, 0.8}, "skew");
    auto die = intLeaf({1, 2, 3, 4, 5, 6}, {1, 1, 1, 1, 1, 1}, "die");
    auto tri = intLeaf({-1, 0, 2}, {1, 2, 1}, "tri");

    add("single-leaf", die);
    add("shared-diamond", coin + coin);
    add("independent-sum", coin + intLeaf({0, 1}, {0.5, 0.5}, "c2"));
    add("figure8", (tri + coin) + coin);
    add("affine", die * 3.0 - 2.0);
    add("square-shared", die * die);
    add("difference-shared", die - die); // identically zero
    add("min-max-lattice",
        uncertain::min(die, tri) + uncertain::max(coin, tri));
    add("clamped", uncertain::clamp(tri * die, -4.0, 4.0));
    add("select-simple",
        uncertain::select(bernoulliEvent(0.3, "gate"), die, tri));
    add("select-shared-cond",
        uncertain::select(die >= 4.0, die, 0.0 - die));
    add("select-chain",
        uncertain::select(coin > 0.5,
                          uncertain::select(skew > 0.5, die, tri),
                          uncertain::select(tri < 0.0, coin, die)));
    add("comparison-tree",
        uncertain::select(((die < tri + 4.0) && (coin > 0.0))
                              || (skew > 0.5),
                          die + tri, die - tri));
    add("approx-band",
        uncertain::select(approxEqual(die, 3.0, 1.0), 1.0, 0.0)
            + coin);
    add("deep-chain", ((die + coin) * 2.0 - tri) + (die - coin));
    add("discrete-dist",
        core::fromDistribution(std::make_shared<random::Discrete>(
            std::vector<double>{-2.0, 0.0, 3.0},
            std::vector<double>{1.0, 3.0, 2.0})));
    add("binomial-dist",
        core::fromDistribution(
            std::make_shared<random::Binomial>(6, 0.4)));
    add("poisson-dist",
        core::fromDistribution(
            std::make_shared<random::Poisson>(1.25)));
    add("poisson-plus-binomial",
        core::fromDistribution(
            std::make_shared<random::Poisson>(0.75))
            + core::fromDistribution(
                  std::make_shared<random::Binomial>(4, 0.35)));

    // Neighbor-count shape of a 3x3 Life cell: eight Bernoulli
    // sensor leaves folded into a sum (the ExactBayesLife graph).
    Uncertain<double> neighborSum(0.0);
    for (int i = 0; i < 8; ++i) {
        neighborSum =
            neighborSum
            + uncertain::select(
                  bernoulliEvent(i % 2 ? 0.9 : 0.1,
                                 "sensor" + std::to_string(i)),
                  1.0, 0.0);
    }
    add("life-neighbor-sum", neighborSum);

    add("random-dag-7", testing::randomFiniteGraph(7));
    add("random-dag-23", testing::randomFiniteGraph(23));
    add("random-dag-61", testing::randomFiniteGraph(61));

    return graphs;
}

/**
 * Map each sample to its index in the pmf's (sorted, exact) support.
 * A sample that matches no support value is an engine bug and fails
 * the calling test immediately.
 */
bool
binSamples(const std::vector<double>& samples,
           const exact::Pmf<double>& pmf, const std::string& context,
           std::vector<std::size_t>& counts)
{
    counts.assign(pmf.entries.size(), 0);
    for (double sample : samples) {
        auto it = std::lower_bound(
            pmf.entries.begin(), pmf.entries.end(), sample,
            [](const auto& entry, double v) {
                return entry.first < v;
            });
        if (it == pmf.entries.end() || it->first != sample) {
            ADD_FAILURE() << context << ": sampled value " << sample
                          << " is not in the exact support";
            return false;
        }
        ++counts[static_cast<std::size_t>(
            it - pmf.entries.begin())];
    }
    return true;
}

/**
 * Chi-square with low-expectation cells pooled: cells whose expected
 * count at @p n falls below 8 are merged into one overflow cell so
 * the asymptotic distribution of the statistic holds. Returns true
 * when fewer than two pooled cells remain (nothing to test beyond
 * the exact-support match already performed).
 */
::testing::AssertionResult
pooledChiSquare(const std::vector<std::size_t>& counts,
                const exact::Pmf<double>& pmf, std::size_t n)
{
    std::vector<std::size_t> observed;
    std::vector<double> expected;
    std::size_t pooledCount = 0;
    double pooledMass = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double cellExpectation =
            pmf.entries[i].second * static_cast<double>(n);
        if (cellExpectation < 8.0) {
            pooledCount += counts[i];
            pooledMass += pmf.entries[i].second;
        }
        else {
            observed.push_back(counts[i]);
            expected.push_back(pmf.entries[i].second);
        }
    }
    if (pooledMass > 0.0) {
        observed.push_back(pooledCount);
        expected.push_back(pooledMass);
    }
    if (observed.size() < 2)
        return ::testing::AssertionSuccess();
    return testing::chiSquareMatches(observed, expected, kOracleAlpha);
}

void
checkEngineAgainstOracle(const std::string& engine,
                         const CorpusGraph& entry,
                         const exact::Pmf<double>& pmf,
                         const std::vector<double>& samples)
{
    const std::string context = entry.name + " / " + engine;
    std::vector<std::size_t> counts;
    if (!binSamples(samples, pmf, context, counts))
        return;
    EXPECT_TRUE(pooledChiSquare(counts, pmf, samples.size()))
        << context;
    const double sd = pmf.stddev();
    if (sd > 1e-9) {
        EXPECT_TRUE(testing::momentsMatch(samples,
                                          pmf.expectedValue(), sd))
            << context;
    }
}

// ----------------------------------------------------------------------
// ExactOracle
// ----------------------------------------------------------------------

TEST(ExactOracle, EveryCorpusPmfIsNormalizedToTwelveDigits)
{
    for (const auto& entry : corpus()) {
        auto pmf = exact::pmf(entry.graph);
        EXPECT_LE(std::abs(pmf.mass() - 1.0), 1e-12) << entry.name;
        EXPECT_FALSE(pmf.entries.empty()) << entry.name;
        EXPECT_TRUE(std::is_sorted(
            pmf.entries.begin(), pmf.entries.end(),
            [](const auto& a, const auto& b) {
                return a.first < b.first;
            }))
            << entry.name;
    }
}

TEST(ExactOracle, TreeEngineMatchesExactPmf)
{
    std::uint64_t seed = 1100;
    for (const auto& entry : corpus()) {
        auto pmf = exact::pmf(entry.graph);
        Rng rng = testing::testRng(seed++);
        checkEngineAgainstOracle(
            "tree", entry, pmf,
            entry.graph.takeSamples(kSamplesPerEngine, rng));
    }
}

TEST(ExactOracle, ParallelEngineMatchesExactPmf)
{
    core::BatchSampler sampler(core::BatchOptions{1024}, nullptr,
                               std::make_shared<core::BlockScheduler>(1));
    std::uint64_t seed = 1200;
    for (const auto& entry : corpus()) {
        auto pmf = exact::pmf(entry.graph);
        Rng rng = testing::testRng(seed++);
        checkEngineAgainstOracle(
            "parallel", entry, pmf,
            entry.graph.takeSamples(kSamplesPerEngine, rng, sampler));
    }
}

TEST(ExactOracle, BatchEngineMatchesExactPmf)
{
    core::BatchSampler sampler;
    std::uint64_t seed = 1300;
    for (const auto& entry : corpus()) {
        auto pmf = exact::pmf(entry.graph);
        Rng rng = testing::testRng(seed++);
        checkEngineAgainstOracle(
            "batch", entry, pmf,
            entry.graph.takeSamples(kSamplesPerEngine, rng, sampler));
    }
}

TEST(ExactOracle, UnoptimizedBatchEngineMatchesExactPmf)
{
    core::BatchOptions options;
    options.optimizer = core::PlanOptions::disabled();
    core::BatchSampler sampler(options);
    std::uint64_t seed = 1400;
    for (const auto& entry : corpus()) {
        auto pmf = exact::pmf(entry.graph);
        Rng rng = testing::testRng(seed++);
        checkEngineAgainstOracle(
            "batch-unoptimized", entry, pmf,
            entry.graph.takeSamples(kSamplesPerEngine, rng, sampler));
    }
}

TEST(ExactOracle, SprtDecisionsMatchExactProbabilities)
{
    // At thresholds at least 0.15 away from the true probability the
    // sequential test practically never errs; its decision must agree
    // with the closed-form comparison. The sampled side runs with
    // exact routing off so this genuinely exercises the SPRT.
    core::ConditionalOptions sampled;
    sampled.exactRouting = core::ExactRouting::Never;
    std::uint64_t seed = 1500;
    for (const auto& entry : corpus()) {
        const double cut = exact::expectedValue(entry.graph);
        auto event = entry.graph < cut;
        const double p = exact::probability(event);
        for (double threshold : {0.2, 0.5, 0.8}) {
            if (std::abs(p - threshold) < 0.15)
                continue;
            Rng rng = testing::testRng(seed++);
            auto viaSprt = event.evaluate(threshold, sampled, rng);
            auto viaExact = exact::evaluate(event, threshold);
            EXPECT_EQ(viaExact.decision,
                      p > threshold
                          ? stats::TestDecision::AcceptAlternative
                          : stats::TestDecision::AcceptNull)
                << entry.name << " @ " << threshold;
            EXPECT_EQ(viaSprt.decision, viaExact.decision)
                << entry.name << " @ " << threshold << " (exact p "
                << p << ", SPRT estimate " << viaSprt.estimate
                << ")";
            EXPECT_EQ(viaExact.samplesUsed, 0u);
            EXPECT_GE(viaSprt.samplesUsed, 1u);
        }
    }
}

// ----------------------------------------------------------------------
// ExactLife
// ----------------------------------------------------------------------

life::Board
blinkerBoard()
{
    life::Board board(3, 3);
    board.setAlive(0, 1, true);
    board.setAlive(1, 1, true);
    board.setAlive(2, 1, true);
    return board;
}

TEST(ExactLife, ExactBayesLifeDrawsZeroSamples)
{
    life::ExactBayesLife variant(0.3);
    life::Board board = blinkerBoard();
    Rng rng = testing::testRng(1600);
    auto stats = life::stepNoisy(board, variant, rng);
    EXPECT_EQ(stats.cellUpdates, 9u);
    EXPECT_EQ(stats.samplesDrawn, 0u);
}

TEST(ExactLife, ExactBayesLifeIsDeterministic)
{
    // Closed-form conditionals consume no randomness: two runs with
    // different generators must produce identical boards.
    life::ExactBayesLife variant(0.35);
    life::Board a = blinkerBoard();
    life::Board b = blinkerBoard();
    Rng rngA = testing::testRng(1601);
    Rng rngB = testing::testRng(9999);
    life::stepNoisy(a, variant, rngA);
    life::stepNoisy(b, variant, rngB);
    for (std::size_t y = 0; y < a.height(); ++y)
        for (std::size_t x = 0; x < a.width(); ++x)
            EXPECT_EQ(a.alive(x, y), b.alive(x, y))
                << "(" << x << ", " << y << ")";
}

TEST(ExactLife, LowNoiseExactBayesLifeMatchesExactRule)
{
    // At sigma = 0.05 the snap flip probability is Phi(-10) ~ 8e-24:
    // every decision must equal the exact Life rule, still without
    // drawing a single sample.
    life::ExactBayesLife variant(0.05);
    life::Board board = blinkerBoard();
    Rng rng = testing::testRng(1602);
    for (int generation = 0; generation < 4; ++generation) {
        auto stats = life::stepNoisy(board, variant, rng);
        EXPECT_EQ(stats.wrongDecisions, 0u)
            << "generation " << generation;
        EXPECT_EQ(stats.samplesDrawn, 0u);
    }
}

TEST(ExactLife, ExactCountMatchesSensorGraphPmf)
{
    // The ExactBayesLife neighbor count of the blinker center: two
    // certain-alive neighbors plus six possibly-flipped dead ones.
    const double sigma = 0.3;
    life::NoisySensor sensor(sigma);
    life::Board board = blinkerBoard();
    Uncertain<double> sum(0.0);
    for (auto [nx, ny] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 0}, {1, 0}, {2, 0}, {0, 1}, {2, 1},
             {0, 2}, {1, 2}, {2, 2}}) {
        sum = sum + sensor.senseNeighborExact(board, nx, ny);
    }
    auto pmf = exact::pmf(sum);
    EXPECT_LE(std::abs(pmf.mass() - 1.0), 1e-12);

    const double flip = sensor.snapFlipProbability();
    // E[sum] = 2(1 - flip) + 6 flip.
    EXPECT_NEAR(pmf.expectedValue(), 2.0 + 4.0 * flip, 1e-12);
    // Pr[sum = 0]: both live sensors flip, all six dead stay quiet.
    EXPECT_NEAR(pmf.probabilityOf(0.0),
                flip * flip * std::pow(1.0 - flip, 6.0), 1e-12);
}

} // namespace
} // namespace uncertain
