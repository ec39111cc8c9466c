/**
 * @file
 * Noisy-Life variant tests: the ordering the paper's Figure 14
 * reports (Bayes <= Sensor < Naive in errors; Naive = 1 sample,
 * Bayes <= Sensor in sampling cost) plus zero-noise sanity.
 */

#include <gtest/gtest.h>

#include "life/variants.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace life {
namespace {

core::ConditionalOptions
lifeOptions()
{
    core::ConditionalOptions options;
    options.sprt.maxSamples = 160;
    return options;
}

Board
randomBoard(std::uint64_t seed)
{
    Board board(12, 12);
    Rng rng = testing::testRng(seed);
    board.randomize(rng, 0.35);
    return board;
}

TEST(NoisySensor, ZeroSigmaIsPerfect)
{
    Board board = randomBoard(211);
    NoisySensor sensor(0.0);
    Rng rng = testing::testRng(212);
    for (std::size_t y = 0; y < board.height(); ++y) {
        for (std::size_t x = 0; x < board.width(); ++x) {
            double expected = board.alive(x, y) ? 1.0 : 0.0;
            EXPECT_DOUBLE_EQ(sensor.read(board, x, y, rng), expected);
        }
    }
}

TEST(NoisySensor, ReadingsCenterOnTheTruth)
{
    Board board(2, 1);
    board.setAlive(0, 0, true);
    NoisySensor sensor(0.3);
    Rng rng = testing::testRng(213);
    double sumAlive = 0.0;
    double sumDead = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sumAlive += sensor.read(board, 0, 0, rng);
        sumDead += sensor.read(board, 1, 0, rng);
    }
    EXPECT_NEAR(sumAlive / n, 1.0, testing::meanTolerance(0.3, n));
    EXPECT_NEAR(sumDead / n, 0.0, testing::meanTolerance(0.3, n));
}

TEST(NoisySensor, FixedWrapperSnapsToHypotheses)
{
    Board board(2, 1);
    board.setAlive(0, 0, true);
    NoisySensor sensor(0.2);
    auto fixed = sensor.senseNeighborFixed(board, 0, 0);
    Rng rng = testing::testRng(214);
    for (double v : fixed.takeSamples(500, rng))
        EXPECT_TRUE(v == 0.0 || v == 1.0);
}

TEST(SensorLife, PerfectSensorsReproduceExactRules)
{
    Board board = randomBoard(215);
    SensorLife variant(0.0, lifeOptions());
    Rng rng = testing::testRng(216);
    for (std::size_t y = 0; y < board.height(); ++y) {
        for (std::size_t x = 0; x < board.width(); ++x) {
            auto decision = variant.updateCell(board, x, y, rng);
            EXPECT_EQ(decision.willBeAlive, board.nextStateExact(x, y))
                << "cell (" << x << ", " << y << ")";
        }
    }
}

TEST(BayesLife, PerfectSensorsReproduceExactRules)
{
    Board board = randomBoard(217);
    BayesLife variant(0.0, lifeOptions());
    Rng rng = testing::testRng(218);
    for (std::size_t y = 0; y < board.height(); ++y) {
        for (std::size_t x = 0; x < board.width(); ++x) {
            auto decision = variant.updateCell(board, x, y, rng);
            EXPECT_EQ(decision.willBeAlive, board.nextStateExact(x, y));
        }
    }
}

TEST(NaiveLife, BirthRuleAlmostNeverFiresUnderNoise)
{
    // A dead cell with exactly 3 live neighbors: exact rules say
    // birth, but `sum == 3.0` on a continuous sum is almost surely
    // false — a structural uncertainty bug of the naive port.
    Board board(3, 3);
    board.setAlive(0, 0, true);
    board.setAlive(1, 0, true);
    board.setAlive(2, 0, true);
    ASSERT_EQ(board.countLiveNeighbors(1, 1), 3);
    ASSERT_TRUE(board.nextStateExact(1, 1));

    NaiveLife variant(0.1);
    Rng rng = testing::testRng(219);
    int births = 0;
    for (int i = 0; i < 500; ++i)
        births += variant.updateCell(board, 1, 1, rng).willBeAlive;
    EXPECT_EQ(births, 0);
}

TEST(SensorLife, BirthRuleSurvivesModerateNoise)
{
    Board board(3, 3);
    board.setAlive(0, 0, true);
    board.setAlive(1, 0, true);
    board.setAlive(2, 0, true);

    SensorLife variant(0.1, lifeOptions());
    Rng rng = testing::testRng(220);
    int births = 0;
    for (int i = 0; i < 100; ++i)
        births += variant.updateCell(board, 1, 1, rng).willBeAlive;
    EXPECT_GE(births, 95);
}

TEST(NaiveLife, BoundaryCountsAreCoinFlips)
{
    // A live cell with exactly 2 neighbors sits on the `< 2` rule
    // boundary: any noise makes the naive comparison a coin flip.
    Board board(3, 3);
    board.setAlive(1, 1, true);
    board.setAlive(0, 0, true);
    board.setAlive(2, 2, true);
    ASSERT_EQ(board.countLiveNeighbors(1, 1), 2);
    ASSERT_TRUE(board.nextStateExact(1, 1));

    NaiveLife variant(0.05);
    Rng rng = testing::testRng(221);
    int wrong = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        wrong += variant.updateCell(board, 1, 1, rng).willBeAlive
                     ? 0
                     : 1;
    EXPECT_NEAR(static_cast<double>(wrong) / n, 0.5,
                testing::proportionTolerance(0.5, n));
}

TEST(SensorLife, BoundaryCountsFallThroughToTheCurrentState)
{
    // The same boundary cell: SensorLife's hypothesis tests are
    // inconclusive, the chain falls through, the cell keeps living —
    // which is the correct decision.
    Board board(3, 3);
    board.setAlive(1, 1, true);
    board.setAlive(0, 0, true);
    board.setAlive(2, 2, true);

    SensorLife variant(0.05, lifeOptions());
    Rng rng = testing::testRng(222);
    int correct = 0;
    for (int i = 0; i < 100; ++i)
        correct += variant.updateCell(board, 1, 1, rng).willBeAlive;
    EXPECT_GE(correct, 95);
}

TEST(Variants, ErrorOrderingMatchesFigure14a)
{
    const double sigma = 0.2;
    Board board = randomBoard(223);
    Rng rng = testing::testRng(224);

    NaiveLife naive(sigma);
    SensorLife sensor(sigma, lifeOptions());
    BayesLife bayes(sigma, lifeOptions());

    auto naiveStats = runNoisyGame(board, naive, 6, rng);
    auto sensorStats = runNoisyGame(board, sensor, 6, rng);
    auto bayesStats = runNoisyGame(board, bayes, 6, rng);

    EXPECT_GT(naiveStats.errorRate(), sensorStats.errorRate());
    EXPECT_LE(bayesStats.errorRate(), sensorStats.errorRate());
    EXPECT_LT(bayesStats.errorRate(), 0.01);
}

TEST(Variants, SampleCostOrderingMatchesFigure14b)
{
    const double sigma = 0.2;
    Board board = randomBoard(225);
    Rng rng = testing::testRng(226);

    NaiveLife naive(sigma);
    SensorLife sensor(sigma, lifeOptions());
    BayesLife bayes(sigma, lifeOptions());

    auto naiveStats = runNoisyGame(board, naive, 4, rng);
    auto sensorStats = runNoisyGame(board, sensor, 4, rng);
    auto bayesStats = runNoisyGame(board, bayes, 4, rng);

    EXPECT_DOUBLE_EQ(naiveStats.samplesPerUpdate(), 1.0);
    EXPECT_GT(sensorStats.samplesPerUpdate(), 1.0);
    EXPECT_GT(bayesStats.samplesPerUpdate(), 1.0);
    EXPECT_LT(bayesStats.samplesPerUpdate(),
              sensorStats.samplesPerUpdate());
}

TEST(JointBayesLife, PerfectSensorsReproduceExactRules)
{
    Board board = randomBoard(229);
    JointBayesLife variant(0.0, 5, lifeOptions());
    Rng rng = testing::testRng(230);
    for (std::size_t y = 0; y < board.height(); ++y) {
        for (std::size_t x = 0; x < board.width(); ++x) {
            auto decision = variant.updateCell(board, x, y, rng);
            EXPECT_EQ(decision.willBeAlive, board.nextStateExact(x, y));
        }
    }
}

TEST(JointBayesLife, SurvivesNoiseThatBreaksPerSampleSnapping)
{
    // The paper: "At noise levels higher than sigma = 0.4,
    // considering individual samples in isolation breaks down. A
    // better implementation could calculate joint likelihoods with
    // multiple samples." That better implementation must stay
    // essentially error-free at sigma = 0.45.
    const double sigma = 0.45;
    Board board = randomBoard(231);
    Rng rng = testing::testRng(232);

    JointBayesLife joint(sigma, 7, lifeOptions());
    auto jointStats = runNoisyGame(board, joint, 5, rng);
    EXPECT_LT(jointStats.errorRate(), 0.01);

    BayesLife perSample(sigma, lifeOptions());
    auto perSampleStats = runNoisyGame(board, perSample, 5, rng);
    EXPECT_GT(perSampleStats.errorRate(), jointStats.errorRate());
}

TEST(JointBayesLife, AccountsForExtraReadsInSampleCost)
{
    Board board = randomBoard(233);
    Rng rng = testing::testRng(234);
    JointBayesLife variant(0.1, 5, lifeOptions());
    auto decision = variant.updateCell(board, 1, 1, rng);
    // samplesDrawn is in raw-reading units: a multiple of 5.
    EXPECT_EQ(decision.samplesDrawn % 5, 0u);
    EXPECT_GT(decision.samplesDrawn, 0u);
}

TEST(JointBayesLife, ValidatesReadCount)
{
    EXPECT_THROW(JointBayesLife(0.1, 0), Error);
}

TEST(Variants, StepNoisyAdvancesTheBoard)
{
    Board board = randomBoard(227);
    Board before = board;
    SensorLife variant(0.05, lifeOptions());
    Rng rng = testing::testRng(228);
    auto stats = stepNoisy(board, variant, rng);
    EXPECT_EQ(stats.cellUpdates, before.cellCount());
    EXPECT_FALSE(board == before);
    // At low noise the noisy step should mostly agree with exact.
    EXPECT_LT(stats.errorRate(), 0.05);
}

} // namespace
} // namespace life
} // namespace uncertain
