/**
 * @file
 * Alternative noise models for the SensorLife sensors: the paper
 * claims Beta-distributed (non-negative, bounded) noise "does not
 * appreciably change our results" — these tests pin that claim.
 */

#include <gtest/gtest.h>

#include "life/variants.hpp"
#include "stats/summary.hpp"
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

TEST(ShiftedBetaNoise, HasTheRequestedMoments)
{
    Board board(2, 1);
    board.setAlive(0, 0, true);
    NoisySensor sensor(0.25, NoiseModel::ShiftedBeta);
    Rng rng = testing::testRng(371);

    stats::OnlineSummary s;
    for (int i = 0; i < 100000; ++i)
        s.add(sensor.read(board, 0, 0, rng));
    EXPECT_NEAR(s.mean(), 1.0, testing::meanTolerance(0.25, 100000));
    EXPECT_NEAR(s.stddev(), 0.25, 0.01);
}

TEST(ShiftedBetaNoise, ReadingsAreBounded)
{
    Board board(2, 1);
    NoisySensor sensor(0.2, NoiseModel::ShiftedBeta);
    Rng rng = testing::testRng(372);
    // Beta(2,2) support is [0,1]; shifted/scaled noise is bounded by
    // +- 0.5 * sigma / sd(Beta22) ~ +- 2.24 sigma.
    double bound = 0.5 * 0.2 / std::sqrt(0.05) + 1e-9;
    for (int i = 0; i < 20000; ++i) {
        double v = sensor.read(board, 0, 0, rng);
        EXPECT_GE(v, -bound);
        EXPECT_LE(v, bound);
    }
}

TEST(ShiftedBetaNoise, DoesNotAppreciablyChangeSensorLifeResults)
{
    // The paper's sentence, as a test: error rates under Gaussian
    // and Beta noise of equal sigma agree to within a small margin.
    const double sigma = 0.2;
    Rng rng = testing::testRng(373);
    Board board(12, 12);
    board.randomize(rng, 0.35);

    auto errorWith = [&](NoiseModel model) {
        stats::OnlineSummary errors;
        for (int run = 0; run < 4; ++run) {
            SensorLife variant(sigma, lifeOptions(), model);
            errors.add(
                runNoisyGame(board, variant, 6, rng).errorRate());
        }
        return errors.mean();
    };

    double gaussian = errorWith(NoiseModel::Gaussian);
    double beta = errorWith(NoiseModel::ShiftedBeta);
    EXPECT_NEAR(gaussian, beta, 0.02);
}

TEST(ShiftedBetaNoise, BayesLifeStillSnapsCorrectly)
{
    Board board(3, 3);
    board.setAlive(0, 0, true);
    board.setAlive(1, 0, true);
    board.setAlive(2, 0, true);

    BayesLife variant(0.2, lifeOptions(), NoiseModel::ShiftedBeta);
    Rng rng = testing::testRng(374);
    int births = 0;
    for (int i = 0; i < 100; ++i)
        births += variant.updateCell(board, 1, 1, rng).willBeAlive;
    EXPECT_GE(births, 95);
}

} // namespace
} // namespace life
} // namespace uncertain
