/**
 * @file
 * Figure 14: SensorLife. Sweeps the sensor noise amplitude sigma and
 * reports, for NaiveLife / SensorLife / BayesLife:
 *  (a) the rate of incorrect decisions with a 95% CI, and
 *  (b) the number of samples drawn per cell update.
 *
 * Paper expectations: Naive is roughly flat around 8% (rule-boundary
 * coin flips plus the never-firing float `== 3` birth test are
 * noise-amplitude independent); Sensor errors grow with sigma but
 * stay well below Naive; Bayes makes ~no mistakes through sigma =
 * 0.4. Naive draws 1 sample/update; Sensor's cost grows with sigma;
 * Bayes sits between.
 *
 * Default is a reduced configuration (10x10 board, fewer runs);
 * --paper runs the full 20x20 x 25 generations x 50 runs.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/batch.hpp"
#include "life/variants.hpp"
#include "stats/confidence.hpp"
#include "stats/summary.hpp"

using namespace uncertain;
using namespace uncertain::life;

namespace {

struct SweepPoint
{
    double errorMean;
    double errorLo;
    double errorHi;
    double samplesPerUpdate;
};

SweepPoint
sweep(double sigma, const std::string& variantName,
      std::size_t boardSize, std::size_t generations,
      std::size_t runs, Rng& rng, core::BatchSampler* batch)
{
    core::ConditionalOptions options;
    options.sprt.maxSamples = 160;

    stats::OnlineSummary errors;
    stats::OnlineSummary samples;
    for (std::size_t r = 0; r < runs; ++r) {
        Board board(boardSize, boardSize);
        board.randomize(rng, 0.35);

        std::unique_ptr<LifeVariant> variant;
        if (variantName == "NaiveLife")
            variant = std::make_unique<NaiveLife>(sigma);
        else if (variantName == "SensorLife")
            variant = std::make_unique<SensorLife>(sigma, options);
        else if (variantName == "BayesLife")
            variant = std::make_unique<BayesLife>(sigma, options);
        else
            variant = std::make_unique<JointBayesLife>(sigma, 5,
                                                       options);
        // NaiveLife never samples an Uncertain, so only the
        // SensorLife family has an engine to switch.
        if (auto* sensorVariant =
                dynamic_cast<SensorLife*>(variant.get()))
            sensorVariant->useBatchEngine(batch);

        RunStats stats =
            runNoisyGame(board, *variant, generations, rng);
        errors.add(stats.errorRate());
        samples.add(stats.samplesPerUpdate());
    }
    stats::Interval ci =
        runs >= 2 ? stats::meanConfidenceInterval(errors)
                  : stats::Interval{errors.mean(), errors.mean()};
    return {errors.mean(), ci.lo, ci.hi, samples.mean()};
}

} // namespace

int
main(int argc, char** argv)
{
    bool paper = bench::hasFlag(argc, argv, "--paper");
    bool verbose = bench::hasFlag(argc, argv, "--verbose");
    std::string engine = bench::engineFlag(argc, argv);
    const std::size_t boardSize = paper ? 20 : 10;
    const std::size_t generations = paper ? 25 : 10;
    const std::size_t runs = paper ? 50 : 6;

    // Every cell update rebuilds its neighbor-sum graph, so the batch
    // engine here runs under constant PlanCache churn by design.
    core::BatchSampler batchSampler;
    core::BatchSampler* batch =
        engine == "batch" ? &batchSampler : nullptr;

    bench::banner("Figure 14: SensorLife error rates (a) and "
                  "sampling cost (b)");
    std::printf("board %zux%zu, %zu generations, %zu runs per point"
                "%s\n\n",
                boardSize, boardSize, generations, runs,
                paper ? " (paper scale)" : " (quick; --paper for "
                                           "full scale)");

    const std::vector<double> sigmas{0.05, 0.1, 0.15, 0.2, 0.25,
                                     0.3, 0.35, 0.4};
    // JointBayesLife is our implementation of the paper's
    // joint-likelihood future-work note (section 5.2).
    const std::vector<std::string> variants{
        "NaiveLife", "SensorLife", "BayesLife", "JointBayesLife"};

    for (const auto& name : variants) {
        std::printf("--- %s ---\n", name.c_str());
        bench::Table table({"sigma", "error rate", "ci lo", "ci hi",
                            "samples/update"});
        Rng rng(14);
        for (double sigma : sigmas) {
            SweepPoint p = sweep(sigma, name, boardSize, generations,
                                 runs, rng, batch);
            table.row({sigma, p.errorMean, p.errorLo, p.errorHi,
                       p.samplesPerUpdate});
        }
        std::printf("\n");
    }

    if (batch && verbose) {
        core::PlanCacheStats cacheStats = batch->planCache()->stats();
        std::printf("batch engine: PlanCache hits %llu, misses %llu, "
                    "evictions %llu @ block %zu\n\n",
                    static_cast<unsigned long long>(cacheStats.hits),
                    static_cast<unsigned long long>(cacheStats.misses),
                    static_cast<unsigned long long>(
                        cacheStats.evictions),
                    batch->blockSize());
    }

    std::printf(
        "Shape checks (Figure 14): Naive error is flat (boundary "
        "coin flips and the\nnever-firing float `== 3` birth test are "
        "amplitude-independent); Sensor error\nis ~0 at low sigma and "
        "grows with noise; Bayes is ~0 through sigma ~0.3 and\n"
        "breaks down near 0.4, the paper's stated limit of per-sample "
        "snapping;\nJointBayesLife (the paper's joint-likelihood "
        "future-work note) stays ~0\nthroughout. Known deviation, see "
        "EXPERIMENTS.md: past sigma ~0.3 the strict\nmore-likely-than-"
        "not reading of the continuous birth rule fails, so Sensor\n"
        "approaches Naive from below instead of staying strictly "
        "under it.\n");
    return 0;
}
