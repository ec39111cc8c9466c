/**
 * @file
 * Figure 1: a single sample is a poor approximation of the entire
 * distribution. Draws one sample from a Gaussian, then the full
 * histogram, and reports how misleading the single draw can be.
 *
 * --threads N adds a serial-vs-parallel batch-sampling comparison on
 * an Uncertain<double> expression graph. --engine {tree,batch}
 * selects the engine that draws the histogram's samples (through the
 * Uncertain<double> surface) and, for batch, appends a tree-vs-batch
 * throughput table on the same shared-leaf graph.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "bench_util.hpp"
#include "core/core.hpp"
#include "random/gaussian.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "support/rng.hpp"

using namespace uncertain;

namespace {

/** Serial vs parallel takeSamples over a small expression graph. */
void
reportParallelSpeedup(unsigned threads, std::size_t n)
{
    // A 5-node graph (2 leaves, 3 operators) with a shared leaf —
    // the memo-table hot path, not just raw leaf draws.
    auto x = core::fromDistribution(
        std::make_shared<random::Gaussian>(0.0, 1.0));
    auto y = core::fromDistribution(
        std::make_shared<random::Gaussian>(1.0, 2.0));
    auto expr = (y + x) + x;

    std::printf("\nParallel batch sampling of (Y + X) + X, n = %zu\n",
                n);
    bench::Table table({"threads", "seconds", "speedup", "mean"});

    Rng serialRng(11);
    std::vector<double> serialSamples;
    double serialSeconds = bench::timeSeconds([&] {
        serialSamples = expr.takeSamples(n, serialRng);
    });
    double serialMean = 0.0;
    for (double v : serialSamples)
        serialMean += v;
    serialMean /= static_cast<double>(n);
    table.row({1.0, serialSeconds, 1.0, serialMean});

    std::set<unsigned> counts{2u, 4u};
    if (threads > 1)
        counts.insert(threads);
    for (unsigned t : counts) {
        Rng rng(11);
        core::BatchSampler sampler(
            core::BatchOptions{4096}, nullptr,
            std::make_shared<core::BlockScheduler>(t - 1));
        std::vector<double> samples;
        double seconds = bench::timeSeconds(
            [&] { samples = expr.takeSamples(n, rng, sampler); });
        double mean = 0.0;
        for (double v : samples)
            mean += v;
        mean /= static_cast<double>(n);
        table.row({static_cast<double>(t), seconds,
                   serialSeconds / seconds, mean});
    }
}

/** Tree-walk vs columnar-plan throughput on (Y + X) + X. */
void
reportEngineSpeedup(std::size_t n)
{
    auto x = core::fromDistribution(
        std::make_shared<random::Gaussian>(0.0, 1.0));
    auto y = core::fromDistribution(
        std::make_shared<random::Gaussian>(1.0, 2.0));
    auto expr = (y + x) + x;

    std::printf("\nEngine comparison on (Y + X) + X, n = %zu\n", n);
    bench::Table table({"engine", "seconds", "speedup", "mean"});

    auto meanOf = [](const std::vector<double>& samples) {
        double total = 0.0;
        for (double v : samples)
            total += v;
        return total / static_cast<double>(samples.size());
    };

    Rng treeRng(11);
    std::vector<double> treeSamples;
    double treeSeconds = bench::timeSeconds(
        [&] { treeSamples = expr.takeSamples(n, treeRng); });
    table.mixedRow({"tree", std::to_string(treeSeconds), "1.0",
                    std::to_string(meanOf(treeSamples))});

    Rng batchRng(11);
    core::BatchSampler sampler;
    std::vector<double> batchSamples;
    double batchSeconds = bench::timeSeconds(
        [&] { batchSamples = expr.takeSamples(n, batchRng, sampler); });
    table.mixedRow({"batch", std::to_string(batchSeconds),
                    std::to_string(treeSeconds / batchSeconds),
                    std::to_string(meanOf(batchSamples))});
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Figure 1: one sample vs. the distribution "
                  "(Gaussian(0, 1))");
    bool paper = bench::hasFlag(argc, argv, "--paper");
    const unsigned threads = bench::threadsFlag(argc, argv);
    const std::string engine = bench::engineFlag(argc, argv);
    const std::size_t n = paper ? 1000000 : 100000;

    random::Gaussian dist(0.0, 1.0);
    Rng rng(1);

    double single = dist.sample(rng);
    std::printf("single sample:          %+.3f\n", single);
    std::printf("distribution mean:      %+.3f\n", dist.mean());
    std::printf("single-sample error:    %+.3f (%.1f%% of the "
                "distribution is closer to the mean)\n\n",
                single - dist.mean(),
                100.0
                    * (dist.cdf(std::fabs(single))
                       - dist.cdf(-std::fabs(single))));

    stats::Histogram histogram(-4.0, 4.0, 33);
    stats::OnlineSummary summary;
    if (engine == "batch") {
        auto leaf = core::fromDistribution(
            std::make_shared<random::Gaussian>(0.0, 1.0));
        core::BatchSampler sampler;
        for (double x : leaf.takeSamples(n, rng, sampler)) {
            histogram.add(x);
            summary.add(x);
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            double x = dist.sample(rng);
            histogram.add(x);
            summary.add(x);
        }
    }
    std::printf("%zu samples (%s engine): mean %+.4f, stddev %.4f\n\n",
                n, engine.c_str(), summary.mean(), summary.stddev());
    std::printf("%s", histogram.render(48).c_str());
    std::printf("\nPaper's point: treating the single draw as the "
                "value discards the\nentire shape above.\n");

    if (engine == "batch")
        reportEngineSpeedup(paper ? 4000000 : 1000000);
    if (threads > 1)
        reportParallelSpeedup(threads, paper ? 4000000 : 1000000);
    return 0;
}
