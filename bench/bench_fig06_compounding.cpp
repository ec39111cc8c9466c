/**
 * @file
 * Figure 6: computation compounds uncertainty. The distribution of
 * c = a + b is wider than either operand's.
 *
 * --backend {auto,simd,scalar} selects the batch plans' strip
 * backend. Under --engine batch --backend auto on a host where the
 * plan-level JIT is available, the run also reports compile-time
 * amortization of the figure's graph against the SIMD strips.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "core/core.hpp"
#include "core/inspect.hpp"
#include "core/jit/jit_compiler.hpp"
#include "random/gaussian.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

using namespace uncertain;

namespace {

void
describe(const char* name, const Uncertain<double>& variable,
         std::size_t n, Rng& rng, core::BatchSampler* batch)
{
    stats::OnlineSummary summary;
    std::vector<double> samples =
        batch ? variable.takeSamples(n, rng, *batch)
              : variable.takeSamples(n, rng);
    summary.addAll(samples);
    std::printf("%s: mean %+.3f, stddev %.3f\n", name, summary.mean(),
                summary.stddev());
    stats::Histogram histogram(-8.0, 12.0, 25);
    histogram.addAll(samples);
    std::printf("%s\n", histogram.render(40).c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Figure 6: computation compounds uncertainty "
                  "(c = a + b)");
    bool paper = bench::hasFlag(argc, argv, "--paper");
    bool verbose = bench::hasFlag(argc, argv, "--verbose");
    std::string engine = bench::engineFlag(argc, argv);
    const simd::ExecBackend backend =
        bench::applyBackend(bench::backendFlag(argc, argv));
    const std::size_t n = paper ? 400000 : 60000;

    Rng rng(6);
    core::BatchOptions batchConfig;
    batchConfig.optimizer.backend = backend;
    core::BatchSampler batchSampler(batchConfig);
    core::BatchSampler* batch =
        engine == "batch" ? &batchSampler : nullptr;
    auto a = core::fromDistribution(
        std::make_shared<random::Gaussian>(1.0, 1.0));
    auto b = core::fromDistribution(
        std::make_shared<random::Gaussian>(2.0, 1.5));
    auto c = a + b;

    describe("a ~ N(1, 1.0)  ", a, n, rng, batch);
    describe("b ~ N(2, 1.5)  ", b, n, rng, batch);
    describe("c = a + b      ", c, n, rng, batch);

    if (batch && verbose) {
        std::printf(
            "plan (c = a + b): %s\n",
            core::planReport(core::planStats(c, *batch),
                             batch->planCache()->stats(),
                             batch->blockSize(),
                             core::planExecCounters(c, *batch))
                .c_str());
    }

    if (batch && backend == simd::ExecBackend::Auto
        && jit::available()) {
        // Compile-time amortization for the figure's own graph: the
        // first block pays plan build (plus fragment compilation when
        // the run is long enough to fuse), later blocks run from the
        // caches. Fresh graphs and samplers so nothing is reused.
        const std::size_t block = batchSampler.blockSize();
        const std::size_t steadyBlocks = 50;
        Rng timingRng(7);
        auto measure = [&](simd::ExecBackend be, double* firstSec,
                           double* steadySec, std::uint64_t* compileNs,
                           std::size_t* fragments) {
            auto freshA = core::fromDistribution(
                std::make_shared<random::Gaussian>(1.0, 1.0));
            auto freshB = core::fromDistribution(
                std::make_shared<random::Gaussian>(2.0, 1.5));
            auto freshC = freshA + freshB;
            core::BatchOptions config;
            config.optimizer.backend = be;
            core::BatchSampler sampler(config);
            *firstSec = bench::timeSeconds([&] {
                (void)freshC.takeSamples(block, timingRng, sampler);
            });
            *steadySec =
                bench::timeSeconds([&] {
                    for (std::size_t i = 0; i < steadyBlocks; ++i)
                        (void)freshC.takeSamples(block, timingRng,
                                                 sampler);
                })
                / static_cast<double>(steadyBlocks);
            auto stats = core::planStats(freshC, sampler);
            *compileNs = stats.jitCompileNanos;
            *fragments = stats.jitFragments;
        };
        double jitFirst = 0.0, jitSteady = 0.0;
        double simdFirst = 0.0, simdSteady = 0.0;
        std::uint64_t compileNs = 0, simdCompileNs = 0;
        std::size_t fragments = 0, simdFragments = 0;
        measure(simd::ExecBackend::Auto, &jitFirst, &jitSteady,
                &compileNs, &fragments);
        measure(simd::ExecBackend::Simd, &simdFirst, &simdSteady,
                &simdCompileNs, &simdFragments);
        const double gain = simdSteady - jitSteady;
        const double breakEven =
            gain > 0.0 ? static_cast<double>(compileNs) * 1e-9 / gain
                       : -1.0;
        std::printf(
            "jit amortization (c = a + b, block %zu): %zu fragments, "
            "compile %.1f us; first block %.3g M items/s, steady %.3g "
            "M items/s (simd steady %.3g M); break-even %.1f blocks\n",
            block, fragments, static_cast<double>(compileNs) * 1e-3,
            static_cast<double>(block) / jitFirst * 1e-6,
            static_cast<double>(block) / jitSteady * 1e-6,
            static_cast<double>(block) / simdSteady * 1e-6, breakEven);
    }

    std::printf("Shape check: stddev(c) = sqrt(1 + 2.25) = 1.80 > "
                "max(stddev(a), stddev(b)).\n");
    return 0;
}
