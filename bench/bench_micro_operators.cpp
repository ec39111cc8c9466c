/**
 * @file
 * Microbenchmarks (google-benchmark): the runtime costs behind the
 * abstraction — graph construction, ancestral sampling at varying
 * depths, memoized shared nodes, conditional evaluation, E(), and
 * the batch engine over a BlockScheduler on a threads axis (the
 * benchmark argument is the thread count: the caller plus
 * threads - 1 helpers).
 *
 * --engine {tree,batch} selects the sampling engine for the
 * bulk-sampling benchmarks (BM_TakeSamples, BM_ExpectedValue, the
 * conditionals): "tree" walks the DAG once per sample, "batch" runs
 * the compiled columnar plan. Run once per engine and compare
 * items_per_second; the engine is recorded in the benchmark context.
 *
 * --optimizer {on,off} sets PlanOptions::optimize, the one switch
 * for the whole batch-plan optimizer (CSE, constant folding, fusion,
 * buffer reuse), for every batch sampler in the run — CI runs both
 * and scripts/bench_compare.py diffs the two JSONs. --verbose prints
 * the optimized-plan report for the BM_TakeSamples graphs before the
 * benchmarks run.
 *
 * --backend {auto,simd,scalar} selects the execution backend for
 * the batch plans: "scalar" is the honest baseline for SIMD
 * speedups, "simd" the kernel-strip rung CI gates at >= 1.3x on the
 * depth-64 chain, "auto" (compiled fragments where the plan-level
 * JIT is available) the rung gated at >= 1.25x over simd
 * (scripts/bench_compare.py --backend-gate). Under --engine batch
 * --backend auto the harness also measures the JIT's compile-time
 * amortization — first-block vs steady-state throughput and the
 * break-even block count — and records it in the benchmark context.
 */

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "core/core.hpp"
#include "core/inspect.hpp"
#include "core/jit/jit_compiler.hpp"
#include "random/gaussian.hpp"

using namespace uncertain;

namespace {

/** Engine axis for the bulk-sampling benchmarks; set by --engine. */
std::string g_engine = "tree";
/** Optimizer axis for the batch engine; set by --optimizer. */
std::string g_optimizer = "on";
/** Backend axis for the batch engine; set by --backend. */
std::string g_backend = "auto";
/** g_backend resolved by bench::applyBackend() in main(). */
simd::ExecBackend g_backendEnum = simd::ExecBackend::Auto;
bool g_verbose = false;

bool
useBatchEngine()
{
    return g_engine == "batch";
}

core::PlanOptions
optimizerOptions()
{
    // The two axes are independent: an unoptimized plan can still run
    // its groups of one through the vector kernels.
    return {g_optimizer == "on", g_backendEnum};
}

core::BatchOptions
batchOptions()
{
    core::BatchOptions options;
    options.optimizer = optimizerOptions();
    return options;
}

Uncertain<double>
gaussianLeaf()
{
    return core::fromDistribution(
        std::make_shared<random::Gaussian>(0.0, 1.0));
}

/** Chain of @p depth additions over fresh leaves. */
Uncertain<double>
buildChain(int depth)
{
    auto acc = gaussianLeaf();
    for (int i = 1; i < depth; ++i)
        acc = acc + gaussianLeaf();
    return acc;
}

void
BM_GraphConstruction(benchmark::State& state)
{
    const int depth = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto chain = buildChain(depth);
        benchmark::DoNotOptimize(chain.node().get());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphConstruction)->Range(1, 256)->Complexity();

void
BM_AncestralSampling(benchmark::State& state)
{
    const int depth = static_cast<int>(state.range(0));
    auto chain = buildChain(depth);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(chain.sample(rng));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AncestralSampling)->Range(1, 256)->Complexity();

void
BM_SharedNodeSampling(benchmark::State& state)
{
    // Diamond sharing: 2^k paths but only k nodes; memoization must
    // keep this linear in nodes, not paths.
    const int levels = static_cast<int>(state.range(0));
    auto node = gaussianLeaf();
    for (int i = 0; i < levels; ++i)
        node = node + node;
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(node.sample(rng));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SharedNodeSampling)->DenseRange(2, 20, 6)->Complexity();

void
BM_ConditionalEasy(benchmark::State& state)
{
    auto variable = core::fromDistribution(
        std::make_shared<random::Gaussian>(8.0, 1.0));
    auto condition = variable > 4.0;
    Rng rng(3);
    core::ConditionalOptions options;
    core::BatchSampler batchSampler(batchOptions());
    for (auto _ : state) {
        bool decision = useBatchEngine()
                            ? condition.pr(0.5, options, rng,
                                           batchSampler)
                            : condition.pr(0.5, options, rng);
        benchmark::DoNotOptimize(decision);
    }
}
BENCHMARK(BM_ConditionalEasy);

void
BM_ConditionalHard(benchmark::State& state)
{
    auto variable = core::fromDistribution(
        std::make_shared<random::Gaussian>(4.05, 1.0));
    auto condition = variable > 4.0;
    Rng rng(4);
    core::ConditionalOptions options;
    options.sprt.maxSamples = 1000;
    core::BatchSampler batchSampler(batchOptions());
    for (auto _ : state) {
        bool decision = useBatchEngine()
                            ? condition.pr(0.5, options, rng,
                                           batchSampler)
                            : condition.pr(0.5, options, rng);
        benchmark::DoNotOptimize(decision);
    }
}
BENCHMARK(BM_ConditionalHard);

void
BM_ExpectedValue(benchmark::State& state)
{
    auto chain = buildChain(8);
    Rng rng(5);
    core::BatchSampler batchSampler(batchOptions());
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        double mean = useBatchEngine()
                          ? chain.expectedValue(n, rng, batchSampler)
                          : chain.expectedValue(n, rng);
        benchmark::DoNotOptimize(mean);
    }
}
BENCHMARK(BM_ExpectedValue)->Arg(100)->Arg(1000);

void
BM_ExpectedValueAdaptive(benchmark::State& state)
{
    auto chain = buildChain(8);
    Rng rng(6);
    stats::AdaptiveMeanOptions options;
    // The chain's mean is ~0, so use an absolute target.
    options.absoluteTolerance = 0.1;
    for (auto _ : state) {
        auto result = chain.expectedValueAdaptive(options, rng);
        benchmark::DoNotOptimize(result.mean);
    }
}
BENCHMARK(BM_ExpectedValueAdaptive);

void
BM_LeafSampling(benchmark::State& state)
{
    auto leaf = gaussianLeaf();
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(leaf.sample(rng));
}
BENCHMARK(BM_LeafSampling);

// ----------------------------------------------------------------------
// Bulk sampling engines. BM_TakeSamples honours --engine: run once
// with --engine tree and once with --engine batch and compare
// items_per_second for the tree-walk vs columnar-plan speedup. The
// parallel variant's argument is the thread count; on a single-core
// host it shows ~1x plus dispatch overhead, on a multi-core host it
// should approach the thread count on the deep chain.
// ----------------------------------------------------------------------

void
BM_TakeSamples(benchmark::State& state)
{
    auto chain = buildChain(static_cast<int>(state.range(0)));
    Rng rng(8);
    core::BatchSampler batchSampler(batchOptions());
    const std::size_t n = 10000;
    for (auto _ : state) {
        auto samples = useBatchEngine()
                           ? chain.takeSamples(n, rng, batchSampler)
                           : chain.takeSamples(n, rng);
        benchmark::DoNotOptimize(samples.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_TakeSamples)->Arg(8)->Arg(64);

/** Depth-@p depth chain of elementwise ops over ONE leaf: acc
 *  alternates * and + with plain constants, so every step after the
 *  leaf is a fusable elementwise op and the optimizer folds the whole
 *  chain into fused register strips. This is the strip-execution
 *  benchmark: per sample, one Gaussian draw and @p depth micro-ops,
 *  where the scalar-vs-simd backend gap is the strip kernels alone
 *  (BM_TakeSamples is leaf/RNG-dominated and measures the ziggurat
 *  path instead). */
Uncertain<double>
buildElementwiseChain(int depth)
{
    auto acc = gaussianLeaf();
    for (int i = 0; i < depth / 2; ++i)
        acc = acc * 1.0101 + 0.25;
    return acc;
}

void
BM_ElementwiseChain(benchmark::State& state)
{
    auto chain =
        buildElementwiseChain(static_cast<int>(state.range(0)));
    Rng rng(8);
    core::BatchSampler batchSampler(batchOptions());
    const std::size_t n = 10000;
    for (auto _ : state) {
        auto samples = useBatchEngine()
                           ? chain.takeSamples(n, rng, batchSampler)
                           : chain.takeSamples(n, rng);
        benchmark::DoNotOptimize(samples.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ElementwiseChain)->Arg(8)->Arg(64);

void
BM_ParallelTakeSamples(benchmark::State& state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    auto chain = buildChain(static_cast<int>(state.range(1)));
    Rng rng(8);
    core::BatchSampler sampler(
        core::BatchOptions{1024, optimizerOptions()}, nullptr,
        std::make_shared<core::BlockScheduler>(threads - 1));
    const std::size_t n = 10000;
    for (auto _ : state) {
        auto samples = chain.takeSamples(n, rng, sampler);
        benchmark::DoNotOptimize(samples.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ParallelTakeSamples)
    ->ArgsProduct({{1, 2, 4, 8}, {8, 64}});

/** The mean of a query wide enough to spread: each block is summed
 *  on the participant that draws it. Timed in real time: at more
 *  threads than CPUs the caller's CPU time undercounts the query. */
void
BM_ParallelExpectedValue(benchmark::State& state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    auto chain = buildChain(static_cast<int>(state.range(1)));
    Rng rng(10);
    core::BatchSampler sampler(
        core::BatchOptions{8192, optimizerOptions()}, nullptr,
        std::make_shared<core::BlockScheduler>(threads - 1));
    const std::size_t n = 262144;
    for (auto _ : state)
        benchmark::DoNotOptimize(chain.expectedValue(n, rng, sampler));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ParallelExpectedValue)
    ->ArgsProduct({{1, 2, 4, 8}, {8, 64}})
    ->UseRealTime();

void
BM_ParallelConditional(benchmark::State& state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    auto variable = core::fromDistribution(
        std::make_shared<random::Gaussian>(4.05, 1.0));
    auto condition = variable > 4.0;
    Rng rng(9);
    core::ConditionalOptions options;
    options.sprt.maxSamples = 1000;
    core::BatchSampler sampler(
        core::BatchOptions{256, optimizerOptions()}, nullptr,
        std::make_shared<core::BlockScheduler>(threads - 1));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            condition.pr(0.5, options, rng, sampler));
}
BENCHMARK(BM_ParallelConditional)->Arg(1)->Arg(2)->Arg(4);

/**
 * Compile-time amortization of the JIT backend on the depth-64
 * elementwise chain: the first block pays plan build plus fragment
 * compilation; every later block runs the cached native code. Pitting
 * the steady-state per-block gain over the SIMD rung against the
 * one-off compile cost gives the break-even block count. Printed to
 * stderr and recorded in the benchmark context so BENCH_jit.json
 * carries the numbers.
 */
void
reportJitAmortization()
{
    if (!jit::available()) {
        std::fprintf(stderr,
                     "jit amortization: JIT unavailable (codegen %s), "
                     "plans fall back to simd/scalar\n",
                     jit::codegenIsaName());
        benchmark::AddCustomContext("jit_available", "false");
        return;
    }
    const int depth = 64;
    const std::size_t block = 1024;
    const std::size_t steadyBlocks = 200;
    Rng rng(10);

    // Fresh graph + sampler per backend so the first takeSamples call
    // really compiles (no plan-cache or fragment-cache reuse).
    jit::clearFragmentCache();
    auto measure = [&](simd::ExecBackend backend, double* firstSec,
                       double* steadySec,
                       std::uint64_t* compileNanos) {
        auto chain = buildElementwiseChain(depth);
        core::BatchOptions options;
        options.blockSize = block;
        options.optimizer = optimizerOptions();
        options.optimizer.backend = backend;
        core::BatchSampler sampler(options);
        *firstSec = bench::timeSeconds([&] {
            benchmark::DoNotOptimize(
                chain.takeSamples(block, rng, sampler).data());
        });
        *steadySec = bench::timeSeconds([&] {
                         for (std::size_t i = 0; i < steadyBlocks; ++i)
                             benchmark::DoNotOptimize(
                                 chain.takeSamples(block, rng, sampler)
                                     .data());
                     })
                     / static_cast<double>(steadyBlocks);
        *compileNanos =
            core::planStats(chain, sampler).jitCompileNanos;
    };

    double jitFirst = 0.0, jitSteady = 0.0;
    double simdFirst = 0.0, simdSteady = 0.0;
    std::uint64_t jitCompile = 0, simdCompile = 0;
    measure(simd::ExecBackend::Auto, &jitFirst, &jitSteady,
            &jitCompile);
    measure(simd::ExecBackend::Simd, &simdFirst, &simdSteady,
            &simdCompile);

    const double compileSec = static_cast<double>(jitCompile) * 1e-9;
    const double gainPerBlock = simdSteady - jitSteady;
    const double breakEven =
        gainPerBlock > 0.0 ? compileSec / gainPerBlock : -1.0;
    const double n = static_cast<double>(block);
    std::fprintf(
        stderr,
        "jit amortization (BM_ElementwiseChain/%d, block %zu): "
        "compile %.1f us; first block %.3g M items/s, steady %.3g M "
        "items/s (simd steady %.3g M); break-even %.1f blocks\n",
        depth, block, static_cast<double>(jitCompile) * 1e-3,
        n / jitFirst * 1e-6, n / jitSteady * 1e-6,
        n / simdSteady * 1e-6, breakEven);

    char buf[64];
    benchmark::AddCustomContext("jit_available", "true");
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(jitCompile) * 1e-3);
    benchmark::AddCustomContext("jit_compile_us", buf);
    std::snprintf(buf, sizeof buf, "%.0f", n / jitFirst);
    benchmark::AddCustomContext("jit_first_block_items_per_second",
                                buf);
    std::snprintf(buf, sizeof buf, "%.0f", n / jitSteady);
    benchmark::AddCustomContext("jit_steady_items_per_second", buf);
    std::snprintf(buf, sizeof buf, "%.2f", breakEven);
    benchmark::AddCustomContext("jit_break_even_blocks", buf);
}

/**
 * Strip "--engine X", "--backend X", "--optimizer X" (each also as
 * "--name=X") and "--verbose" from the argument vector (google
 * benchmark rejects flags it does not know), recording --optimizer
 * and --verbose. main() reads --engine and --backend through the
 * shared bench::engineFlag / bench::backendFlag first.
 */
void
parseLocalFlags(int* argc, char** argv)
{
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < *argc) {
            ++i; // read by bench::engineFlag in main()
        } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
            continue;
        } else if (std::strcmp(argv[i], "--optimizer") == 0
                   && i + 1 < *argc) {
            g_optimizer = argv[++i];
        } else if (std::strncmp(argv[i], "--optimizer=", 12) == 0) {
            g_optimizer = argv[i] + 12;
        } else if (std::strcmp(argv[i], "--backend") == 0
                   && i + 1 < *argc) {
            ++i; // read by bench::backendFlag in main()
        } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
            continue;
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            g_verbose = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
}

} // namespace

int
main(int argc, char** argv)
{
    // The shared parsers validate (exit 2 on an unknown value) before
    // parseLocalFlags strips the flags google-benchmark would reject.
    g_engine = bench::engineFlag(argc, argv);
    g_backend = bench::backendFlag(argc, argv);
    g_backendEnum = bench::applyBackend(g_backend);
    parseLocalFlags(&argc, argv);
    if (g_optimizer != "on" && g_optimizer != "off") {
        std::fprintf(stderr,
                     "unknown --optimizer '%s' (expected on or off)\n",
                     g_optimizer.c_str());
        return 2;
    }
    benchmark::AddCustomContext("engine", g_engine);
    benchmark::AddCustomContext("optimizer", g_optimizer);
    benchmark::AddCustomContext("backend", g_backend);
    benchmark::AddCustomContext(
        "isa", simd::isaName(simd::activeIsa()));
    if (useBatchEngine() && g_backendEnum == simd::ExecBackend::Auto)
        reportJitAmortization();
    if (g_verbose) {
        core::BatchSampler sampler(batchOptions());
        Rng rng(8);
        for (int depth : {8, 64}) {
            auto chain = buildElementwiseChain(depth);
            chain.takeSamples(sampler.blockSize(), rng, sampler);
            std::fprintf(
                stderr, "plan BM_ElementwiseChain/%d: %s\n", depth,
                core::planReport(core::planStats(chain, sampler),
                                 sampler.planCache()->stats(),
                                 sampler.blockSize(),
                                 core::planExecCounters(chain, sampler))
                    .c_str());
        }
        for (int depth : {8, 64}) {
            auto chain = buildChain(depth);
            // Draw one batch first so the execution counters in the
            // report reflect a real pass, not just compilation.
            chain.takeSamples(sampler.blockSize(), rng, sampler);
            std::fprintf(
                stderr, "plan BM_TakeSamples/%d: %s\n", depth,
                core::planReport(core::planStats(chain, sampler),
                                 sampler.planCache()->stats(),
                                 sampler.blockSize(),
                                 core::planExecCounters(chain, sampler))
                    .c_str());
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
