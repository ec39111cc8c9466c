/**
 * @file
 * Shared helpers for the figure-reproduction harnesses: aligned
 * table printing, a --paper flag that switches from the default
 * quick configuration to the paper's full experiment scale, a
 * --threads N axis for the parallel sampling engine, and a wall-clock
 * timer for serial-vs-parallel speedup rows.
 */

#ifndef UNCERTAIN_BENCH_BENCH_UTIL_HPP
#define UNCERTAIN_BENCH_BENCH_UTIL_HPP

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/simd.hpp"

namespace uncertain {
namespace bench {

/** True when @p flag appears among the process arguments. */
inline bool
hasFlag(int argc, char** argv, const char* flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

/**
 * Value of an integer option given as "--name N" or "--name=N";
 * @p fallback when absent or malformed.
 */
inline long
intFlag(int argc, char** argv, const char* flag, long fallback)
{
    const std::size_t flagLen = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
            return std::atol(argv[i + 1]);
        if (std::strncmp(argv[i], flag, flagLen) == 0
            && argv[i][flagLen] == '=') {
            return std::atol(argv[i] + flagLen + 1);
        }
    }
    return fallback;
}

/**
 * The --threads axis shared by the harnesses: 1 (serial engine) when
 * absent.
 */
inline unsigned
threadsFlag(int argc, char** argv)
{
    long n = intFlag(argc, argv, "--threads", 1);
    return n < 1 ? 1u : static_cast<unsigned>(n);
}

/**
 * Value of a string option given as "--name value" or "--name=value";
 * @p fallback when absent.
 */
inline std::string
stringFlag(int argc, char** argv, const char* flag,
           const char* fallback)
{
    const std::size_t flagLen = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
            return argv[i + 1];
        if (std::strncmp(argv[i], flag, flagLen) == 0
            && argv[i][flagLen] == '=') {
            return argv[i] + flagLen + 1;
        }
    }
    return fallback;
}

/**
 * The --engine {tree,batch} axis: "tree" is the classic per-sample
 * DAG walk, "batch" the columnar plan engine (core::BatchSampler).
 * Exits with a usage message on any other value.
 */
inline std::string
engineFlag(int argc, char** argv)
{
    std::string engine = stringFlag(argc, argv, "--engine", "tree");
    if (engine != "tree" && engine != "batch") {
        std::fprintf(stderr,
                     "unknown --engine '%s' (expected tree or batch)\n",
                     engine.c_str());
        std::exit(2);
    }
    return engine;
}

/**
 * The --backend {auto,simd,scalar} axis shared by the harnesses:
 * which execution backend batch plans use for elementwise strips.
 * Exits with a usage message on any other value.
 */
inline std::string
backendFlag(int argc, char** argv)
{
    std::string backend = stringFlag(argc, argv, "--backend", "auto");
    if (backend != "auto" && backend != "simd" && backend != "scalar") {
        std::fprintf(stderr,
                     "unknown --backend '%s' (expected auto, simd or "
                     "scalar)\n",
                     backend.c_str());
        std::exit(2);
    }
    return backend;
}

/** Map a backendFlag() value onto PlanOptions::backend. */
inline simd::ExecBackend
applyBackend(const std::string& backend)
{
    return backend == "scalar" ? simd::ExecBackend::Scalar
           : backend == "simd" ? simd::ExecBackend::Simd
                               : simd::ExecBackend::Auto;
}

/** Wall-clock seconds spent in @p fn. */
template <typename F>
double
timeSeconds(F&& fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

/**
 * Write a minimal google-benchmark-compatible JSON file (the subset
 * scripts/bench_compare.py reads: benchmarks[].name and
 * items_per_second) so printf-style figure harnesses can feed the
 * same CI gate as the google-benchmark micro suites.
 */
inline void
writeBenchJson(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& itemsPerSecond)
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(out, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < itemsPerSecond.size(); ++i) {
        std::fprintf(out,
                     "    {\"name\": \"%s\", "
                     "\"items_per_second\": %.6f}%s\n",
                     itemsPerSecond[i].first.c_str(),
                     itemsPerSecond[i].second,
                     i + 1 < itemsPerSecond.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
}

/** Print a banner naming the figure being reproduced. */
inline void
banner(const std::string& title)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("==============================================================\n");
}

/** Fixed-width row printing: header then rows of doubles. */
class Table
{
  public:
    explicit Table(std::vector<std::string> columns)
        : columns_(std::move(columns))
    {
        for (std::size_t i = 0; i < columns_.size(); ++i)
            std::printf("%-16s", columns_[i].c_str());
        std::printf("\n");
        for (std::size_t i = 0; i < columns_.size(); ++i)
            std::printf("%-16s", "---------------");
        std::printf("\n");
    }

    void
    row(const std::vector<double>& values)
    {
        for (double v : values)
            std::printf("%-16.4f", v);
        std::printf("\n");
    }

    void
    mixedRow(const std::vector<std::string>& values)
    {
        for (const auto& v : values)
            std::printf("%-16s", v.c_str());
        std::printf("\n");
    }

  private:
    std::vector<std::string> columns_;
};

} // namespace bench
} // namespace uncertain

#endif // UNCERTAIN_BENCH_BENCH_UTIL_HPP
