/**
 * @file
 * Seeded random finite-support DAG generator for the exact-oracle
 * property suites.
 *
 * Graphs are built so the exact backend and the stochastic engines
 * are comparable with zero arithmetic slop: leaf supports are small
 * *integers* (exactly representable doubles) and the operator pool is
 * closed over integer values (+, -, *, min, max, select), so every
 * node's support is a set of exactly-representable values — a sampled
 * double either equals a support value bit-for-bit or the engine is
 * wrong. Node reuse draws operands from a growing pool, which
 * produces the shared-leaf diamonds that distinguish Figure 8(b)
 * semantics from naive independent re-draws; select() operands give
 * comparison-driven branch nodes.
 *
 * Determinism: the whole graph is a pure function of (seed, options).
 * A failing seed reported by the property suite reproduces the exact
 * graph.
 */

#ifndef UNCERTAIN_TESTS_SUPPORT_GRAPH_GEN_HPP
#define UNCERTAIN_TESTS_SUPPORT_GRAPH_GEN_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "random/binomial.hpp"
#include "random/poisson.hpp"

namespace uncertain {
namespace testing {

struct GraphGenOptions
{
    std::size_t maxLeaves = 6;      //!< stochastic leaves (>= 1)
    std::size_t maxLeafSupport = 4; //!< values per leaf (>= 2)
    std::size_t ops = 12;           //!< inner nodes appended
    /**
     * Allow at most ONE distribution-backed leaf per graph — a small
     * Binomial (n in 2..5) or a truncated small-lambda Poisson —
     * exercising the fromDistribution finite-support surfacing the
     * enumeration oracle consumes. Capped at one so the joint support
     * stays bounded (the truncated Poisson support is the widest at
     * ~18 integer values).
     */
    bool distributionLeaves = true;
};

/**
 * Deterministically generate a finite-support expression DAG from
 * @p seed. Joint support is bounded by maxLeafSupport^maxLeaves times
 * the widest distribution-leaf support (4096 x ~18 states at the
 * defaults), well inside every enumeration limit used by the suites.
 */
inline Uncertain<double>
randomFiniteGraph(std::uint64_t seed,
                  const GraphGenOptions& options = {})
{
    // SplitMix-style seed scramble so consecutive seeds do not
    // produce correlated mt19937 states.
    std::mt19937_64 gen(seed * 0x9e3779b97f4a7c15ULL
                        + 0xbf58476d1ce4e5b9ULL);
    auto pickIndex = [&gen](std::size_t lo, std::size_t hi) {
        return std::uniform_int_distribution<std::size_t>(lo, hi)(gen);
    };

    std::vector<Uncertain<double>> pool;
    const std::size_t leaves = pickIndex(1, options.maxLeaves);
    for (std::size_t i = 0; i < leaves; ++i) {
        const std::size_t supportSize =
            pickIndex(2, options.maxLeafSupport);
        std::vector<int> candidates = {-2, -1, 0, 1, 2, 3};
        std::shuffle(candidates.begin(), candidates.end(), gen);
        std::vector<double> values;
        std::vector<double> weights;
        for (std::size_t v = 0; v < supportSize; ++v) {
            values.push_back(static_cast<double>(candidates[v]));
            weights.push_back(
                static_cast<double>(pickIndex(1, 8)));
        }
        pool.push_back(core::fromFiniteSupport<double>(
            values, weights, "gen" + std::to_string(i)));
    }

    // Roughly half the graphs get one distribution-backed leaf whose
    // finite support comes from Binomial::finiteSupport or the
    // truncated Poisson::finiteSupport — integer-valued, so the
    // corpus stays closed over exactly-representable doubles.
    if (options.distributionLeaves && pickIndex(0, 1) == 0) {
        if (pickIndex(0, 1) == 0) {
            const auto n =
                static_cast<std::uint32_t>(pickIndex(2, 5));
            const double p =
                0.15 + 0.1 * static_cast<double>(pickIndex(1, 7));
            pool.push_back(core::fromDistribution(
                std::make_shared<random::Binomial>(n, p)));
        }
        else {
            const double lambda =
                0.25 * static_cast<double>(pickIndex(2, 5));
            pool.push_back(core::fromDistribution(
                std::make_shared<random::Poisson>(lambda)));
        }
    }

    auto pick = [&]() {
        return pool[pickIndex(0, pool.size() - 1)];
    };

    // Every pick is bound to a named local before it is used: C++
    // leaves the evaluation order of call arguments and of operands
    // of overloaded operators unspecified, and the graph a seed
    // produces must not depend on the compiler. The locals are drawn
    // in the right-to-left order GCC used for the unsequenced form
    // (for select(l < r, x, y): y, x, r, l), so the historical seeds
    // still produce the same graphs.
    for (std::size_t i = 0; i < options.ops; ++i) {
        switch (pickIndex(0, 6)) {
          case 0: {
            auto b = pick();
            auto a = pick();
            pool.push_back(a + b);
            break;
          }
          case 1: {
            auto b = pick();
            auto a = pick();
            pool.push_back(a - b);
            break;
          }
          case 2: {
            // Clamp products so repeated multiplication cannot leave
            // the exactly-representable integer range (values stay
            // <= 1e12 < 2^53 even before the clamp re-bounds them).
            auto b = pick();
            auto a = pick();
            pool.push_back(uncertain::clamp(a * b, -1.0e6, 1.0e6));
            break;
          }
          case 3: {
            auto b = pick();
            auto a = pick();
            pool.push_back(uncertain::min(a, b));
            break;
          }
          case 4: {
            auto b = pick();
            auto a = pick();
            pool.push_back(uncertain::max(a, b));
            break;
          }
          case 5: {
            auto y = pick();
            auto x = pick();
            auto r = pick();
            auto l = pick();
            pool.push_back(uncertain::select(l < r, x, y));
            break;
          }
          case 6: {
            // Point-mass mixing exercises constant folding.
            const double shift = static_cast<double>(pickIndex(0, 3));
            auto a = pick();
            pool.push_back(a + shift);
            break;
          }
        }
    }

    // Tie the tail of the pool together so late nodes (and their
    // shared subgraphs) are reachable from the root.
    Uncertain<double> root = pool.back();
    root = root + pick();
    return root;
}

} // namespace testing
} // namespace uncertain

#endif // UNCERTAIN_TESTS_SUPPORT_GRAPH_GEN_HPP
