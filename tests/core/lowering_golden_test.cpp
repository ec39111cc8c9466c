/**
 * @file
 * Golden output digests of the three sampling paths over fixed graphs.
 *
 * Every other engine test compares the engines with each other (the
 * `memcmp` sweeps) or with a law (KS, chi-square, the exact oracle).
 * None of them notices a change that moves every engine the same way
 * and keeps the law: operands sampled or lowered in a different order
 * swap independent draws, which leaves every distribution test green.
 * These digests pin the output bits themselves.
 *
 * Each case hashes (FNV-1a over the raw element bytes) the output of
 *   - the tree walk, `takeSamples(n, rng)`;
 *   - the batch engine at default PlanOptions;
 *   - the batch engine at PlanOptions::disabled().
 *
 * Only integer-valued finite supports and IEEE-exact operators go in
 * (+, -, *, min, max, select, comparisons, clamp), so each digest is
 * a function of the Rng bits and the operand order alone, not of the
 * host's libm. A digest changes only when the sampled bits change, and
 * a refactor of the lowering must keep every constant below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "support/graph_gen.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace core {
namespace {

constexpr std::size_t kDraws = 3000; // three blocks, the last partial

std::uint64_t
fnv1a(const std::vector<unsigned char>& bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

template <typename T>
std::uint64_t
digest(const std::vector<T>& values)
{
    std::vector<unsigned char> bytes(values.size() * sizeof(T));
    if (!values.empty())
        std::memcpy(bytes.data(), values.data(), bytes.size());
    return fnv1a(bytes);
}

/** The three digests of one graph: tree walk, default plan, and the
 *  all-passes-off scalar plan. */
struct Digests
{
    std::uint64_t tree = 0;
    std::uint64_t batch = 0;
    std::uint64_t plain = 0;
};

template <typename T>
Digests
digestsOf(const Uncertain<T>& expr, std::uint64_t seed)
{
    Digests out;
    {
        Rng rng = testing::testRng(seed);
        out.tree = digest(expr.takeSamples(kDraws, rng));
    }
    {
        Rng rng = testing::testRng(seed);
        BatchSampler sampler(BatchOptions{1024, PlanOptions{}});
        out.batch = digest(expr.takeSamples(kDraws, rng, sampler));
    }
    {
        Rng rng = testing::testRng(seed);
        BatchSampler sampler(
            BatchOptions{1024, PlanOptions::disabled()});
        out.plain = digest(expr.takeSamples(kDraws, rng, sampler));
    }
    return out;
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << std::setw(16) << std::setfill('0')
        << value << "ULL";
    return out.str();
}

void
expectDigests(const Digests& got, const Digests& want,
              const std::string& what)
{
    EXPECT_EQ(got.tree, want.tree)
        << what << " tree walk: got " << hex(got.tree);
    EXPECT_EQ(got.batch, want.batch)
        << what << " default plan: got " << hex(got.batch);
    EXPECT_EQ(got.plain, want.plain)
        << what << " disabled plan: got " << hex(got.plain);
}

Uncertain<double>
finite(std::vector<double> values, std::vector<double> weights,
       const std::string& label)
{
    return fromFiniteSupport<double>(std::move(values),
                                     std::move(weights), label);
}

TEST(LoweringGolden, RandomFiniteGraphs)
{
    struct Case
    {
        std::uint64_t seed;
        Digests want;
    };
    const Case cases[] = {
        {1,
         {0x838a492c4f6340c5ULL, 0x8c840cbc34bf1420ULL,
          0x8c840cbc34bf1420ULL}},
        {7,
         {0x2d29b0de3dcb177dULL, 0x1f68a10f3f7e0db7ULL,
          0x1f68a10f3f7e0db7ULL}},
        {23,
         {0x8d147ff532773671ULL, 0x24666f1308343cd5ULL,
          0x24666f1308343cd5ULL}},
        {61,
         {0x3f8dd3b4988db8a5ULL, 0x36edde3767bd4725ULL,
          0x36edde3767bd4725ULL}},
        {101,
         {0x3a006f31f550b11dULL, 0x318178cfcb01dce5ULL,
          0x318178cfcb01dce5ULL}},
        {257,
         {0x0e7400f8628a2665ULL, 0xb15472e9c4a31215ULL,
          0xb15472e9c4a31215ULL}},
    };
    testing::GraphGenOptions options;
    options.distributionLeaves = false;
    for (const Case& c : cases) {
        auto graph = testing::randomFiniteGraph(c.seed, options);
        expectDigests(digestsOf(graph, c.seed), c.want,
                      "seed " + std::to_string(c.seed));
    }
}

TEST(LoweringGolden, EveryArity)
{
    auto x = finite({-2.0, 0.0, 1.0, 3.0}, {1.0, 2.0, 3.0, 2.0}, "x");
    auto y = finite({-1.0, 2.0, 5.0}, {4.0, 1.0, 3.0}, "y");
    auto z = finite({0.0, 1.0}, {1.0, 1.0}, "z");

    // Arity 1: a capturing map (scalar strip only), the jitable
    // negation, and a map out of a bool column.
    auto unary = x.map([](double v) { return v * 2.0 - 1.0; }) + (-y)
                 + (x < y).map([](bool b) { return b ? 3.0 : -1.0; });
    // Arity 2: arithmetic, min/max and point-mass operands on either
    // side (the broadcast-constant strips).
    auto binary = uncertain::min(x * y, 4.0 - z)
                  + uncertain::max(y - x, z + 1.0) * 2.0;
    // Arity 3: select with a shared condition and asymmetric branches.
    auto ternary = uncertain::select(x < y, z - x, y * z)
                   + uncertain::select(!(z < 0.5), x, 7.0 + y);

    expectDigests(digestsOf(unary, 11),
                  {0x0cfd39c30172a7a4ULL, 0xb2585d2d0d12058dULL,
                   0xb2585d2d0d12058dULL},
                  "arity 1");
    expectDigests(digestsOf(binary, 12),
                  {0xfada285cadc51791ULL, 0xd38e373de7aae238ULL,
                   0xd38e373de7aae238ULL},
                  "arity 2");
    expectDigests(digestsOf(ternary, 13),
                  {0xda99f1770315e328ULL, 0x0daa51fb15fdc2daULL,
                   0x0daa51fb15fdc2daULL},
                  "arity 3");
    expectDigests(digestsOf(unary + binary * ternary, 14),
                  {0x9fe7b6ae93936f2cULL, 0xc83bb4ed68f66f8aULL,
                   0xc83bb4ed68f66f8aULL},
                  "all arities");
}

TEST(LoweringGolden, IntegerAndBoolColumns)
{
    auto i = fromFiniteSupport<int>({-3, 0, 2, 5}, {1.0, 1.0, 2.0, 1.0},
                                    "i");
    auto j = fromFiniteSupport<int>({1, 4}, {3.0, 1.0}, "j");
    auto ints = uncertain::select(i < j, i * j, j - i) + 1;
    auto flags = (i < j) && !(j == 4);

    expectDigests(digestsOf(ints, 21),
                  {0xafed820ab9914f7fULL, 0x03f4df0040f34a74ULL,
                   0x03f4df0040f34a74ULL},
                  "int");
    // vector<bool> has no contiguous bytes: hash the samples as ints.
    auto asInt = flags.map([](bool b) { return b ? 1 : 0; });
    expectDigests(digestsOf(asInt, 22),
                  {0xbc9a69b2df2a93d4ULL, 0x14602951cca621c5ULL,
                   0x14602951cca621c5ULL},
                  "bool");
}

} // namespace
} // namespace core
} // namespace uncertain
