/**
 * @file
 * Operand order of lifted operators, per arity.
 *
 * The tree walk samples an inner node's operands left to right, and
 * lowering visits them in the same order, so leaf stream indices (the
 * topological discovery order of core/batch_plan.hpp) are a pure
 * function of the graph. A flipped order swaps independent draws and
 * keeps every law, so no distribution test can see it; these tests
 * look at the order itself.
 *
 * Recording leaves are fromSampler leaves that log each call and the
 * first word their generator would produce. In the batch engine that
 * word identifies the leaf's stream: block 0 of a query seeded with
 * `rng` hands leaf stream L the generator `rng.split(0).split(L)`.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "exact/exact.hpp"
#include "test_util.hpp"

namespace uncertain {
namespace core {
namespace {

struct Recorder
{
    std::vector<int> calls;                  //!< leaf id per call
    std::map<int, std::uint64_t> firstWord;  //!< leaf id -> stream tag
};

/** A leaf with value @p id that logs its calls into @p rec. */
Uncertain<double>
recordingLeaf(const std::shared_ptr<Recorder>& rec, int id)
{
    return Uncertain<double>::fromSampler(
        [rec, id](Rng& rng) {
            rec->calls.push_back(id);
            if (rec->firstWord.count(id) == 0) {
                Rng probe = rng;
                rec->firstWord[id] = probe.nextU64();
            }
            return static_cast<double>(id);
        },
        "rec" + std::to_string(id));
}

/** Leaf ids in the order of their batch-engine stream indices. */
std::vector<int>
idsByStream(const Recorder& rec, const Rng& base, std::size_t streams)
{
    std::vector<int> ids;
    for (std::size_t stream = 0; stream < streams; ++stream) {
        Rng probe = base.split(0).split(stream);
        const std::uint64_t word = probe.nextU64();
        for (const auto& [id, first] : rec.firstWord) {
            if (first == word)
                ids.push_back(id);
        }
    }
    return ids;
}

struct Arities
{
    std::shared_ptr<Recorder> rec = std::make_shared<Recorder>();
    Uncertain<double> a = recordingLeaf(rec, 1);
    Uncertain<double> b = recordingLeaf(rec, 2);
    Uncertain<double> c = recordingLeaf(rec, 3);

    // Positional encodings: a flipped argument order changes the value.
    Uncertain<double> unary =
        a.map([](double x) { return 10.0 * x + 7.0; });
    Uncertain<double> binary = liftBinary(
        [](double x, double y) { return 10.0 * x + y; }, a, b);
    Uncertain<double> ternary = liftTernary(
        [](double x, double y, double z) {
            return 100.0 * x + 10.0 * y + z;
        },
        a, b, c);
};

TEST(OperandOrder, TreeWalkSamplesOperandsLeftToRight)
{
    Rng rng = testing::testRng(901);
    {
        Arities g;
        EXPECT_EQ(g.unary.sample(rng), 17.0);
        EXPECT_EQ(g.rec->calls, (std::vector<int>{1}));
    }
    {
        Arities g;
        EXPECT_EQ(g.binary.sample(rng), 12.0);
        EXPECT_EQ(g.rec->calls, (std::vector<int>{1, 2}));
    }
    {
        Arities g;
        EXPECT_EQ(g.ternary.sample(rng), 123.0);
        EXPECT_EQ(g.rec->calls, (std::vector<int>{1, 2, 3}));
    }
    {
        // Reversed operand positions reverse the sampling order.
        Arities g;
        auto reversed = liftTernary(
            [](double x, double y, double z) {
                return 100.0 * x + 10.0 * y + z;
            },
            g.c, g.b.map([](double y) { return y; }), g.a);
        EXPECT_EQ(reversed.sample(rng), 321.0);
        EXPECT_EQ(g.rec->calls, (std::vector<int>{3, 2, 1}));
    }
}

TEST(OperandOrder, LoweringAssignsStreamsLeftToRight)
{
    for (const PlanOptions& optimizer :
         {PlanOptions{}, PlanOptions::disabled()}) {
        {
            Arities g;
            Rng rng = testing::testRng(902);
            const Rng base = rng;
            BatchSampler sampler(BatchOptions{1, optimizer});
            EXPECT_EQ(g.unary.takeSamples(1, rng, sampler),
                      (std::vector<double>{17.0}));
            EXPECT_EQ(idsByStream(*g.rec, base, 1),
                      (std::vector<int>{1}));
        }
        {
            Arities g;
            Rng rng = testing::testRng(903);
            const Rng base = rng;
            BatchSampler sampler(BatchOptions{1, optimizer});
            EXPECT_EQ(g.binary.takeSamples(1, rng, sampler),
                      (std::vector<double>{12.0}));
            EXPECT_EQ(idsByStream(*g.rec, base, 2),
                      (std::vector<int>{1, 2}));
        }
        {
            Arities g;
            Rng rng = testing::testRng(904);
            const Rng base = rng;
            BatchSampler sampler(BatchOptions{1, optimizer});
            EXPECT_EQ(g.ternary.takeSamples(1, rng, sampler),
                      (std::vector<double>{123.0}));
            EXPECT_EQ(idsByStream(*g.rec, base, 3),
                      (std::vector<int>{1, 2, 3}));
        }
    }
}

TEST(OperandOrder, ExactPmfOfAsymmetricSelect)
{
    // c is true with 1/4; a is 1 or 2; b is 10 or 20 (each 1/2).
    auto c = fromFiniteSupport<bool>({false, true}, {3.0, 1.0}, "c");
    auto a = fromFiniteSupport<double>({1.0, 2.0}, {1.0, 1.0}, "a");
    auto b = fromFiniteSupport<double>({10.0, 20.0}, {1.0, 1.0}, "b");
    // a on the true branch (1/8 each value); b - a on the false
    // branch (3/16 each of 9, 8, 19, 18). Any operand swap moves mass
    // to values outside this support.
    auto pmf = exact::pmf(uncertain::select(c, a, b - a));
    const std::vector<std::pair<double, double>> want = {
        {1.0, 0.125},   {2.0, 0.125},   {8.0, 0.1875},
        {9.0, 0.1875},  {18.0, 0.1875}, {19.0, 0.1875},
    };
    ASSERT_EQ(pmf.entries.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(pmf.entries[i].first, want[i].first) << i;
        EXPECT_DOUBLE_EQ(pmf.entries[i].second, want[i].second) << i;
    }
}

} // namespace
} // namespace core
} // namespace uncertain
