/**
 * @file
 * Uncertain<T>: a first-order type for uncertain data.
 *
 * An Uncertain<T> encapsulates a random variable of base type T. The
 * overloaded operators in core/operators.hpp construct a Bayesian
 * network (see core/node.hpp); nothing is sampled until the program
 * asks a question: a conditional (pr(), the implicit boolean
 * conversion) or the evaluation operator E (expectedValue()).
 *
 * Conditionals evaluate *evidence*: `(speed > 4).pr(0.9)` asks
 * whether Pr[speed > 4] exceeds 0.9, executed as a sequential
 * hypothesis test that draws only as many samples as that particular
 * question needs (paper sections 3.4 and 4.3).
 */

#ifndef UNCERTAIN_CORE_UNCERTAIN_HPP
#define UNCERTAIN_CORE_UNCERTAIN_HPP

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/conditional.hpp"
#include "core/node.hpp"
#include "random/distribution.hpp"
#include "support/rng.hpp"

namespace uncertain {

template <typename T>
class Uncertain;

namespace core {

/** Trait/concept: is a type an instantiation of Uncertain? */
template <typename T>
struct IsUncertainType : std::false_type
{};

template <typename T>
struct IsUncertainType<Uncertain<T>> : std::true_type
{};

template <typename T>
concept AnUncertain = IsUncertainType<std::decay_t<T>>::value;

template <typename T>
concept NotUncertain = !AnUncertain<T>;

/** Types whose samples can be averaged by E. */
template <typename T>
concept Accumulable = requires(T a, T b, double d) {
    { a + b } -> std::convertible_to<T>;
    { a / d } -> std::convertible_to<T>;
};

namespace detail {

/**
 * Attempt to answer "Pr[cond] > threshold" in closed form through the
 * exact enumeration backend. Returns the finished ConditionalResult
 * (samplesUsed == 0) when the backend accepts the graph; nullopt when
 * routing is disabled or the graph is refused (continuous leaves,
 * opaque samplers, joint support beyond options.exactMaxStates), in
 * which case the caller runs its sequential test as before. The exact
 * decision has no indifference band and no error probability: it is
 * the statement the SPRT approximates.
 */
inline std::optional<ConditionalResult>
tryExactConditional(const NodePtr<bool>& node, double threshold,
                    const ConditionalOptions& options)
{
    if (options.exactRouting == ExactRouting::Never)
        return std::nullopt;
    UNCERTAIN_REQUIRE(threshold > 0.0 && threshold < 1.0,
                      "conditional threshold must be in (0, 1)");
    try {
        // One builder per thread, reset (capacity kept) per call:
        // conditional evaluation is the hot path and a cold builder
        // spends most of its time growing vectors.
        thread_local exact::ExactBuilder builder;
        builder.reset(exact::EnumerationLimits{options.exactMaxStates});
        const std::size_t root = node->lowerExact(builder);
        const double p = builder.eventProbability(root);
        ++evalStats().conditionals;
        const auto decision =
            p > threshold ? stats::TestDecision::AcceptAlternative
                          : stats::TestDecision::AcceptNull;
        return ConditionalResult{decision, p, 0};
    } catch (const exact::Unsupported&) {
        return std::nullopt;
    }
}

} // namespace detail
} // namespace core

/**
 * A random variable of type T, represented as a node in a lazily
 * sampled Bayesian network. Copying is cheap (shared graph). See the
 * file comment for the evaluation model.
 */
template <typename T>
class Uncertain
{
  public:
    using ValueType = T;

    /**
     * Lift a plain value to a point-mass distribution. Implicit on
     * purpose: it is what lets `speed > 4.0` and `distance / dt`
     * type-check, the coercion described in section 3.3.
     */
    Uncertain(T value)
        : node_(std::make_shared<core::PointMassNode<T>>(
              std::move(value)))
    {}

    /** Wrap an existing graph node. */
    explicit Uncertain(core::NodePtr<T> node) : node_(std::move(node))
    {
        UNCERTAIN_REQUIRE(node_ != nullptr,
                          "Uncertain requires a non-null node");
    }

    /**
     * Expert-developer entry point: define a distribution by its
     * sampling function (section 4.1). The callable must return an
     * independent draw on each invocation.
     */
    static Uncertain
    fromSampler(std::function<T(Rng&)> sampler,
                std::string label = "sampler")
    {
        return Uncertain(std::make_shared<core::LeafNode<T>>(
            std::move(sampler), std::move(label)));
    }

    /**
     * fromSampler with an additional bulk sampling function for the
     * columnar batch engine: bulk(rng, out, n) must fill out[0..n)
     * with independent draws from the same law as the scalar sampler
     * (it need not consume the stream identically — see
     * random::Distribution::sampleMany).
     */
    static Uncertain
    fromSampler(std::function<T(Rng&)> sampler,
                typename core::LeafNode<T>::BulkSampler bulk,
                std::string label = "sampler")
    {
        return Uncertain(std::make_shared<core::LeafNode<T>>(
            std::move(sampler), std::move(label), std::move(bulk)));
    }

    /** The underlying Bayesian-network node. */
    const core::NodePtr<T>& node() const { return node_; }

    /** Number of nodes in this variable's network. */
    std::size_t graphSize() const { return node_->graphSize(); }

    /** Draw one sample (a full ancestral pass) using @p rng. */
    T
    sample(Rng& rng) const
    {
        core::SampleContext ctx(rng);
        ++core::evalStats().rootSamples;
        return node_->sample(ctx);
    }

    /** Draw one sample using the thread's global generator. */
    T sample() const { return sample(globalRng()); }

    /** Draw @p n samples using @p rng. */
    std::vector<T>
    takeSamples(std::size_t n, Rng& rng) const
    {
        std::vector<T> out;
        out.reserve(n);
        core::SampleContext ctx(rng);
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0)
                ctx.newEpoch();
            out.push_back(node_->sample(ctx));
            ++core::evalStats().rootSamples;
        }
        return out;
    }

    /** Draw @p n samples using the thread's global generator. */
    std::vector<T>
    takeSamples(std::size_t n) const
    {
        return takeSamples(n, globalRng());
    }

    /**
     * Draw @p n samples with the columnar batch engine; a sampler
     * built over a BlockScheduler spreads the blocks across threads.
     * Output is bit-identical for any helper count (see
     * core/batch.hpp).
     */
    std::vector<T>
    takeSamples(std::size_t n, Rng& rng,
                core::BatchSampler& sampler) const
    {
        return sampler.takeSamples(node_, n, rng);
    }

    /**
     * Apply an arbitrary unary function, producing a new variable
     * whose network has this one as its operand.
     */
    template <typename F>
    auto
    map(F f, std::string label = "map") const
        -> Uncertain<std::decay_t<std::invoke_result_t<F, T>>>
    {
        using R = std::decay_t<std::invoke_result_t<F, T>>;
        return Uncertain<R>(std::make_shared<core::ApplyNode<R, F, T>>(
            std::move(f), std::move(label), node_));
    }

    // ------------------------------------------------------------------
    // Evaluation operator E (Table 1): projects back to the base type,
    // preserving its ordering properties (section 3.4).
    // ------------------------------------------------------------------

    /** Mean of @p n samples. */
    T
    expectedValue(std::size_t n, Rng& rng) const
        requires core::Accumulable<T> && (!std::same_as<T, bool>)
    {
        UNCERTAIN_REQUIRE(n >= 1, "expectedValue requires n >= 1");
        ++core::evalStats().expectations;
        core::SampleContext ctx(rng);
        T total = node_->sample(ctx);
        ++core::evalStats().rootSamples;
        for (std::size_t i = 1; i < n; ++i) {
            ctx.newEpoch();
            total = total + node_->sample(ctx);
            ++core::evalStats().rootSamples;
        }
        return total / static_cast<double>(n);
    }

    /** Mean of @p n samples using the global generator. */
    T
    expectedValue(std::size_t n = 1000) const
        requires core::Accumulable<T> && (!std::same_as<T, bool>)
    {
        return expectedValue(n, globalRng());
    }

    /** Mean of @p n samples drawn on the batch engine. */
    T
    expectedValue(std::size_t n, Rng& rng,
                  core::BatchSampler& sampler) const
        requires core::Accumulable<T> && (!std::same_as<T, bool>)
    {
        return sampler.expectedValue(node_, n, rng);
    }

    /** Paper-style shorthand for expectedValue(). */
    T
    E(std::size_t n = 1000) const
        requires core::Accumulable<T> && (!std::same_as<T, bool>)
    {
        return expectedValue(n);
    }

    /**
     * Adaptive expected value: sample until the confidence interval
     * of the mean converges (the paper's anticipated improvement on
     * fixed-size E; section 4.3). Only for scalar types.
     */
    stats::AdaptiveMeanResult
    expectedValueAdaptive(const stats::AdaptiveMeanOptions& options,
                          Rng& rng) const
        requires std::convertible_to<T, double>
                     && (!std::same_as<T, bool>)
    {
        ++core::evalStats().expectations;
        core::SampleContext ctx(rng);
        bool first = true;
        return stats::adaptiveMean(
            [&]() {
                if (!first)
                    ctx.newEpoch();
                first = false;
                ++core::evalStats().rootSamples;
                return static_cast<double>(node_->sample(ctx));
            },
            options);
    }

    /** Adaptive expected value with the global generator. */
    stats::AdaptiveMeanResult
    expectedValueAdaptive(
        const stats::AdaptiveMeanOptions& options = {}) const
        requires std::convertible_to<T, double>
                     && (!std::same_as<T, bool>)
    {
        return expectedValueAdaptive(options, globalRng());
    }

    // ------------------------------------------------------------------
    // Conditional operators (Uncertain<bool> only).
    // ------------------------------------------------------------------

    /**
     * Full ternary evaluation of "Pr[this] > threshold" under the
     * configured sequential test; exposes decision, estimate, and
     * sampling cost.
     */
    core::ConditionalResult
    evaluate(double threshold, const core::ConditionalOptions& options,
             Rng& rng) const
        requires std::same_as<T, bool>
    {
        if (auto closed = core::detail::tryExactConditional(
                node_, threshold, options))
            return *closed;
        // Chunks of one draw: the test sees each observation as it
        // is drawn, so the walk never draws past the decision.
        core::SampleContext ctx(rng);
        return core::evaluateCondition(
            [&](std::size_t offset, std::size_t count,
                std::uint8_t* out) {
                for (std::size_t i = 0; i < count; ++i) {
                    if (offset + i > 0)
                        ctx.newEpoch();
                    out[i] = node_->sample(ctx) ? 1 : 0;
                }
            },
            threshold, options, 1);
    }

    /**
     * Explicit conditional operator (Table 1): is there significant
     * evidence that Pr[this] > threshold? Inconclusive evaluations
     * return false, which is what makes if/else-if chains fall
     * through to their default under the ternary logic of
     * section 3.4.
     */
    bool
    pr(double threshold = 0.5,
       const core::ConditionalOptions& options = {}) const
        requires std::same_as<T, bool>
    {
        return pr(threshold, options, globalRng());
    }

    /** pr() with an explicit generator. */
    bool
    pr(double threshold, const core::ConditionalOptions& options,
       Rng& rng) const
        requires std::same_as<T, bool>
    {
        return evaluate(threshold, options, rng).toBool();
    }

    /**
     * Conditional evaluation with batched evidence columns on the
     * columnar engine (see core/batch.hpp). The evidence stream does
     * not depend on the sampler's helper count.
     */
    core::ConditionalResult
    evaluate(double threshold, const core::ConditionalOptions& options,
             Rng& rng, core::BatchSampler& sampler) const
        requires std::same_as<T, bool>
    {
        if (auto closed = core::detail::tryExactConditional(
                node_, threshold, options))
            return *closed;
        return sampler.evaluateCondition(node_, threshold, options,
                                         rng);
    }

    /** pr() with batched evidence columns. */
    bool
    pr(double threshold, const core::ConditionalOptions& options,
       Rng& rng, core::BatchSampler& sampler) const
        requires std::same_as<T, bool>
    {
        return evaluate(threshold, options, rng, sampler).toBool();
    }

    /**
     * Implicit conditional operator: "more likely than not", i.e.
     * Pr[this] > 0.5. `explicit` still permits direct use in if/
     * while/&&/|| via contextual conversion, matching the paper's
     * `if (Speed > 4)`.
     */
    explicit
    operator bool() const
        requires std::same_as<T, bool>
    {
        return pr(0.5);
    }

    /**
     * Point estimate of Pr[this] from @p n samples (no hypothesis
     * test; mostly for inspection and harness output).
     */
    double
    probability(std::size_t n, Rng& rng) const
        requires std::same_as<T, bool>
    {
        UNCERTAIN_REQUIRE(n >= 1, "probability requires n >= 1");
        core::SampleContext ctx(rng);
        std::size_t hits = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0)
                ctx.newEpoch();
            hits += node_->sample(ctx) ? 1 : 0;
            ++core::evalStats().rootSamples;
        }
        return static_cast<double>(hits) / static_cast<double>(n);
    }

    /** probability() with the global generator. */
    double
    probability(std::size_t n = 1000) const
        requires std::same_as<T, bool>
    {
        return probability(n, globalRng());
    }

    /** Point estimate of Pr[this] from @p n batched samples. */
    double
    probability(std::size_t n, Rng& rng,
                core::BatchSampler& sampler) const
        requires std::same_as<T, bool>
    {
        return sampler.probability(node_, n, rng);
    }

  private:
    core::NodePtr<T> node_;
};

namespace core {

/**
 * Wrap a src/random distribution object as an Uncertain<double> leaf.
 * The distribution is shared, not copied. The leaf carries both the
 * scalar sampler and the distribution's bulk sampleMany, so the batch
 * engine fills its column with the amortized form; discrete
 * distributions (Distribution::finiteSupport) additionally carry
 * their support table, admitting the graph into the exact
 * enumeration backend.
 */
inline Uncertain<double>
fromDistribution(random::DistributionPtr dist)
{
    UNCERTAIN_REQUIRE(dist != nullptr,
                      "fromDistribution requires a distribution");
    std::string label = dist->name();
    std::shared_ptr<const exact::FiniteSupport<double>> support;
    {
        std::vector<double> values;
        std::vector<double> probabilities;
        if (dist->finiteSupport(values, probabilities)) {
            support = std::make_shared<exact::FiniteSupport<double>>(
                exact::FiniteSupport<double>{std::move(values),
                                             std::move(probabilities)});
        }
    }
    auto scalar = [dist](Rng& rng) { return dist->sample(rng); };
    auto bulk = [dist = std::move(dist)](Rng& rng, double* out,
                                         std::size_t n) {
        dist->sampleMany(rng, out, n);
    };
    return Uncertain<double>(std::make_shared<LeafNode<double>>(
        std::move(scalar), std::move(label), std::move(bulk),
        std::move(support)));
}

/**
 * Leaf with an explicit finite support: one draw picks values[i] with
 * probability weights[i] / sum(weights). Zero-weight values are
 * dropped. This is the first-class citizen of the exact enumeration
 * backend (src/exact): graphs built from such leaves answer pr(),
 * pmf, and expectation queries in closed form, and conditionals on
 * them short-circuit the SPRT loop entirely.
 */
template <typename T>
Uncertain<T>
fromFiniteSupport(std::vector<T> values, std::vector<double> weights,
                  std::string label = "finite")
{
    UNCERTAIN_REQUIRE(!values.empty()
                          && values.size() == weights.size(),
                      "fromFiniteSupport requires parallel non-empty "
                      "value/weight arrays");
    double total = 0.0;
    for (double w : weights) {
        UNCERTAIN_REQUIRE(std::isfinite(w) && w >= 0.0,
                          "fromFiniteSupport weights must be finite "
                          "and non-negative");
        total += w;
    }
    UNCERTAIN_REQUIRE(total > 0.0,
                      "fromFiniteSupport requires positive total "
                      "weight");

    auto support = std::make_shared<exact::FiniteSupport<T>>();
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (weights[i] > 0.0) {
            support->values.push_back(values[i]);
            support->probabilities.push_back(weights[i] / total);
        }
    }

    // Inverse-CDF sampling over the cumulative table. The last entry
    // is pinned to 1 so a uniform draw of ~1.0 cannot fall off the
    // end through rounding.
    auto cumulative = std::make_shared<std::vector<double>>();
    cumulative->reserve(support->probabilities.size());
    double acc = 0.0;
    for (double p : support->probabilities)
        cumulative->push_back(acc += p);
    cumulative->back() = 1.0;
    auto supportValues =
        std::make_shared<const std::vector<T>>(support->values);

    auto pick = [supportValues, cumulative](Rng& rng) -> T {
        const double u = rng.nextDouble();
        const auto it = std::upper_bound(cumulative->begin(),
                                         cumulative->end(), u);
        const auto i = std::min<std::size_t>(
            static_cast<std::size_t>(it - cumulative->begin()),
            supportValues->size() - 1);
        return (*supportValues)[i];
    };
    typename LeafNode<T>::BulkSampler bulk =
        [supportValues, cumulative](Rng& rng, batch::Store<T>* out,
                                    std::size_t n) {
            for (std::size_t j = 0; j < n; ++j) {
                const double u = rng.nextDouble();
                const auto it = std::upper_bound(cumulative->begin(),
                                                 cumulative->end(), u);
                const auto i = std::min<std::size_t>(
                    static_cast<std::size_t>(it
                                             - cumulative->begin()),
                    supportValues->size() - 1);
                out[j] = static_cast<batch::Store<T>>(
                    (*supportValues)[i]);
            }
        };
    return Uncertain<T>(std::make_shared<LeafNode<T>>(
        std::move(pick), std::move(label), std::move(bulk),
        std::move(support)));
}

/**
 * A Bernoulli(p) event as an exact-capable Uncertain<bool>:
 * `bernoulliEvent(0.9).pr(0.5)` answers without drawing a sample.
 */
inline Uncertain<bool>
bernoulliEvent(double p, std::string label = "")
{
    UNCERTAIN_REQUIRE(p >= 0.0 && p <= 1.0,
                      "bernoulliEvent requires p in [0, 1]");
    if (label.empty())
        label = "Bernoulli(" + std::to_string(p) + ")";
    return fromFiniteSupport<bool>({false, true}, {1.0 - p, p},
                                   std::move(label));
}

/**
 * Leaf over a fixed sample pool: one draw = one uniform pick from the
 * pool. This is the representation of resampled SIR posteriors
 * (inference/reweight.hpp) and of Parakeet's posterior-predictive
 * pool (section 5.3) — a first-class batch citizen: the leaf carries
 * a bulk sampler that fills whole columns with uniform picks, so
 * downstream graphs over the posterior compile to columnar plans
 * instead of degrading to per-element scalar calls. The pool is
 * shared, not copied.
 */
template <typename T>
Uncertain<T>
fromPool(std::shared_ptr<const std::vector<T>> pool, std::string label)
{
    UNCERTAIN_REQUIRE(pool != nullptr && !pool->empty(),
                      "fromPool requires a non-empty pool");
    auto scalar = [pool](Rng& rng) {
        return (*pool)[static_cast<std::size_t>(
            rng.nextBelow(pool->size()))];
    };
    auto bulk = [pool](Rng& rng, batch::Store<T>* out, std::size_t n) {
        const std::uint64_t size = pool->size();
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = static_cast<batch::Store<T>>(
                (*pool)[static_cast<std::size_t>(
                    rng.nextBelow(size))]);
        }
    };
    return Uncertain<T>::fromSampler(std::move(scalar),
                                     std::move(bulk),
                                     std::move(label));
}

/**
 * Expert override for dependent leaves (section 3.3): supply a joint
 * sampling function and receive the two marginals as Uncertain
 * values that share one underlying draw per sampling pass. Any
 * computation combining them sees the joint distribution, not the
 * product of marginals.
 */
template <typename A, typename B>
std::pair<Uncertain<A>, Uncertain<B>>
makeCorrelated(std::function<std::pair<A, B>(Rng&)> jointSampler,
               std::string label = "joint")
{
    auto joint = std::make_shared<core::LeafNode<std::pair<A, B>>>(
        std::move(jointSampler), std::move(label));

    auto takeFirst = [](const std::pair<A, B>& p) { return p.first; };
    auto takeSecond = [](const std::pair<A, B>& p) { return p.second; };

    using Joint = std::pair<A, B>;
    Uncertain<A> first(
        std::make_shared<core::ApplyNode<A, decltype(takeFirst), Joint>>(
            takeFirst, "first", joint));
    Uncertain<B> second(
        std::make_shared<core::ApplyNode<B, decltype(takeSecond), Joint>>(
            takeSecond, "second", joint));
    return {std::move(first), std::move(second)};
}

} // namespace core
} // namespace uncertain

#endif // UNCERTAIN_CORE_UNCERTAIN_HPP
