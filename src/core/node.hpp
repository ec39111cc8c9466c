/**
 * @file
 * Bayesian-network node graph underlying Uncertain<T>.
 *
 * Lifted operators do not compute values; they build a directed
 * acyclic graph whose leaves are known distributions (sampling
 * functions supplied by expert developers) and whose inner nodes are
 * the base-type operators (paper section 3.3). The graph is sampled
 * lazily at conditionals by ancestral sampling (section 4.2): a fresh
 * epoch is opened, and every node's value is memoized for the
 * duration of that epoch. The epoch memo is what makes shared
 * subexpressions statistically correct — both occurrences of X in
 * (Y + X) + X see the same draw, yielding the correct network of
 * Figure 8(b).
 *
 * The memo lives in the SampleContext, not in the node: nodes are
 * fully immutable after construction, so any number of contexts (and
 * therefore threads) may sample one shared graph concurrently, each
 * with its own private memo table. The batch engine of
 * core/batch.hpp relies on the same property when a BlockScheduler
 * runs its blocks on several threads.
 *
 * There is one kind of inner node, ApplyNode, for operators of any
 * arity: map (1), the lifted operators (2) and select (3). It samples
 * and lowers its operands strictly left to right.
 *
 * Besides the per-sample tree walk, every node knows how to lower
 * itself into the columnar batch plan of core/batch_plan.hpp
 * (Node::lowerInto): leaves become bulk-fill kernels over one Rng
 * stream per leaf, inner nodes become element-wise kernels over their
 * operand columns. Because operands are lowered in order, leaves get
 * their stream indices in the order a left-to-right depth-first walk
 * first reaches them.
 * The interning in BatchBuilder gives shared subexpressions a single
 * column, which is the batch engine's version of the epoch memo.
 *
 * A third lowering (Node::lowerExact) targets the enumeration backend
 * of src/exact: nodes become joint support tables, giving pr() and
 * pmf queries in closed form for finite-support graphs. Nodes without
 * an exact semantics (opaque sampler leaves, pools) refuse via
 * exact::Unsupported, which routes the question back to sampling.
 */

#ifndef UNCERTAIN_CORE_NODE_HPP
#define UNCERTAIN_CORE_NODE_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/batch_plan.hpp"
#include "exact/enumeration.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uncertain {
namespace core {

class GraphNode;

/**
 * One ancestral-sampling pass over a graph. Construct it once per
 * batch of draws; call newEpoch() before each root sample. Epoch
 * numbers are globally unique so memo entries never alias across
 * contexts.
 *
 * The context owns the per-epoch memo table (keyed by node identity),
 * so sampling mutates only the context — never the graph. One context
 * belongs to one thread at a time; concurrent sampling of a shared
 * graph is done by giving each thread its own context (see the
 * concurrency contract in docs/API.md).
 */
class SampleContext
{
  public:
    explicit SampleContext(Rng& rng) : rng_(&rng) { newEpoch(); }

    SampleContext(const SampleContext&) = delete;
    SampleContext& operator=(const SampleContext&) = delete;

    Rng& rng() { return *rng_; }
    std::uint64_t epoch() const { return epoch_; }

    /** Open a new epoch: invalidates every memoized draw. */
    void
    newEpoch()
    {
        epoch_ = nextEpoch_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * One memo entry: the epoch it was written in plus type-erased
     * storage for the node's value. The slot's payload is allocated
     * on first touch and reused (overwritten in place) on every
     * later epoch, so steady-state sampling does not allocate.
     */
    struct MemoSlot
    {
        std::uint64_t epoch = 0;
        void* value = nullptr;
        void (*destroy)(void*) = nullptr;

        MemoSlot() = default;
        MemoSlot(MemoSlot&& other) noexcept
            : epoch(other.epoch), value(other.value),
              destroy(other.destroy)
        {
            other.value = nullptr;
            other.destroy = nullptr;
        }
        MemoSlot(const MemoSlot&) = delete;
        MemoSlot& operator=(const MemoSlot&) = delete;
        MemoSlot& operator=(MemoSlot&&) = delete;
        ~MemoSlot()
        {
            if (value)
                destroy(value);
        }
    };

    /** The memo slot for @p node, created empty on first use. */
    MemoSlot& slotFor(const GraphNode* node) { return memo_[node]; }

  private:
    /** Pointer hash with SplitMix64-style finalization: allocator
     *  addresses are too regular for the identity hash. */
    struct NodeHash
    {
        std::size_t
        operator()(const GraphNode* node) const
        {
            auto z = reinterpret_cast<std::uintptr_t>(node) >> 4;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            return static_cast<std::size_t>(z ^ (z >> 31));
        }
    };

    static std::atomic<std::uint64_t> nextEpoch_;

    Rng* rng_;
    std::uint64_t epoch_ = 0;
    std::unordered_map<const GraphNode*, MemoSlot, NodeHash> memo_;
};

/**
 * Type-erased base for graph traversal (topology queries, DOT
 * export). The typed sampling interface lives in Node<T>.
 */
class GraphNode
{
  public:
    virtual ~GraphNode() = default;

    /** Operator or leaf label, e.g. "+", "leaf:Gaussian(0, 1)". */
    virtual std::string opName() const = 0;

    /** Child nodes (operands); empty for leaves. */
    virtual std::vector<std::shared_ptr<const GraphNode>>
    children() const
    {
        return {};
    }

    /** Number of nodes reachable from this one (including itself). */
    std::size_t graphSize() const;
};

/**
 * A random variable of type T in the network. sample() memoizes per
 * epoch in the SampleContext's memo table; subclasses implement
 * doSample(). Nodes are fully immutable after construction and are
 * shared via shared_ptr<const Node<T>>.
 *
 * Concurrency contract: because sampling writes only to the context,
 * one shared graph may be sampled from any number of threads
 * concurrently as long as each thread uses its own SampleContext and
 * Rng. A single context must not be shared across threads.
 */
template <typename T>
class Node : public GraphNode
{
  public:
    /** Draw this node's value for the current epoch of @p ctx. */
    T
    sample(SampleContext& ctx) const
    {
        // References into std::unordered_map are stable across the
        // inserts doSample()'s recursion may perform.
        auto& slot = ctx.slotFor(this);
        if (slot.epoch == ctx.epoch())
            return *static_cast<const T*>(slot.value);
        T value = doSample(ctx);
        if (slot.value == nullptr) {
            slot.value = new T(value);
            slot.destroy = [](void* p) { delete static_cast<T*>(p); };
        } else {
            *static_cast<T*>(slot.value) = value;
        }
        slot.epoch = ctx.epoch();
        return value;
    }

    /**
     * Lower this node (operands first) into @p builder's columnar
     * plan and return its column index. Idempotent per node: the
     * interning map turns the DAG into SSA, so shared subexpressions
     * get exactly one column.
     */
    std::size_t
    lowerInto(BatchBuilder& builder) const
    {
        const std::size_t found = builder.find(this);
        if (found != BatchBuilder::npos)
            return found;
        return doLower(builder);
    }

    /**
     * Lower this node (operands first) into @p builder's joint
     * support tables and return its entry index. Idempotent per node
     * like lowerInto, so shared subexpressions get exactly one entry
     * and stay perfectly correlated. Throws exact::Unsupported when
     * this node (or any descendant) has no exact semantics.
     */
    std::size_t
    lowerExact(exact::ExactBuilder& builder) const
    {
        const std::size_t found = builder.find(this);
        if (found != exact::ExactBuilder::npos)
            return found;
        return doLowerExact(builder);
    }

  protected:
    virtual T doSample(SampleContext& ctx) const = 0;

    /** Emit this node's column and kernel; operands via lowerInto. */
    virtual std::size_t doLower(BatchBuilder& builder) const = 0;

    /**
     * Emit this node's support table; operands via lowerExact. The
     * default refuses: only nodes with closed-form semantics
     * (finite-support leaves, point masses, lifted operators)
     * override it.
     */
    virtual std::size_t
    doLowerExact(exact::ExactBuilder& builder) const
    {
        (void)builder;
        exact::ExactBuilder::refuse("node '" + this->opName()
                                    + "' has no exact lowering");
    }
};

template <typename T>
using NodePtr = std::shared_ptr<const Node<T>>;

/**
 * Leaf: a known distribution, represented by a sampling function
 * (paper section 4.1). The callable receives the pass's Rng and
 * returns one draw.
 */
template <typename T>
class LeafNode final : public Node<T>
{
  public:
    /**
     * Optional bulk sampling function: fill @p n independent draws
     * from one generator in a single call. Purely a batch-engine fast
     * path — it must produce the same *law* as the scalar sampler,
     * not the same stream (random/distribution.hpp sampleMany).
     */
    using BulkSampler =
        std::function<void(Rng&, batch::Store<T>*, std::size_t)>;

    /**
     * @p support, when non-null, is the leaf's explicit finite
     * support table — the declaration that the sampler draws from
     * exactly that discrete law. It is what admits the leaf into the
     * exact enumeration backend; leaves without it refuse exact
     * lowering and the graph falls back to sampling.
     */
    LeafNode(std::function<T(Rng&)> sampler, std::string label,
             BulkSampler bulkSampler = nullptr,
             std::shared_ptr<const exact::FiniteSupport<T>> support =
                 nullptr)
        : sampler_(std::move(sampler)),
          bulkSampler_(std::move(bulkSampler)),
          support_(std::move(support)), label_(std::move(label))
    {
        UNCERTAIN_REQUIRE(sampler_ != nullptr,
                          "leaf requires a sampling function");
    }

    std::string opName() const override { return "leaf:" + label_; }

    /** The declared finite support, or null for opaque samplers. */
    const std::shared_ptr<const exact::FiniteSupport<T>>&
    finiteSupport() const
    {
        return support_;
    }

  protected:
    T doSample(SampleContext& ctx) const override
    {
        return sampler_(ctx.rng());
    }

    std::size_t
    doLower(BatchBuilder& builder) const override
    {
        const std::uint64_t stream = builder.nextLeafStream();
        const std::size_t col = builder.addColumn<T>(this);
        batch::StepInfo info;
        info.kind = batch::StepKind::Leaf;
        info.out = col;
        if (bulkSampler_) {
            info.run =
                [col, stream, bulk = bulkSampler_](BatchWorkspace& ws) {
                    Rng rng = ws.leafStream(stream);
                    bulk(rng, ws.template column<T>(col).data(), ws.length());
                };
        } else {
            info.run =
                [col, stream, sampler = sampler_](BatchWorkspace& ws) {
                    Rng rng = ws.leafStream(stream);
                    auto* out = ws.template column<T>(col).data();
                    const std::size_t n = ws.length();
                    for (std::size_t i = 0; i < n; ++i)
                        out[i] = static_cast<batch::Store<T>>(
                            sampler(rng));
                };
        }
        builder.addStep(std::move(info));
        return col;
    }

    std::size_t
    doLowerExact(exact::ExactBuilder& builder) const override
    {
        if (!support_) {
            exact::ExactBuilder::refuse(
                "leaf '" + label_ + "' has no finite support table");
        }
        return builder.addLeaf<T>(this, support_->values,
                                  support_->probabilities);
    }

  private:
    std::function<T(Rng&)> sampler_;
    BulkSampler bulkSampler_;
    std::shared_ptr<const exact::FiniteSupport<T>> support_;
    std::string label_;
};

/**
 * Point mass: the lifting of a plain T into the algebra (Table 1).
 * Sampling never consumes randomness.
 */
template <typename T>
class PointMassNode final : public Node<T>
{
  public:
    explicit PointMassNode(T value) : value_(std::move(value)) {}

    std::string opName() const override { return "pointmass"; }

    const T& value() const { return value_; }

  protected:
    T doSample(SampleContext&) const override { return value_; }

    std::size_t
    doLower(BatchBuilder& builder) const override
    {
        const std::size_t col = builder.addColumn<T>(this);
        builder.addStep(batch::makeConstStep<T>(col, value_));
        return col;
    }

    std::size_t
    doLowerExact(exact::ExactBuilder& builder) const override
    {
        return builder.addConst<T>(this, value_);
    }

  private:
    T value_;
};

/**
 * Inner node applying a base-type operator of any arity to its
 * operand variables: the lifted operators (arity 2), map (arity 1)
 * and select (arity 3) all construct it. The conditional
 * distribution Pr[this | operands] is the point mass at
 * f(operands...), exactly the paper's semantics for inner nodes.
 * Every operand is sampled on every pass — select() is a lifted
 * function of three variables, not short-circuit control flow.
 *
 * Operands are sampled and lowered strictly left to right, so the
 * tree walk's randomness stream and the batch plan's leaf stream
 * indices are pure functions of the graph and seed. Each pack
 * expansion below sits in a braced-init-list, which sequences its
 * elements in order; function-call arguments would not.
 */
template <typename R, typename F, typename... As>
class ApplyNode final : public Node<R>
{
    static_assert(sizeof...(As) >= 1, "an inner node needs operands");

  public:
    ApplyNode(F op, std::string label, NodePtr<As>... operands)
        : operands_(std::move(operands)...), op_(std::move(op)),
          label_(std::move(label))
    {
        UNCERTAIN_ASSERT(std::apply([](const auto&... operand) {
                             return (... && (operand != nullptr));
                         }, operands_),
                         "inner node requires operands");
    }

    std::string opName() const override { return label_; }

    std::vector<std::shared_ptr<const GraphNode>>
    children() const override
    {
        return std::apply([](const auto&... operand) {
            return std::vector<std::shared_ptr<const GraphNode>>{
                operand...};
        }, operands_);
    }

  protected:
    R doSample(SampleContext& ctx) const override
    {
        return std::apply([&](const auto&... operand) -> R {
            std::tuple<As...> values{operand->sample(ctx)...};
            return std::apply(op_, std::move(values));
        }, operands_);
    }

    std::size_t
    doLower(BatchBuilder& builder) const override
    {
        const auto operands = eachOperand([&](const auto& operand) {
            return operand.lowerInto(builder);
        });
        const std::size_t col = builder.addColumn<R>(this);
        builder.addStep(
            batch::makeElementwiseStep<R, As...>(col, operands, op_));
        return col;
    }

    std::size_t
    doLowerExact(exact::ExactBuilder& builder) const override
    {
        const auto operands = eachOperand([&](const auto& operand) {
            return operand.lowerExact(builder);
        });
        return builder.addApply<R, As...>(this, operands, op_);
    }

  private:
    /** @p visit applied to each operand node, left to right. */
    template <typename Visit>
    std::array<std::size_t, sizeof...(As)>
    eachOperand(Visit&& visit) const
    {
        return std::apply([&](const auto&... operand) {
            return std::array<std::size_t, sizeof...(As)>{
                visit(*operand)...};
        }, operands_);
    }

    std::tuple<NodePtr<As>...> operands_;
    F op_;
    std::string label_;
};

} // namespace core
} // namespace uncertain

#endif // UNCERTAIN_CORE_NODE_HPP
