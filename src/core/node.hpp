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
 * Besides the per-sample tree walk, every node knows how to lower
 * itself into the columnar batch plan of core/batch_plan.hpp
 * (Node::lowerInto): leaves become bulk-fill kernels over one Rng
 * stream per leaf, inner nodes become element-wise kernels over their
 * operand columns. The interning in BatchBuilder gives shared
 * subexpressions a single column, which is the batch engine's version
 * of the epoch memo.
 *
 * A third lowering (Node::lowerExact) targets the enumeration backend
 * of src/exact: nodes become joint support tables, giving pr() and
 * pmf queries in closed form for finite-support graphs. Nodes without
 * an exact semantics (opaque sampler leaves, pools) refuse via
 * exact::Unsupported, which routes the question back to sampling.
 */

#ifndef UNCERTAIN_CORE_NODE_HPP
#define UNCERTAIN_CORE_NODE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
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

    /**
     * Point this context at a different generator. Used by the batch
     * engines to give each sample index its own split() stream while
     * reusing one memo table for the whole chunk.
     */
    void rebindRng(Rng& rng) { rng_ = &rng; }

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

    /** Pre-size the memo table for a graph of @p nodes nodes. */
    void reserve(std::size_t nodes) { memo_.reserve(nodes); }

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
 * Inner node applying a binary base-type operator to two operand
 * variables. The conditional distribution Pr[this | a, b] is the
 * point mass at f(a, b), exactly the paper's semantics for inner
 * nodes.
 */
template <typename R, typename A, typename B, typename F>
class BinaryNode final : public Node<R>
{
  public:
    BinaryNode(NodePtr<A> lhs, NodePtr<B> rhs, F op, std::string label)
        : lhs_(std::move(lhs)), rhs_(std::move(rhs)), op_(std::move(op)),
          label_(std::move(label))
    {
        UNCERTAIN_ASSERT(lhs_ && rhs_, "binary node requires operands");
    }

    std::string opName() const override { return label_; }

    std::vector<std::shared_ptr<const GraphNode>>
    children() const override
    {
        return {lhs_, rhs_};
    }

  protected:
    R doSample(SampleContext& ctx) const override
    {
        // Operand order is fixed so the randomness stream is
        // deterministic for a given graph and seed.
        A a = lhs_->sample(ctx);
        B b = rhs_->sample(ctx);
        return op_(a, b);
    }

    std::size_t
    doLower(BatchBuilder& builder) const override
    {
        // Operands first (same fixed order as doSample), so leaf
        // stream indices are a pure function of the graph shape.
        const std::size_t lhs = lhs_->lowerInto(builder);
        const std::size_t rhs = rhs_->lowerInto(builder);
        const std::size_t col = builder.addColumn<R>(this);
        builder.addStep(batch::makeBinaryStep<R, A, B>(col, lhs, rhs, op_));
        return col;
    }

    std::size_t
    doLowerExact(exact::ExactBuilder& builder) const override
    {
        const std::size_t lhs = lhs_->lowerExact(builder);
        const std::size_t rhs = rhs_->lowerExact(builder);
        return builder.addBinary<R, A, B>(this, lhs, rhs, op_);
    }

  private:
    NodePtr<A> lhs_;
    NodePtr<B> rhs_;
    F op_;
    std::string label_;
};

/** Inner node applying a unary base-type operator. */
template <typename R, typename A, typename F>
class UnaryNode final : public Node<R>
{
  public:
    UnaryNode(NodePtr<A> operand, F op, std::string label)
        : operand_(std::move(operand)), op_(std::move(op)),
          label_(std::move(label))
    {
        UNCERTAIN_ASSERT(operand_ != nullptr,
                         "unary node requires an operand");
    }

    std::string opName() const override { return label_; }

    std::vector<std::shared_ptr<const GraphNode>>
    children() const override
    {
        return {operand_};
    }

  protected:
    R doSample(SampleContext& ctx) const override
    {
        return op_(operand_->sample(ctx));
    }

    std::size_t
    doLower(BatchBuilder& builder) const override
    {
        const std::size_t operand = operand_->lowerInto(builder);
        const std::size_t col = builder.addColumn<R>(this);
        builder.addStep(batch::makeUnaryStep<R, A>(col, operand, op_));
        return col;
    }

    std::size_t
    doLowerExact(exact::ExactBuilder& builder) const override
    {
        const std::size_t operand = operand_->lowerExact(builder);
        return builder.addUnary<R, A>(this, operand, op_);
    }

  private:
    NodePtr<A> operand_;
    F op_;
    std::string label_;
};

/**
 * Inner node applying a ternary base-type operator. Introduced for
 * lifted selection (uncertain::select) so per-sample branching is a
 * single node — one shared draw of the condition per pass — instead
 * of an opaque sampler.
 */
template <typename R, typename A, typename B, typename C, typename F>
class TernaryNode final : public Node<R>
{
  public:
    TernaryNode(NodePtr<A> first, NodePtr<B> second, NodePtr<C> third,
                F op, std::string label)
        : first_(std::move(first)), second_(std::move(second)),
          third_(std::move(third)), op_(std::move(op)),
          label_(std::move(label))
    {
        UNCERTAIN_ASSERT(first_ && second_ && third_,
                         "ternary node requires operands");
    }

    std::string opName() const override { return label_; }

    std::vector<std::shared_ptr<const GraphNode>>
    children() const override
    {
        return {first_, second_, third_};
    }

  protected:
    R doSample(SampleContext& ctx) const override
    {
        // Fixed operand order, as in BinaryNode: the randomness
        // stream is deterministic for a given graph and seed. All
        // three operands are sampled — select() is a lifted function
        // of three variables, not short-circuit control flow.
        A a = first_->sample(ctx);
        B b = second_->sample(ctx);
        C c = third_->sample(ctx);
        return op_(a, b, c);
    }

    std::size_t
    doLower(BatchBuilder& builder) const override
    {
        const std::size_t first = first_->lowerInto(builder);
        const std::size_t second = second_->lowerInto(builder);
        const std::size_t third = third_->lowerInto(builder);
        const std::size_t col = builder.addColumn<R>(this);
        builder.addStep(batch::makeTernaryStep<R, A, B, C>(
            col, first, second, third, op_));
        return col;
    }

    std::size_t
    doLowerExact(exact::ExactBuilder& builder) const override
    {
        const std::size_t first = first_->lowerExact(builder);
        const std::size_t second = second_->lowerExact(builder);
        const std::size_t third = third_->lowerExact(builder);
        return builder.addTernary<R, A, B, C>(this, first, second,
                                              third, op_);
    }

  private:
    NodePtr<A> first_;
    NodePtr<B> second_;
    NodePtr<C> third_;
    F op_;
    std::string label_;
};

} // namespace core
} // namespace uncertain

#endif // UNCERTAIN_CORE_NODE_HPP
