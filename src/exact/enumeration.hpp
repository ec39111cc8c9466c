/**
 * @file
 * Exact enumeration backend: support tables and the joint-enumeration
 * builder the node graph lowers into.
 *
 * The stochastic engines approximate pr()/E by sampling; for graphs
 * whose leaves all have *finite support* (Bernoulli, discrete,
 * point-mass) every question they answer has a closed form. This
 * module computes it. A graph is lowered bottom-up into entries, one
 * per node (interned by identity, exactly like the batch plan's SSA
 * form): each entry records the sorted set of stochastic leaves it
 * depends on and a dense table mapping every *joint assignment* of
 * those leaves to the node's value under that assignment. Because the
 * table is indexed by leaf assignments — not by the node's own value
 * distribution — shared subexpressions stay perfectly correlated:
 * both occurrences of X in (Y + X) + X read the same leaf digit, so
 * the Figure 8(b) semantics that the sampling engines realize with
 * epoch memos hold here by construction, exactly.
 *
 * Tables are combined with a mixed-radix odometer over the union of
 * the operands' leaf sets; a leaf absent from an operand simply gets
 * stride 0 into that operand's table (marginalization is implicit —
 * its probabilities sum to one). Queries then walk a root entry's
 * joint states once, weighting each by the product of its leaf
 * probabilities, to produce event probabilities, full pmfs, moments,
 * and discrete conditionals.
 *
 * The builder *refuses* — throws exact::Unsupported — graphs it
 * cannot enumerate: any leaf without a finite-support table
 * (continuous distributions, opaque sampling functions, pools) or any
 * node whose joint state count exceeds EnumerationLimits. Refusal is
 * cheap (the first offending leaf throws) and is how the conditional
 * router in core/uncertain.hpp decides between the closed form and
 * the SPRT loop.
 */

#ifndef UNCERTAIN_EXACT_ENUMERATION_HPP
#define UNCERTAIN_EXACT_ENUMERATION_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <typeindex>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace uncertain {
namespace exact {

/**
 * Thrown when a graph cannot be enumerated exactly: a leaf lacks a
 * finite support table, or the joint state count exceeds the bound.
 * Derives from uncertain::Error, but callers that route between the
 * exact and sampling paths catch this type specifically — any other
 * Error is a real user mistake and must propagate.
 */
class Unsupported : public Error
{
  public:
    explicit Unsupported(const std::string& reason)
        : Error("exact backend: " + reason), reason_(reason)
    {}

    /** Why the graph was refused, without the "exact backend" prefix. */
    const std::string& reason() const { return reason_; }

  private:
    std::string reason_;
};

/** Configurable bounds on the enumeration. */
struct EnumerationLimits
{
    /**
     * Maximum number of joint assignments any single entry may span
     * (the product of its leaves' support sizes). Graphs exceeding it
     * are refused, not truncated.
     */
    std::size_t maxJointStates = std::size_t{1} << 20;
};

/**
 * Explicit finite support of a leaf: parallel (value, probability)
 * arrays. Probabilities are normalized by the factories that build
 * these (core::fromFiniteSupport, random::Distribution::finiteSupport).
 */
template <typename T>
struct FiniteSupport
{
    std::vector<T> values;
    std::vector<double> probabilities;
};

namespace detail {

/** Kahan-compensated accumulator for probability masses. */
class KahanSum
{
  public:
    void
    add(double x)
    {
        const double y = x - compensation_;
        const double t = sum_ + y;
        compensation_ = (t - sum_) - y;
        sum_ = t;
    }

    double value() const { return sum_; }

  private:
    double sum_ = 0.0;
    double compensation_ = 0.0;
};

} // namespace detail

/**
 * Accumulates support tables during exact lowering. Mirrors
 * core::BatchBuilder's shape: nodes are interned by identity via
 * find()/npos so a shared subexpression is lowered exactly once, and
 * Node<T>::lowerExact drives the recursion. Keys are const void*
 * (node addresses) so this header has no dependency on the node
 * classes.
 */
class ExactBuilder
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    explicit ExactBuilder(EnumerationLimits limits = {})
        : limits_(limits)
    {}

    /**
     * Drop all lowered state but keep buffer capacity, so a builder
     * can be reused across conditional evaluations without paying the
     * vector growth of a fresh instance each call. Takes the limits
     * for the next lowering since the router threads them per call.
     */
    void
    reset(EnumerationLimits limits)
    {
        limits_ = limits;
        leaves_.clear();
        entries_.clear();
        interned_.clear();
    }

    /** Entry already lowered for @p node, or npos. */
    std::size_t
    find(const void* node) const
    {
        // Flat association list: lowered graphs are tens of nodes,
        // where a linear scan beats hashing and costs no allocation
        // on the conditional fast path.
        for (const auto& [key, index] : interned_) {
            if (key == node)
                return index;
        }
        return npos;
    }

    /** Refuse the graph: throws Unsupported with @p reason. */
    [[noreturn]] static void
    refuse(const std::string& reason)
    {
        throw Unsupported(reason);
    }

    /**
     * Lower a stochastic leaf with explicit finite support. Each call
     * introduces one enumeration dimension; the entry's table is the
     * identity map digit -> value.
     *
     * The builder *borrows* both arrays — they are the leaf node's
     * own support storage and must outlive the builder (every query
     * lowers and reads while the graph is alive), which keeps the
     * conditional fast path free of per-leaf copies.
     */
    template <typename T>
    std::size_t
    addLeaf(const void* node, const std::vector<T>& values,
            const std::vector<double>& probabilities)
    {
        UNCERTAIN_REQUIRE(!values.empty()
                              && values.size() == probabilities.size(),
                          "finite support requires parallel non-empty "
                          "value/probability arrays");
        if (values.size() > limits_.maxJointStates) {
            refuse("leaf support of " + std::to_string(values.size())
                   + " values exceeds the enumeration bound of "
                   + std::to_string(limits_.maxJointStates)
                   + " joint states");
        }
        const auto leafId = static_cast<std::uint32_t>(leaves_.size());
        leaves_.push_back(Leaf{&probabilities});
        Entry entry;
        entry.leaves = {leafId};
        entry.states = values.size();
        entry.type = std::type_index(typeid(T));
        entry.table = std::shared_ptr<const void>(
            std::shared_ptr<const void>{}, &values);
        return intern(node, std::move(entry));
    }

    /** Lower a point mass: one state, no leaves. */
    template <typename T>
    std::size_t
    addConst(const void* node, const T& value)
    {
        Entry entry;
        entry.states = 1;
        entry.type = std::type_index(typeid(T));
        entry.table =
            std::make_shared<std::vector<T>>(std::vector<T>{value});
        return intern(node, std::move(entry));
    }

    /** Lower R = op(As...) over operand entries, one per argument. */
    template <typename R, typename... As, typename F>
    std::size_t
    addApply(const void* node,
             const std::array<std::size_t, sizeof...(As)>& operands,
             const F& op)
    {
        return [&]<std::size_t... I>(std::index_sequence<I...>) {
            const std::tuple<const std::vector<As>&...> tables{
                table<As>(operands[I])...};
            return emit<R>(node, operands,
                           [&](const std::size_t* idx) -> R {
                               return static_cast<R>(op(static_cast<As>(
                                   std::get<I>(tables)[idx[I]])...));
                           });
        }(std::index_sequence_for<As...>{});
    }

    /** Number of distinct stochastic leaves lowered so far. */
    std::size_t leafCount() const { return leaves_.size(); }

    /** Joint states spanned by @p entry's table. */
    std::size_t
    states(std::size_t entry) const
    {
        return entries_.at(entry).states;
    }

    /**
     * Pr[entry == true] for a boolean entry: one weighted walk over
     * its joint states.
     */
    double
    eventProbability(std::size_t entry) const
    {
        const Entry& e = checked<bool>(entry);
        const auto& values = *std::static_pointer_cast<
            const std::vector<bool>>(e.table);
        detail::KahanSum mass;
        const Entry* ops[] = {&e};
        forEachJoint(e.leaves, ops, 1,
                     [&](std::size_t, const std::size_t* idx,
                         const std::size_t* digits) {
                         if (values[idx[0]])
                             mass.add(jointWeight(e.leaves, digits));
                     });
        return mass.value();
    }

    /**
     * Full pmf of @p entry: sorted (value, probability) pairs, equal
     * values merged. The probabilities are un-normalized sums of
     * joint weights, so their total exposes enumeration round-off to
     * the conformance tests (it must be 1 within ~1e-12).
     */
    template <typename T>
    std::vector<std::pair<T, double>>
    distribution(std::size_t entry) const
    {
        const Entry& e = checked<T>(entry);
        const auto& values =
            *std::static_pointer_cast<const std::vector<T>>(e.table);
        std::map<T, detail::KahanSum> pmf;
        const Entry* ops[] = {&e};
        forEachJoint(e.leaves, ops, 1,
                     [&](std::size_t, const std::size_t* idx,
                         const std::size_t* digits) {
                         pmf[static_cast<T>(values[idx[0]])].add(
                             jointWeight(e.leaves, digits));
                     });
        std::vector<std::pair<T, double>> out;
        out.reserve(pmf.size());
        for (const auto& [value, mass] : pmf)
            out.emplace_back(value, mass.value());
        return out;
    }

    /**
     * Discrete conditioning (the closed form of inference reweight):
     * pmf of @p target given that boolean @p evidence is true, both
     * entries lowered in this builder so shared leaves stay joint.
     * Throws Error when the evidence has probability zero.
     */
    template <typename T>
    std::vector<std::pair<T, double>>
    conditioned(std::size_t target, std::size_t evidence) const
    {
        const Entry& t = checked<T>(target);
        const Entry& ev = checked<bool>(evidence);
        const auto& targetValues =
            *std::static_pointer_cast<const std::vector<T>>(t.table);
        const auto& evidenceValues = *std::static_pointer_cast<
            const std::vector<bool>>(ev.table);

        std::vector<std::uint32_t> leaves = unionLeaves(t.leaves,
                                                        ev.leaves);
        checkStates(leaves);
        std::map<T, detail::KahanSum> pmf;
        detail::KahanSum evidenceMass;
        const Entry* ops[] = {&t, &ev};
        forEachJoint(leaves, ops, 2,
                     [&](std::size_t, const std::size_t* idx,
                         const std::size_t* digits) {
                         if (!evidenceValues[idx[1]])
                             return;
                         const double w = jointWeight(leaves, digits);
                         evidenceMass.add(w);
                         pmf[static_cast<T>(targetValues[idx[0]])]
                             .add(w);
                     });
        UNCERTAIN_REQUIRE(evidenceMass.value() > 0.0,
                          "cannot condition on zero-probability "
                          "evidence");
        std::vector<std::pair<T, double>> out;
        out.reserve(pmf.size());
        for (const auto& [value, mass] : pmf)
            out.emplace_back(value, mass.value() / evidenceMass.value());
        return out;
    }

  private:
    struct Leaf
    {
        /** Borrowed from the leaf node's support storage (addLeaf). */
        const std::vector<double>* probabilities;
    };

    /**
     * One lowered node: its sorted leaf dependencies and a dense
     * table of size `states` (the product of those leaves' support
     * sizes, leaf order = ascending id, first leaf least significant)
     * holding the node's value under each joint assignment.
     */
    struct Entry
    {
        std::vector<std::uint32_t> leaves;
        std::size_t states = 1;
        std::type_index type{typeid(void)};
        std::shared_ptr<const void> table;
    };

    std::size_t
    intern(const void* node, Entry entry)
    {
        if (entries_.empty()) {
            entries_.reserve(32);
            interned_.reserve(32);
        }
        entries_.push_back(std::move(entry));
        const std::size_t index = entries_.size() - 1;
        interned_.emplace_back(node, index);
        return index;
    }

    template <typename T>
    const Entry&
    checked(std::size_t entry) const
    {
        const Entry& e = entries_.at(entry);
        UNCERTAIN_REQUIRE(e.type == std::type_index(typeid(T)),
                          "exact table queried at the wrong type");
        return e;
    }

    template <typename T>
    const std::vector<T>&
    table(std::size_t entry) const
    {
        return *std::static_pointer_cast<const std::vector<T>>(
            checked<T>(entry).table);
    }

    static std::vector<std::uint32_t>
    unionLeaves(const std::vector<std::uint32_t>& a,
                const std::vector<std::uint32_t>& b)
    {
        std::vector<std::uint32_t> out;
        out.reserve(a.size() + b.size());
        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(out));
        return out;
    }

    /** Product of support sizes; refuses past the configured bound. */
    std::size_t
    checkStates(const std::vector<std::uint32_t>& leaves) const
    {
        std::size_t states = 1;
        for (std::uint32_t leaf : leaves) {
            const std::size_t size =
                leaves_[leaf].probabilities->size();
            if (size > 0 && states > limits_.maxJointStates / size) {
                refuse("joint support exceeds the enumeration bound "
                       "of "
                       + std::to_string(limits_.maxJointStates)
                       + " states");
            }
            states *= size;
        }
        return states;
    }

    /** Π Pr[leaf k = digits[k]] over @p leaves. */
    double
    jointWeight(const std::vector<std::uint32_t>& leaves,
                const std::size_t* digits) const
    {
        double w = 1.0;
        for (std::size_t k = 0; k < leaves.size(); ++k)
            w *= (*leaves_[leaves[k]].probabilities)[digits[k]];
        return w;
    }

    /**
     * Mixed-radix odometer over the joint assignments of @p leaves.
     * For each state, @p fn receives the joint index, one table index
     * per operand entry (maintained incrementally via per-operand
     * strides — a leaf absent from an operand contributes stride 0),
     * and the per-leaf digit vector for weight computation.
     *
     * Uses the builder's scratch buffers: the builder is single-
     * threaded by contract (like SampleContext), and lowering a graph
     * visits thousands of joint states across dozens of nodes, so the
     * conditional fast path cannot afford per-node allocations.
     */
    template <typename Fn>
    void
    forEachJoint(const std::vector<std::uint32_t>& leaves,
                 const Entry* const* operands, std::size_t numOps,
                 Fn&& fn) const
    {
        const std::size_t numLeaves = leaves.size();

        auto& sizes = scratch_.sizes;
        sizes.resize(numLeaves);
        std::size_t total = 1;
        for (std::size_t k = 0; k < numLeaves; ++k) {
            sizes[k] = leaves_[leaves[k]].probabilities->size();
            total *= sizes[k];
        }

        // strides[o * numLeaves + k]: step of operand o's table index
        // when leaf k's digit advances by one.
        auto& strides = scratch_.strides;
        strides.assign(numOps * numLeaves, 0);
        for (std::size_t o = 0; o < numOps; ++o) {
            std::size_t stride = 1;
            for (std::uint32_t leaf : operands[o]->leaves) {
                const auto pos = static_cast<std::size_t>(
                    std::lower_bound(leaves.begin(), leaves.end(),
                                     leaf)
                    - leaves.begin());
                UNCERTAIN_ASSERT(pos < numLeaves
                                     && leaves[pos] == leaf,
                                 "operand leaf missing from joint "
                                 "leaf set");
                strides[o * numLeaves + pos] = stride;
                stride *= leaves_[leaf].probabilities->size();
            }
        }

        auto& digits = scratch_.digits;
        auto& idx = scratch_.idx;
        digits.assign(numLeaves, 0);
        idx.assign(numOps, 0);
        for (std::size_t joint = 0;;) {
            fn(joint, idx.data(), digits.data());
            if (++joint == total)
                break;
            for (std::size_t k = 0;; ++k) {
                ++digits[k];
                for (std::size_t o = 0; o < numOps; ++o)
                    idx[o] += strides[o * numLeaves + k];
                if (digits[k] < sizes[k])
                    break;
                digits[k] = 0;
                for (std::size_t o = 0; o < numOps; ++o)
                    idx[o] -= strides[o * numLeaves + k] * sizes[k];
            }
        }
    }

    /**
     * Build an inner-node entry: union the operand leaf sets, bound
     * the joint state count, and fill the table by evaluating
     * @p compute (which reads the operand tables at the incrementally
     * maintained indices) at every joint assignment.
     */
    template <typename R, std::size_t N, typename Compute>
    std::size_t
    emit(const void* node, const std::array<std::size_t, N>& operandEntries,
         Compute&& compute)
    {
        std::array<const Entry*, N> operands{};
        auto& leaves = scratch_.unionAcc;
        leaves.clear();
        for (std::size_t i = 0; i < N; ++i) {
            const Entry& e = entries_[operandEntries[i]];
            mergeLeaves(leaves, e.leaves);
            operands[i] = &e;
        }
        const std::size_t states = checkStates(leaves);

        auto table = std::make_shared<std::vector<R>>(states);
        forEachJoint(leaves, operands.data(), N,
                     [&](std::size_t joint, const std::size_t* idx,
                         const std::size_t*) {
                         (*table)[joint] = compute(idx);
                     });

        Entry entry;
        entry.leaves.assign(leaves.begin(), leaves.end());
        entry.states = states;
        entry.type = std::type_index(typeid(R));
        entry.table = std::move(table);
        return intern(node, std::move(entry));
    }

    /** In-place sorted union: @p into = union(into, more). */
    void
    mergeLeaves(std::vector<std::uint32_t>& into,
                const std::vector<std::uint32_t>& more) const
    {
        if (into.empty()) {
            into.assign(more.begin(), more.end());
            return;
        }
        auto& merged = scratch_.unionTmp;
        merged.clear();
        std::set_union(into.begin(), into.end(), more.begin(),
                       more.end(), std::back_inserter(merged));
        into.swap(merged);
    }

    /** Reusable buffers for the odometer and leaf-set unions. */
    struct Scratch
    {
        std::vector<std::size_t> sizes;
        std::vector<std::size_t> strides;
        std::vector<std::size_t> digits;
        std::vector<std::size_t> idx;
        std::vector<std::uint32_t> unionAcc;
        std::vector<std::uint32_t> unionTmp;
    };

    EnumerationLimits limits_;
    std::vector<Leaf> leaves_;
    std::vector<Entry> entries_;
    std::vector<std::pair<const void*, std::size_t>> interned_;
    mutable Scratch scratch_;
};

} // namespace exact
} // namespace uncertain

#endif // UNCERTAIN_EXACT_ENUMERATION_HPP
