/**
 * @file
 * Columnar batch-evaluation plan: the compilation target the node
 * graph is lowered into before bulk sampling — plus the optimizer
 * pass pipeline that runs between lowering and execution.
 *
 * The tree-walk interpreter in core/node.hpp pays a memo-table lookup
 * and a virtual dispatch per node per sample. The batch engine pays
 * those costs once per *block* instead: a one-time topological
 * lowering flattens the DAG into a sequence of kernels in SSA form —
 * every node owns exactly one contiguous column, shared subexpressions
 * are interned so they appear once (preserving the Figure 8(b)
 * shared-leaf semantics by construction) — and each kernel fills its
 * column for a whole block of samples in a single tight loop.
 *
 * Lowering emits, next to each executable kernel, a small step record
 * (batch::StepInfo) describing what the kernel does: its kind (leaf /
 * constant / elementwise), output column, operand columns, the
 * functor's type identity, and typed helper closures (constant
 * folding, strip-mined fusion). Every elementwise step, whatever its
 * arity, comes from one builder, batch::makeElementwiseStep. The
 * optimizer runs over those records after lowering, in this order:
 *
 *   1. structural CSE   — interior steps with the same operator type
 *                         and the same (canonicalized) operand columns
 *                         are merged; distinct stochastic leaves are
 *                         never keyed, so Figure 8 SSA semantics hold.
 *   2. constant folding — elementwise steps whose operands are all
 *                         point masses are evaluated at compile time;
 *                         constant columns are filled once per
 *                         workspace, not once per block.
 *   3. kernel fusion    — each maximal run of consecutive elementwise
 *                         steps becomes one strip-mined kernel; values
 *                         consumed only inside the run live in strip
 *                         registers (one aligned scratch buffer per
 *                         workspace, sized by the plan's widest group)
 *                         and never round-trip through a column.
 *   4. buffer reuse     — a last-use (liveness) analysis maps logical
 *                         columns onto a small set of physical slots,
 *                         shrinking the workspace from O(nodes) to
 *                         O(live width) columns.
 *
 * Every elementwise step, fused or not, runs through the same strip
 * executor: a group of one op is one pass over the whole block with
 * columns at both ends, and a fused group walks the block in strips.
 *
 * Equivalence contract: none of the passes reassociates floating
 * point or perturbs the leaf stream assignment (stream indices are
 * fixed during lowering, before any pass runs), so an optimized plan
 * is bit-identical to the unoptimized plan for the same (seed, n,
 * blockSize, graph). PlanOptions::optimize = false, which runs none
 * of the passes, exists as the reference the equivalence suite
 * compares against, not because outputs differ.
 *
 * Stream discipline: a block whose first sample has absolute index s
 * derives a block generator `base.split(s)` from the caller's Rng
 * snapshot, and the leaf with topological discovery index L draws its
 * column from `blockBase.split(L)`. Inner nodes lower their operands
 * left to right (core/node.hpp, ApplyNode), so L follows operand
 * order. The output is therefore a pure
 * function of (seed, n, block size, graph shape): identical for any
 * thread count, though not bit-identical to the tree walk (the
 * conformance suite in tests/core/batch_equivalence_test.cpp pins the
 * two engines to the same law statistically).
 *
 * Lowering is driven by Node<T>::lowerInto (core/node.hpp); execution
 * by BatchSampler (core/batch.hpp), serially or over a
 * BlockScheduler (core/block_scheduler.hpp).
 */

#ifndef UNCERTAIN_CORE_BATCH_PLAN_HPP
#define UNCERTAIN_CORE_BATCH_PLAN_HPP

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/jit/jit_compiler.hpp"
#include "core/simd.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace uncertain {
namespace core {

class GraphNode;
class BatchPlan;

namespace batch {

/**
 * Column storage type for a base type T. Identical to T except for
 * bool, which is widened to one byte so columns expose contiguous
 * writable storage (std::vector<bool> packs bits and has no data()).
 * Kernels read and write Store<T>; the implicit bool <-> uint8_t
 * conversions keep the lifted operators' signatures unchanged.
 */
template <typename T>
struct ColumnStorage
{
    using type = T;
};

template <>
struct ColumnStorage<bool>
{
    using type = std::uint8_t;
};

template <typename T>
using Store = typename ColumnStorage<T>::type;

/** "No column": shared sentinel for column ids and physical slots. */
constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

/** Elements processed per strip by a fused kernel. Small enough that
 *  every strip register lives in L1, large enough to amortize the
 *  per-strip micro-op dispatch. */
constexpr std::size_t kStripElems = 256;

/**
 * Alignment of strip registers inside a workspace's scratch buffer
 * (and of the buffer itself). Must cover the widest vector
 * load/store any execution backend issues: 64 bytes spans AVX2 (32),
 * a full cache line, and a future AVX-512 register. Every strip
 * register's byte offset is a multiple of this (regBytes rounds
 * register sizes up to it, so offsets — sums of rounded sizes — stay
 * aligned); stripSrc/stripDst assert that invariant in debug builds.
 */
constexpr std::size_t kStripAlign = 64;
static_assert(kStripAlign >= 64
                  && (kStripAlign & (kStripAlign - 1)) == 0,
              "kStripAlign must be a power of two covering the widest "
              "vector register");

} // namespace batch

/** Type-erased base for one column of the workspace. */
class ColumnBase
{
  public:
    virtual ~ColumnBase() = default;

    /** Resize the column to exactly @p n elements. */
    virtual void resize(std::size_t n) = 0;

    /** Current element count. */
    virtual std::size_t size() const = 0;

    /**
     * Grow-only resize: make the column hold at least @p n elements.
     * Never shrinks, so a constant column filled for an earlier,
     * larger block keeps its prefix valid (kernels only ever touch
     * [0, blockLength)).
     */
    void
    ensure(std::size_t n)
    {
        if (size() < n)
            resize(n);
    }

    /**
     * Raw byte pointer to the column's contiguous storage, for the
     * JIT backend's column pointer table. Null means "no flat
     * storage" — such a column can never feed a compiled fragment
     * (the plan only JITs steps over registerable store types, which
     * all come from Column<T> below).
     */
    virtual unsigned char* rawBytes() { return nullptr; }
};

/** A contiguous column of batch::Store<T> values, one per sample. */
template <typename T>
class Column final : public ColumnBase
{
  public:
    using StoreType = batch::Store<T>;

    void resize(std::size_t n) override { values_.resize(n); }
    std::size_t size() const override { return values_.size(); }

    StoreType* data() { return values_.data(); }
    const StoreType* data() const { return values_.data(); }

    unsigned char*
    rawBytes() override
    {
        return reinterpret_cast<unsigned char*>(values_.data());
    }

  private:
    std::vector<StoreType> values_;
};

/**
 * Per-execution state for one block: the physical column storage, the
 * fused groups' strip registers and the block's generator. A
 * workspace belongs to one thread at a time; parallel execution gives
 * each worker its own workspace over the same immutable plan.
 *
 * Kernels address columns by *logical* id (the SSA id assigned during
 * lowering and captured in their closures); the workspace indirects
 * through the plan's logical-to-physical slot map. That indirection is
 * what lets the CSE and buffer-reuse passes alias or recycle columns
 * after the closures have been built.
 */
class BatchWorkspace
{
  public:
    BatchWorkspace() = default;
    BatchWorkspace(BatchWorkspace&&) = default;
    BatchWorkspace& operator=(BatchWorkspace&&) = default;
    BatchWorkspace(const BatchWorkspace&) = delete;
    BatchWorkspace& operator=(const BatchWorkspace&) = delete;

    /** Samples in the current block. */
    std::size_t length() const { return length_; }

    /** The typed column for logical id @p index; the type is fixed by
     *  the plan. */
    template <typename T>
    Column<T>&
    column(std::size_t index)
    {
        UNCERTAIN_ASSERT(slots_ != nullptr && index < slots_->size(),
                         "column index out of range");
        const std::size_t phys = (*slots_)[index];
        UNCERTAIN_ASSERT(phys != batch::kNoColumn
                             && phys < columns_.size(),
                         "read of a column the optimizer proved dead");
        auto* typed = static_cast<Column<T>*>(columns_[phys].get());
        return *typed;
    }

    /**
     * Raw byte pointer of logical column @p index, resolved through
     * the slot map like any typed access — the entries of a compiled
     * fragment's column pointer table. Recomputed per block because
     * ensure() may reallocate.
     */
    unsigned char*
    rawColumn(std::size_t index)
    {
        UNCERTAIN_ASSERT(slots_ != nullptr && index < slots_->size(),
                         "column index out of range");
        const std::size_t phys = (*slots_)[index];
        UNCERTAIN_ASSERT(phys != batch::kNoColumn
                             && phys < columns_.size(),
                         "read of a column the optimizer proved dead");
        return columns_[phys]->rawBytes();
    }

    /**
     * The generator for leaf stream @p leafIndex of the current
     * block: blockBase.split(leafIndex), a pure function of (caller
     * snapshot, block start, leaf index).
     */
    Rng
    leafStream(std::uint64_t leafIndex) const
    {
        return blockBase_.split(leafIndex);
    }

  private:
    friend class BatchPlan;

    /** One kStripAlign-sized, kStripAlign-aligned unit of scratch. */
    struct alignas(batch::kStripAlign) StripUnit
    {
        unsigned char bytes[batch::kStripAlign];
    };

    std::vector<std::unique_ptr<ColumnBase>> columns_; //!< physical
    const std::vector<std::size_t>* slots_ = nullptr;  //!< logical->physical
    /** Strip registers of whichever fused group is running; the
     *  plan's groups run one after another, so they share it. */
    std::vector<StripUnit> scratch_;
    std::size_t length_ = 0;
    std::size_t constLength_ = 0; //!< prefix of constant columns filled
    Rng blockBase_{0};
};

/** One compiled kernel: fills its column(s) for the current block. */
using BatchStep = std::function<void(BatchWorkspace&)>;

namespace batch {

/**
 * Where a fused micro-op reads or writes: either a workspace column
 * (addressed at the strip's base offset) or a strip register at a
 * byte offset inside the workspace's scratch buffer.
 */
struct StripLoc
{
    bool inRegister = false;
    std::size_t column = 0;    //!< logical column id (!inRegister)
    std::size_t regOffset = 0; //!< scratch byte offset (inRegister)

    /**
     * Hint: the column is a hoisted point mass whose object
     * representation is `constBytes` (valid only when `isConst`).
     * Micro-op factories MAY exploit it to broadcast the value in a
     * register instead of streaming the splatted column — the column
     * stays filled either way, so ignoring the hint is always
     * correct. Only set for payloads that fit kConstHintBytes.
     */
    bool isConst = false;
    static constexpr std::size_t kConstHintBytes = 8;
    std::array<unsigned char, kConstHintBytes> constBytes{};
};

/** One micro-op of a fused kernel: process scratch-or-column operands
 *  for elements [base, base + n) of the block. */
using StripOp = std::function<void(BatchWorkspace&, std::size_t base,
                                   std::size_t n, unsigned char*)>;

/** Result of folding one elementwise step at compile time. */
struct FoldedConst
{
    /** Object representation of the folded Store<R> value (CSE key). */
    std::vector<unsigned char> bytes;
    /** Splat kernel writing the folded value over the out column. */
    BatchStep splat;
};

enum class StepKind : std::uint8_t
{
    Leaf,        //!< stochastic source; never merged or folded
    Const,       //!< point mass; filled once per workspace
    Elementwise, //!< pure per-element map over operand columns
};

/**
 * The optimizer-facing description of one lowered step. A leaf or
 * const step carries its full-block kernel in `run`; an elementwise
 * step has no `run` and executes through `makeStrip` (or its native
 * op) in the plan's strip executor. The remaining fields describe a
 * step well enough for the passes to merge, fold, or fuse it.
 */
struct StepInfo
{
    StepKind kind = StepKind::Leaf;
    std::size_t out = kNoColumn;        //!< output logical column
    std::vector<std::size_t> operands;  //!< operand logical columns
    BatchStep run;                      //!< leaf and const steps only

    /**
     * True when the functor's *type* fully determines its behaviour
     * (captureless lambdas are empty types; a capturing functor like
     * clamp(lo, hi) is not, because two instances of the same type can
     * hold different state) — the precondition for keying a step by
     * (opType, operands) in the CSE pass.
     */
    bool cseSafe = false;
    std::type_index opType = std::type_index(typeid(void));
    std::type_index outType = std::type_index(typeid(void));

    /** Object representation of a Const step's value; empty when the
     *  payload is not trivially copyable (then the step is still
     *  hoistable but not a CSE/folding source). */
    std::vector<unsigned char> constBytes;

    /** Evaluate the op over constant operand payloads (object
     *  representations, one per operand). Null when not foldable. */
    std::function<FoldedConst(const std::vector<const unsigned char*>&)>
        fold;

    /** Build the strip micro-op of an elementwise step, given operand
     *  and destination locations. Set for every elementwise step; a
     *  step over a type that is not registerable is only ever given
     *  columns. */
    std::function<StripOp(const std::vector<StripLoc>&, const StripLoc&)>
        makeStrip;

    /**
     * The step's row in the native-op table (simd::nativeOp), when its
     * functor and types have one. The plan then runs the step's strip
     * through the kernel layer (simdStripOp) when the resolved
     * PlanOptions::backend wants SIMD, and a fused group made entirely
     * of such steps may compile into one JIT fragment per strip. Both
     * are bit-identical to makeStrip's scalar strip.
     */
    std::optional<simd::Op> nativeOp;
};

namespace detail_ir {

template <typename T>
inline constexpr bool kRegisterable =
    std::is_trivially_copyable_v<Store<T>>
    && std::is_trivially_destructible_v<Store<T>>
    && sizeof(Store<T>) <= kStripAlign;

template <typename T>
std::vector<unsigned char>
objectBytes(const Store<T>& value)
{
    std::vector<unsigned char> bytes(sizeof(Store<T>));
    std::memcpy(bytes.data(), &value, sizeof(Store<T>));
    return bytes;
}

template <typename T>
Store<T>
fromBytes(const unsigned char* bytes)
{
    Store<T> value;
    std::memcpy(&value, bytes, sizeof(Store<T>));
    return value;
}

/** Resolve a strip operand to a typed pointer for the current strip. */
template <typename T>
const Store<T>*
stripSrc(BatchWorkspace& ws, const StripLoc& loc, std::size_t base,
         const unsigned char* scratch)
{
    UNCERTAIN_ASSERT(!loc.inRegister
                         || loc.regOffset % kStripAlign == 0,
                     "strip register offset violates kStripAlign");
    return loc.inRegister
               ? reinterpret_cast<const Store<T>*>(scratch
                                                   + loc.regOffset)
               : ws.template column<T>(loc.column).data() + base;
}

template <typename T>
Store<T>*
stripDst(BatchWorkspace& ws, const StripLoc& loc, std::size_t base,
         unsigned char* scratch)
{
    UNCERTAIN_ASSERT(!loc.inRegister
                         || loc.regOffset % kStripAlign == 0,
                     "strip register offset violates kStripAlign");
    return loc.inRegister
               ? reinterpret_cast<Store<T>*>(scratch + loc.regOffset)
               : ws.template column<T>(loc.column).data() + base;
}

/** Kernel writing @p value over column @p col for the whole block. */
template <typename T>
BatchStep
splatStep(std::size_t col, Store<T> value)
{
    return [col, value](BatchWorkspace& ws) {
        auto* out = ws.template column<T>(col).data();
        const std::size_t n = ws.length();
        for (std::size_t i = 0; i < n; ++i)
            out[i] = value;
    };
}

} // namespace detail_ir

/** StepInfo for a point mass of type T splatted over column @p col. */
template <typename T>
StepInfo
makeConstStep(std::size_t col, const T& value)
{
    using S = Store<T>;
    StepInfo info;
    info.kind = StepKind::Const;
    info.out = col;
    // Identity is the *base* type T, not Store<T>: bool and uint8_t
    // share a store type but their Column<T> instantiations differ,
    // so they must never be merged or share a recycled slot.
    info.outType = std::type_index(typeid(T));
    info.run = detail_ir::splatStep<T>(col, static_cast<S>(value));
    if constexpr (std::is_trivially_copyable_v<S>) {
        info.constBytes = detail_ir::objectBytes<T>(static_cast<S>(value));
        info.cseSafe = true;
    }
    return info;
}

/**
 * StepInfo for an elementwise op R = op(As...) into column @p col,
 * reading operand column operands[k] for argument k. One builder for
 * every arity: the scalar strip and the fold are each written once
 * over the pack, and the native op is looked up in the one table.
 * Every type gets the strip; the fold and the native op only
 * registerable ones.
 */
template <typename R, typename... As, typename F>
StepInfo
makeElementwiseStep(std::size_t col,
                    std::array<std::size_t, sizeof...(As)> operands, F op)
{
    using Indices = std::index_sequence_for<As...>;
    using SR = Store<R>;
    StepInfo info;
    info.kind = StepKind::Elementwise;
    info.out = col;
    info.operands.assign(operands.begin(), operands.end());
    info.opType = std::type_index(typeid(F));
    info.outType = std::type_index(typeid(R));
    info.cseSafe = std::is_empty_v<F>;
    info.makeStrip = [op](const std::vector<StripLoc>& srcs,
                          const StripLoc& dst) -> StripOp {
        return [srcs, dst, op](BatchWorkspace& ws, std::size_t base,
                               std::size_t n, unsigned char* scratch) {
            [&]<std::size_t... I>(std::index_sequence<I...>) {
                ops::applyLoop(
                    op, detail_ir::stripDst<R>(ws, dst, base, scratch), n,
                    detail_ir::stripSrc<As>(ws, srcs[I], base, scratch)...);
            }(Indices{});
        };
    };
    if constexpr ((detail_ir::kRegisterable<R> && ...
                   && detail_ir::kRegisterable<As>)) {
        info.fold =
            [col, op](const std::vector<const unsigned char*>& vals)
            -> FoldedConst {
            const SR r = [&]<std::size_t... I>(std::index_sequence<I...>) {
                return static_cast<SR>(op(static_cast<As>(
                    detail_ir::fromBytes<As>(vals[I]))...));
            }(Indices{});
            FoldedConst folded;
            folded.bytes = detail_ir::objectBytes<R>(r);
            folded.splat = detail_ir::splatStep<R>(col, r);
            return folded;
        };
        info.nativeOp = simd::nativeOp<F, R, As...>;
    }
    return info;
}

/**
 * The SIMD strip micro-op of a step whose native op is @p op: resolves
 * each operand to its strip register or column and calls
 * simd::elementwise. A hoisted point-mass operand (StripLoc::isConst)
 * also hands over its value, which the f64 arithmetic kernels
 * broadcast from a register instead of streaming the splatted column.
 * @p elemBytes holds each source's element size, then the
 * destination's.
 */
inline StripOp
simdStripOp(simd::Op op, const std::vector<StripLoc>& srcs,
            const StripLoc& dst, std::vector<std::size_t> elemBytes)
{
    return [op, srcs, dst, elemBytes = std::move(elemBytes)](
               BatchWorkspace& ws, std::size_t base, std::size_t n,
               unsigned char* scratch) {
        auto at = [&](const StripLoc& loc, std::size_t bytes) {
            return loc.inRegister
                       ? scratch + loc.regOffset
                       : ws.rawColumn(loc.column) + base * bytes;
        };
        std::array<simd::Src, 3> args{};
        for (std::size_t k = 0; k < srcs.size(); ++k) {
            args[k].column = at(srcs[k], elemBytes[k]);
            if (srcs[k].isConst)
                args[k].splat = srcs[k].constBytes.data();
        }
        simd::elementwise(simd::activeIsa(), op, args.data(),
                          at(dst, elemBytes.back()), n);
    };
}

} // namespace batch

/**
 * Accumulates the flat plan during lowering. Nodes are interned by
 * identity, so a shared subexpression is lowered exactly once and
 * every consumer reads the same column — the SSA form of Figure 8(b).
 */
class BatchBuilder
{
  public:
    /** Column index of @p node if already lowered, else npos. */
    static constexpr std::size_t npos = batch::kNoColumn;

    /** Everything the optimizer needs to know about one column. */
    struct ColumnMeta
    {
        std::function<std::unique_ptr<ColumnBase>()> factory;
        std::type_index storeType = std::type_index(typeid(void));
        std::size_t elemSize = 0;
        bool registerable = false; //!< may live in a strip register
    };

    std::size_t
    find(const GraphNode* node) const
    {
        auto it = index_.find(node);
        return it == index_.end() ? npos : it->second;
    }

    /**
     * Register a fresh column of base type T for @p node and return
     * its index. Must be called after the node's operands are
     * lowered and before its step is appended.
     */
    template <typename T>
    std::size_t
    addColumn(const GraphNode* node)
    {
        UNCERTAIN_ASSERT(find(node) == npos,
                         "node lowered twice despite interning");
        using S = batch::Store<T>;
        const std::size_t id = columns_.size();
        ColumnMeta meta;
        meta.factory =
            [] { return std::unique_ptr<ColumnBase>(new Column<T>()); };
        // Keyed by the base type T (not Store<T>): slot recycling must
        // never hand a Column<bool> to a Column<uint8_t> reader.
        meta.storeType = std::type_index(typeid(T));
        meta.elemSize = sizeof(S);
        meta.registerable = batch::detail_ir::kRegisterable<T>;
        columns_.push_back(std::move(meta));
        index_.emplace(node, id);
        return id;
    }

    /**
     * Claim the next leaf stream index (topological discovery order);
     * each leaf kernel derives its per-block generator from it.
     */
    std::uint64_t nextLeafStream() { return leafCount_++; }

    /** Append the step record for the most recently added column. */
    void addStep(batch::StepInfo step) { steps_.push_back(std::move(step)); }

    std::size_t columnCount() const { return columns_.size(); }
    std::uint64_t leafCount() const { return leafCount_; }

  private:
    friend class BatchPlan;

    std::unordered_map<const GraphNode*, std::size_t> index_;
    std::vector<ColumnMeta> columns_;
    std::vector<batch::StepInfo> steps_;
    std::uint64_t leafCount_ = 0;
};

/**
 * How a plan is compiled. Outputs are bit-identical at every setting
 * (the equivalence suite runs optimize off and on at every backend).
 */
struct PlanOptions
{
    /**
     * Run the optimizer: structural CSE, constant folding and
     * hoisting, dead-step removal, elementwise fusion and buffer
     * reuse. Off is the unoptimized reference: every step runs on
     * its own over full columns, one physical column per logical one.
     */
    bool optimize = true;

    /**
     * Execution backend for elementwise strips (orthogonal to
     * `optimize`; outputs are bit-identical either way). Auto
     * resolves at plan-build time: fused groups compile to native
     * fragments when jit::available() (a group the emitter refuses
     * falls back to the SIMD strips), vector strips when the CPU has
     * AVX2, scalar otherwise. Simd forces the kernel-layer strips
     * (safe everywhere — the kernels emulate missing ISAs in scalar
     * code); Scalar forces the plain interpreter strips.
     */
    simd::ExecBackend backend = simd::ExecBackend::Auto;

    /** Optimizer off on the scalar strips: the literal
     *  transcription every other configuration must reproduce. */
    static PlanOptions
    disabled()
    {
        return {false, simd::ExecBackend::Scalar};
    }
};

/**
 * Per-plan observability: what lowering produced, what each pass did,
 * and the workspace footprint before/after. Exposed through
 * core::inspect::planStats and printed by the benches under --verbose.
 */
struct PlanStats
{
    std::size_t columnsLowered = 0;  //!< logical columns (= graph nodes)
    std::size_t leafColumns = 0;
    std::size_t stepsLowered = 0;
    std::size_t cseMerged = 0;       //!< steps dropped as structural dups
    std::size_t constantsFolded = 0; //!< elementwise steps folded away
    std::size_t constantsHoisted = 0; //!< splats run once per workspace
    std::size_t deadStepsRemoved = 0;
    std::size_t fusedKernels = 0;    //!< fused groups emitted
    std::size_t fusedOps = 0;        //!< elementwise steps inside groups
    std::size_t stepsPerBlock = 0;   //!< kernels executed per block
    std::size_t columnsMaterialized = 0; //!< physical slots allocated
    std::size_t bytesPerSampleLowered = 0;
    std::size_t bytesPerSampleMaterialized = 0;

    /** Backend requested via PlanOptions (auto/simd/scalar). */
    simd::ExecBackend backendRequested = simd::ExecBackend::Auto;
    /** True when the plan compiled vector strips (Auto resolved to
     *  SIMD, or Simd was forced). */
    bool simdStrips = false;
    /** ISA the kernels dispatched to at build time ("avx2", or
     *  "scalar" for the scalar rung). */
    const char* isa = "scalar";
    /** Doubles per vector register on that ISA (1 when scalar). */
    std::size_t laneWidth = 1;
    /** Elementwise strip ops compiled to the vector kernels. */
    std::size_t simdStripOps = 0;
    /** Elementwise strip ops left on the scalar interpreter loop. */
    std::size_t scalarStripOps = 0;

    /** True when at least one fused group compiled to a native
     *  fragment (backend resolved to the JIT for that group). */
    bool jitStrips = false;
    /** Elementwise strip ops compiled into native fragments. The
     *  simd/scalar op counts above still classify the retained
     *  fallback strips (they execute partial tail strips), so the
     *  three counts are not disjoint. */
    std::size_t jitStripOps = 0;
    /** Native fragments this plan uses (compiled or cache-served). */
    std::size_t jitFragments = 0;
    /** Of which were served from the process-wide fragment cache. */
    std::size_t jitFragmentsReused = 0;
    /** Total machine-code bytes across this plan's fragments. */
    std::size_t jitCodeBytes = 0;
    /** Wall-clock nanoseconds spent emitting this plan's fragments
     *  (0 for cache-served ones). */
    std::uint64_t jitCompileNanos = 0;

    /** Peak workspace bytes for a given block size. */
    std::size_t
    peakWorkspaceBytes(std::size_t blockSize) const
    {
        return bytesPerSampleMaterialized * blockSize;
    }

    /** What the same plan would occupy with every pass disabled. */
    std::size_t
    unoptimizedWorkspaceBytes(std::size_t blockSize) const
    {
        return bytesPerSampleLowered * blockSize;
    }

    std::string
    toString() const
    {
        std::ostringstream out;
        out << "plan: " << columnsLowered << " columns ("
            << leafColumns << " leaves) -> " << columnsMaterialized
            << " materialized; steps " << stepsLowered << " -> "
            << stepsPerBlock << "/block"
            << "; cse merged " << cseMerged << ", folded "
            << constantsFolded << ", hoisted " << constantsHoisted
            << ", dead " << deadStepsRemoved << ", fused "
            << fusedOps << " ops into " << fusedKernels << " kernels"
            << "; bytes/sample " << bytesPerSampleLowered << " -> "
            << bytesPerSampleMaterialized << "; backend "
            << simd::backendName(backendRequested) << " -> "
            << (jitStrips ? "jit" : simdStrips ? "simd" : "scalar")
            << " (" << isa << " x" << laneWidth << ", " << simdStripOps
            << " simd / " << scalarStripOps << " scalar strip ops)";
        if (jitFragments > 0) {
            out << "; jit " << jitStripOps << " ops in " << jitFragments
                << " fragments (" << jitFragmentsReused << " cached), "
                << jitCodeBytes << " code bytes, compile "
                << jitCompileNanos / 1000 << " us";
        }
        return out.str();
    }
};

/**
 * Snapshot of a plan's lifetime execution counters: how many blocks
 * and steps have actually been dispatched, and how many strip passes
 * the elementwise groups executed (a group of one makes one pass per
 * block) — split by backend so SIMD adoption is observable without a
 * profiler (surfaced through planReport).
 * Counters aggregate over every workspace and thread using the plan.
 */
struct PlanExecCounters
{
    std::uint64_t blocksExecuted = 0;
    std::uint64_t stepsDispatched = 0;   //!< kernel invocations
    std::uint64_t stripsExecuted = 0;    //!< strip passes
    std::uint64_t simdStripsExecuted = 0; //!< of which vector-backed
    std::uint64_t jitStripsExecuted = 0;  //!< of which native fragments
};

/**
 * An immutable compiled plan: ordered kernels plus physical column
 * factories and the logical-to-physical slot map the optimizer
 * produced. Compile once per graph (BatchPlan::compile), execute any
 * number of blocks from any number of threads — runBlock touches only
 * the caller's workspace. The plan keeps the root graph alive so a
 * cache keyed by node identity can never alias a recycled address.
 */
class BatchPlan
{
  public:
    /**
     * Lower the graph rooted at @p root (a NodePtr<T>) into a plan and
     * run the optimizer passes selected by @p options over it.
     * The root's column index is recorded for typed readback.
     */
    template <typename NodeT>
    static std::shared_ptr<const BatchPlan>
    compile(const std::shared_ptr<const NodeT>& root,
            const PlanOptions& options = {})
    {
        UNCERTAIN_REQUIRE(root != nullptr,
                          "BatchPlan::compile requires a root node");
        BatchBuilder builder;
        const std::size_t rootColumn = root->lowerInto(builder);
        return std::shared_ptr<const BatchPlan>(new BatchPlan(
            std::move(builder), rootColumn, options, root));
    }

    /** Logical column id of the root (readback goes through the slot
     *  map like any other access). */
    std::size_t rootColumn() const { return rootColumn_; }

    /** Physical columns a workspace allocates. */
    std::size_t columnCount() const
    {
        return stats_.columnsMaterialized;
    }

    std::size_t leafCount() const
    {
        return static_cast<std::size_t>(leafCount_);
    }

    const PlanStats& stats() const { return stats_; }

    /** A fresh workspace with one column per physical slot and the
     *  strip registers of the plan's widest fused group. */
    BatchWorkspace
    makeWorkspace() const
    {
        BatchWorkspace ws;
        ws.columns_.reserve(physFactories_.size());
        for (const auto& make : physFactories_)
            ws.columns_.push_back(make());
        ws.slots_ = &slots_;
        ws.scratch_.resize(scratchBytes_ / batch::kStripAlign);
        return ws;
    }

    /**
     * Fill every live column of @p ws for the block of @p length
     * samples whose first absolute sample index is @p blockStart,
     * deriving leaf streams from @p base per the stream discipline
     * above. Constant columns are (re)filled only when this block is
     * longer than any the workspace has seen.
     */
    void
    runBlock(BatchWorkspace& ws, const Rng& base, std::size_t blockStart,
             std::size_t length) const
    {
        UNCERTAIN_ASSERT(ws.columns_.size() == physFactories_.size()
                             && ws.slots_ == &slots_,
                         "workspace does not belong to this plan");
        ws.length_ = length;
        ws.blockBase_ = base.split(blockStart);
        for (auto& column : ws.columns_)
            column->ensure(length);
        std::uint64_t dispatched = steps_.size();
        if (length > ws.constLength_) {
            for (const auto& step : constSteps_)
                step(ws);
            ws.constLength_ = length;
            dispatched += constSteps_.size();
        }
        for (const auto& step : steps_)
            step(ws);
        ctrBlocks_.fetch_add(1, std::memory_order_relaxed);
        ctrSteps_.fetch_add(dispatched, std::memory_order_relaxed);
    }

    /** Lifetime execution counters (all workspaces, all threads). */
    PlanExecCounters
    execCounters() const
    {
        PlanExecCounters counters;
        counters.blocksExecuted =
            ctrBlocks_.load(std::memory_order_relaxed);
        counters.stepsDispatched =
            ctrSteps_.load(std::memory_order_relaxed);
        counters.stripsExecuted =
            ctrStrips_.load(std::memory_order_relaxed);
        counters.simdStripsExecuted =
            ctrSimdStrips_.load(std::memory_order_relaxed);
        counters.jitStripsExecuted =
            ctrJitStrips_.load(std::memory_order_relaxed);
        return counters;
    }

  private:
    /** One finalized executable step with its column access sets
     *  (canonical logical ids), as consumed by the liveness pass. */
    struct StepExec
    {
        BatchStep run;
        std::vector<std::size_t> reads;
        std::vector<std::size_t> writes;
    };

    BatchPlan(BatchBuilder&& builder, std::size_t rootColumn,
              const PlanOptions& options,
              std::shared_ptr<const GraphNode> keepAlive)
        : leafCount_(builder.leafCount_), rootColumn_(rootColumn),
          keepAlive_(std::move(keepAlive))
    {
        build(std::move(builder.columns_), std::move(builder.steps_),
              options);
    }

    void build(std::vector<BatchBuilder::ColumnMeta>&& metas,
               std::vector<batch::StepInfo>&& steps,
               const PlanOptions& options);

    std::vector<std::function<std::unique_ptr<ColumnBase>()>>
        physFactories_;
    std::vector<std::size_t> slots_; //!< logical -> physical
    std::vector<BatchStep> constSteps_; //!< once per workspace length
    std::vector<BatchStep> steps_;      //!< once per block
    std::size_t scratchBytes_ = 0; //!< strip registers of the widest group
    PlanStats stats_;
    std::uint64_t leafCount_;
    std::size_t rootColumn_;
    std::shared_ptr<const GraphNode> keepAlive_;

    // Execution counters; mutable because runBlock is logically const
    // (it mutates only the caller's workspace). Relaxed atomics: the
    // counts are monotonic telemetry with no ordering obligations.
    mutable std::atomic<std::uint64_t> ctrBlocks_{0};
    mutable std::atomic<std::uint64_t> ctrSteps_{0};
    mutable std::atomic<std::uint64_t> ctrStrips_{0};
    mutable std::atomic<std::uint64_t> ctrSimdStrips_{0};
    mutable std::atomic<std::uint64_t> ctrJitStrips_{0};
};

// ---------------------------------------------------------------------
// Optimizer implementation.
// ---------------------------------------------------------------------

inline void
BatchPlan::build(std::vector<BatchBuilder::ColumnMeta>&& metas,
                 std::vector<batch::StepInfo>&& steps,
                 const PlanOptions& options)
{
    using batch::StepInfo;
    using batch::StepKind;

    stats_.columnsLowered = metas.size();
    stats_.leafColumns = static_cast<std::size_t>(leafCount_);
    stats_.stepsLowered = steps.size();
    for (const auto& meta : metas)
        stats_.bytesPerSampleLowered += meta.elemSize;

    const bool optimize = options.optimize;

    // Backend resolution happens once, here: Auto asks the dispatch
    // layer whether AVX2 is usable on this machine; Simd always
    // compiles the kernel-layer strips (without AVX2 they run the
    // kernels' scalar rung, so this is safe everywhere); Scalar always
    // compiles the interpreter strips. Outputs are bit-identical
    // either way — the choice is purely about speed. Under Auto the
    // JIT resolves per fused group below: each group the fragment
    // emitter accepts runs native code, and every refusal
    // (unsupported op, W^X failure) falls back to the SIMD strips,
    // which jit::available() (AVX2 required) guarantees are wanted.
    const bool wantSimd =
        options.backend == simd::ExecBackend::Simd
        || (options.backend == simd::ExecBackend::Auto
            && simd::activeIsa() == simd::Isa::Avx2);
    const bool wantJit = options.backend == simd::ExecBackend::Auto
                         && jit::available();
    stats_.backendRequested = options.backend;
    stats_.simdStrips = wantSimd;
    const simd::Isa buildIsa =
        wantSimd ? simd::activeIsa() : simd::Isa::Scalar;
    stats_.isa = simd::isaName(buildIsa);
    stats_.laneWidth = simd::laneWidth(buildIsa);

    // Union-find-lite: rep[c] is the canonical column c was merged
    // into (identity when unmerged). Kernels keep their original ids;
    // the slot map resolves aliases at execution time.
    std::vector<std::size_t> rep(metas.size());
    for (std::size_t i = 0; i < rep.size(); ++i)
        rep[i] = i;
    auto canon = [&rep](std::size_t c) {
        while (rep[c] != c)
            c = rep[c];
        return c;
    };

    // ---- pass 1+2: structural CSE and constant folding -------------
    //
    // One forward scan over the topologically ordered steps. Operands
    // are canonicalized first, so structural equality propagates
    // upward (if a==a' and b==b', then a+b merges with a'+b').
    // Leaves are never keyed: two distinct stochastic leaves stay two
    // draws (Figure 8 SSA semantics). Folding runs in the same scan
    // because a folded step becomes a Const that later steps may fold
    // or merge over.
    std::vector<StepInfo> kept;
    kept.reserve(steps.size());
    if (optimize) {
        std::unordered_map<std::string, std::size_t> interned;
        std::unordered_map<std::size_t, std::vector<unsigned char>>
            constOf;
        for (auto& s : steps) {
            for (auto& o : s.operands)
                o = canon(o);
            if (s.kind == StepKind::Elementwise && s.fold
                && !s.operands.empty()) {
                bool allConst = true;
                std::vector<const unsigned char*> vals;
                vals.reserve(s.operands.size());
                for (const auto o : s.operands) {
                    auto it = constOf.find(o);
                    if (it == constOf.end()) {
                        allConst = false;
                        break;
                    }
                    vals.push_back(it->second.data());
                }
                if (allConst) {
                    // Same op applied to the same scalar values the
                    // per-block kernel would see: bit-identical, just
                    // computed once at compile time.
                    batch::FoldedConst folded = s.fold(vals);
                    s.kind = StepKind::Const;
                    s.run = std::move(folded.splat);
                    s.constBytes = std::move(folded.bytes);
                    s.operands.clear();
                    s.fold = nullptr;
                    s.makeStrip = nullptr;
                    s.nativeOp.reset();
                    s.cseSafe = true;
                    ++stats_.constantsFolded;
                }
            }
            if (s.cseSafe
                && (s.kind == StepKind::Elementwise
                    || s.kind == StepKind::Const)) {
                std::string key;
                key.reserve(64);
                if (s.kind == StepKind::Const) {
                    key.push_back('C');
                    key.append(s.outType.name());
                    key.push_back('\x1f');
                    key.append(
                        reinterpret_cast<const char*>(s.constBytes.data()),
                        s.constBytes.size());
                } else {
                    key.push_back('E');
                    key.append(s.opType.name());
                    key.push_back('\x1f');
                    key.append(s.outType.name());
                    for (const auto o : s.operands) {
                        key.push_back('\x1f');
                        key.append(std::to_string(o));
                    }
                }
                auto ins = interned.emplace(std::move(key), s.out);
                if (!ins.second) {
                    rep[s.out] = ins.first->second;
                    ++stats_.cseMerged;
                    continue; // drop the duplicate step
                }
            }
            if (s.kind == StepKind::Const && !s.constBytes.empty())
                constOf.emplace(s.out, s.constBytes);
            kept.push_back(std::move(s));
        }
    } else {
        kept = std::move(steps);
    }

    const std::size_t rootRep = canon(rootColumn_);

    // ---- dead-step elimination --------------------------------------
    //
    // Folding and CSE orphan steps (e.g. the point-mass operands of a
    // folded op). Dropping a dead *leaf* is also safe bit-wise: every
    // leaf draws from its own split(streamIndex) stream assigned at
    // lowering, so removing one never shifts another's stream.
    if (optimize) {
        std::unordered_set<std::size_t> needed{rootRep};
        std::vector<StepInfo> live;
        live.reserve(kept.size());
        for (std::size_t i = kept.size(); i-- > 0;) {
            if (needed.count(kept[i].out) == 0) {
                ++stats_.deadStepsRemoved;
                continue;
            }
            for (const auto o : kept[i].operands)
                needed.insert(o);
            live.push_back(std::move(kept[i]));
        }
        std::reverse(live.begin(), live.end());
        kept = std::move(live);
    }

    // ---- constant hoisting ------------------------------------------
    //
    // Point-mass splats are pure functions of the block length, so
    // run them once per workspace (re-running only when a longer
    // block arrives) instead of once per block. Hoisted columns are
    // pinned by the liveness pass: they are never recycled, because
    // they are not refilled per block.
    std::vector<char> constCol(metas.size(), 0);
    // Small const payloads ride along as StripLoc hints so the
    // strips can emit broadcast-constant micro-ops.
    std::vector<std::array<unsigned char, batch::StripLoc::kConstHintBytes>>
        constHint(metas.size());
    std::vector<char> constHintValid(metas.size(), 0);
    std::vector<StepInfo> mainSteps;
    mainSteps.reserve(kept.size());
    for (auto& s : kept) {
        if (optimize && s.kind == StepKind::Const) {
            constCol[s.out] = 1;
            if (!s.constBytes.empty()
                && s.constBytes.size()
                       <= batch::StripLoc::kConstHintBytes) {
                std::copy(s.constBytes.begin(), s.constBytes.end(),
                          constHint[s.out].begin());
                constHintValid[s.out] = 1;
            }
            constSteps_.push_back(std::move(s.run));
            ++stats_.constantsHoisted;
        } else {
            mainSteps.push_back(std::move(s));
        }
    }

    // ---- elementwise groups -----------------------------------------
    //
    // Every elementwise step runs in a group. Unoptimized, each group
    // holds one op and runs it once over the whole block. Optimized,
    // each maximal run of consecutive elementwise steps over
    // registerable types becomes one fused group that processes the
    // block in strips of kStripElems elements, each micro-op handling
    // one strip before the next op runs, so intermediate values are
    // L1-hot. A value consumed only inside its group lives in a strip
    // register in the workspace's scratch and never touches its column
    // at all. A step that touches a value whose type is not
    // registerable is a group of one, so that value is always a
    // column. Per-element arithmetic and order are unchanged — fusion
    // only reorders *which elements* are computed when, never what is
    // computed — so results stay bit-identical.
    std::vector<std::vector<std::size_t>> readers(metas.size());
    for (std::size_t k = 0; k < mainSteps.size(); ++k)
        for (const auto o : mainSteps[k].operands)
            readers[o].push_back(k);

    auto regBytes = [](std::size_t elemSize) {
        // Rounding every register size to kStripAlign keeps every
        // register *offset* (a sum of such sizes) aligned for vector
        // loads/stores; stripSrc/stripDst assert it in debug builds.
        const std::size_t raw = batch::kStripElems * elemSize;
        return (raw + batch::kStripAlign - 1)
               / batch::kStripAlign * batch::kStripAlign;
    };
    // Whether the output of a step in [begin, end) may take a strip
    // register: read by no step outside the range.
    auto registerOnly = [&](std::size_t out, std::size_t begin,
                            std::size_t end) {
        if (out == rootRep)
            return false;
        for (const auto k : readers[out])
            if (k < begin || k >= end)
                return false;
        return true;
    };

    std::vector<StepExec> execs;
    execs.reserve(mainSteps.size());

    auto* ctrStrips = &ctrStrips_;
    auto* ctrSimdStrips = &ctrSimdStrips_;
    auto* ctrJitStrips = &ctrJitStrips_;

    // Column operand as a StripLoc, carrying the const-broadcast hint
    // when the column is a hoisted point mass with a small payload.
    auto columnLoc = [&](std::size_t o) {
        batch::StripLoc loc;
        loc.column = o;
        if (constCol[o] && constHintValid[o]) {
            loc.isConst = true;
            loc.constBytes = constHint[o];
        }
        return loc;
    };

    // The SIMD micro-op of native step s over the given locations.
    auto simdStrip = [&](const StepInfo& s,
                         const std::vector<batch::StripLoc>& srcs,
                         const batch::StripLoc& dst) {
        std::vector<std::size_t> elemBytes;
        for (const auto o : s.operands)
            elemBytes.push_back(metas[o].elemSize);
        elemBytes.push_back(metas[s.out].elemSize);
        return batch::simdStripOp(*s.nativeOp, srcs, dst,
                                  std::move(elemBytes));
    };

    auto emitGroup = [&](std::size_t a, std::size_t b) {
        const bool fused = b - a > 1;
        // Last in-group use per column, for register lifetime.
        std::unordered_map<std::size_t, std::size_t> lastUse;
        for (std::size_t k = a; k < b; ++k)
            for (const auto o : mainSteps[k].operands)
                lastUse[o] = k;
        std::unordered_map<std::size_t, std::size_t> regOffsetOf;
        std::map<std::size_t, std::vector<std::size_t>> freeBySize;
        std::size_t top = 0;
        std::vector<batch::StripOp> ops;
        ops.reserve(b - a);
        bool groupHasSimd = false;
        StepExec e;
        // JIT accumulation: translate each step's strip locations into
        // the fragment compiler's operand vocabulary while the
        // micro-ops are built. One step without a native op (or one
        // the emitter refuses, such as an int32 row) refuses the
        // whole group — a fragment replaces the per-step dispatch
        // loop entirely or not at all.
        bool groupJitable = wantJit && fused;
        std::vector<jit::GroupStep> jitSteps;
        std::vector<std::size_t> tableCols; //!< slot -> logical column
        std::unordered_map<std::size_t, std::uint32_t> slotOf;
        auto fragmentOperand = [&](const batch::StripLoc& loc) {
            jit::Operand o;
            if (loc.inRegister) {
                o.kind = jit::Operand::Kind::Scratch;
                o.index = static_cast<std::uint32_t>(loc.regOffset);
                return o;
            }
            if (loc.isConst) {
                // The hoisted point mass stays pinned in a register
                // inside the fragment; the column is never streamed
                // (it stays filled, exactly like the kernel layer's
                // broadcast-constant forms).
                o.kind = jit::Operand::Kind::Const;
                std::uint64_t bits = 0;
                std::memcpy(&bits, loc.constBytes.data(),
                            batch::StripLoc::kConstHintBytes);
                o.constBits = bits;
                return o;
            }
            o.kind = jit::Operand::Kind::Column;
            auto it = slotOf.find(loc.column);
            if (it == slotOf.end()) {
                it = slotOf
                         .emplace(loc.column,
                                  static_cast<std::uint32_t>(
                                      tableCols.size()))
                         .first;
                tableCols.push_back(loc.column);
            }
            o.index = it->second;
            return o;
        };
        for (std::size_t k = a; k < b; ++k) {
            auto& s = mainSteps[k];
            std::vector<batch::StripLoc> srcs;
            srcs.reserve(s.operands.size());
            for (const auto o : s.operands) {
                auto it = regOffsetOf.find(o);
                if (it != regOffsetOf.end()) {
                    srcs.push_back({true, 0, it->second});
                } else {
                    srcs.push_back(columnLoc(o));
                    e.reads.push_back(o);
                }
            }
            batch::StripLoc dst;
            if (fused && registerOnly(s.out, a, b)) {
                const std::size_t size = regBytes(metas[s.out].elemSize);
                auto& freeList = freeBySize[size];
                std::size_t offset;
                if (!freeList.empty()) {
                    offset = freeList.back();
                    freeList.pop_back();
                } else {
                    offset = top;
                    top += size;
                }
                regOffsetOf[s.out] = offset;
                dst = {true, 0, offset};
            } else {
                dst = {false, s.out, 0};
                e.writes.push_back(s.out);
            }
            const bool useSimd = wantSimd && s.nativeOp.has_value();
            ops.push_back(useSimd ? simdStrip(s, srcs, dst)
                                  : s.makeStrip(srcs, dst));
            if (useSimd) {
                groupHasSimd = true;
                ++stats_.simdStripOps;
            } else {
                ++stats_.scalarStripOps;
            }
            if (groupJitable) {
                if (!s.nativeOp) {
                    groupJitable = false;
                } else {
                    jit::GroupStep js;
                    js.op = *s.nativeOp;
                    js.arity =
                        static_cast<std::uint8_t>(s.operands.size());
                    for (std::size_t i = 0; i < s.operands.size(); ++i)
                        js.src[i] = fragmentOperand(srcs[i]);
                    js.dst = fragmentOperand(dst);
                    jitSteps.push_back(js);
                }
            }
            auto release = [&](std::size_t col) {
                auto rit = regOffsetOf.find(col);
                if (rit == regOffsetOf.end())
                    return;
                auto lit = lastUse.find(col);
                if (lit == lastUse.end() || lit->second <= k) {
                    freeBySize[regBytes(metas[col].elemSize)].push_back(
                        rit->second);
                    regOffsetOf.erase(rit);
                }
            };
            for (const auto o : s.operands)
                release(o);
            release(s.out); // a register written but never read
        }
        scratchBytes_ = std::max(scratchBytes_, top);
        std::sort(e.reads.begin(), e.reads.end());
        e.reads.erase(std::unique(e.reads.begin(), e.reads.end()),
                      e.reads.end());
        std::shared_ptr<const jit::Fragment> frag;
        if (groupJitable && tableCols.size() <= jit::kMaxColumnSlots) {
            const jit::CompileResult compiled = jit::compileGroup(
                jitSteps, tableCols.size(), batch::kStripElems);
            if (compiled.fragment != nullptr) {
                frag = compiled.fragment;
                stats_.jitStrips = true;
                stats_.jitStripOps += b - a;
                ++stats_.jitFragments;
                if (compiled.cacheHit)
                    ++stats_.jitFragmentsReused;
                stats_.jitCodeBytes += frag->codeBytes();
                stats_.jitCompileNanos += compiled.compileNanos;
            }
        }
        // The one strip loop. A group of one op runs its micro-op once
        // over the whole block; a fused group walks the block in
        // kStripElems strips, each a single call of the native
        // fragment when the group has one and the strip is full, and
        // the micro-ops otherwise (partial tail strips, or no
        // fragment) — same arithmetic, same bits.
        const std::size_t width = fused ? batch::kStripElems : SIZE_MAX;
        e.run = [ops = std::move(ops), frag,
                 tableCols = std::move(tableCols), width, groupHasSimd,
                 ctrStrips, ctrSimdStrips,
                 ctrJitStrips](BatchWorkspace& ws) {
            auto* scratch =
                reinterpret_cast<unsigned char*>(ws.scratch_.data());
            unsigned char* cols[jit::kMaxColumnSlots];
            if (frag != nullptr)
                for (std::size_t i = 0; i < tableCols.size(); ++i)
                    cols[i] = ws.rawColumn(tableCols[i]);
            const jit::Fragment::Fn fn = frag ? frag->fn() : nullptr;
            const std::size_t len = ws.length();
            std::uint64_t strips = 0;
            std::uint64_t jitStrips = 0;
            for (std::size_t base = 0; base < len;) {
                const std::size_t n = std::min(width, len - base);
                if (fn != nullptr && n == batch::kStripElems) {
                    fn(cols, base);
                    ++jitStrips;
                } else {
                    for (const auto& op : ops)
                        op(ws, base, n, scratch);
                }
                ++strips;
                base += n;
            }
            ctrStrips->fetch_add(strips, std::memory_order_relaxed);
            if (jitStrips > 0)
                ctrJitStrips->fetch_add(jitStrips,
                                        std::memory_order_relaxed);
            if (groupHasSimd && strips > jitStrips)
                ctrSimdStrips->fetch_add(strips - jitStrips,
                                         std::memory_order_relaxed);
        };
        execs.push_back(std::move(e));
        if (fused) {
            ++stats_.fusedKernels;
            stats_.fusedOps += b - a;
        }
    };

    auto fusable = [&](const StepInfo& s) {
        if (!optimize || s.kind != StepKind::Elementwise
            || !metas[s.out].registerable)
            return false;
        for (const auto o : s.operands)
            if (!metas[o].registerable)
                return false;
        return true;
    };
    std::size_t runStart = batch::kNoColumn;
    for (std::size_t k = 0; k < mainSteps.size(); ++k) {
        if (fusable(mainSteps[k])) {
            if (runStart == batch::kNoColumn)
                runStart = k;
            continue;
        }
        if (runStart != batch::kNoColumn) {
            emitGroup(runStart, k);
            runStart = batch::kNoColumn;
        }
        auto& s = mainSteps[k];
        if (s.kind == StepKind::Elementwise)
            emitGroup(k, k + 1);
        else // a leaf or const step runs its own full-block kernel
            execs.push_back({std::move(s.run), {}, {s.out}});
    }
    if (runStart != batch::kNoColumn)
        emitGroup(runStart, mainSteps.size());

    // ---- liveness-based slot assignment -----------------------------
    //
    // Unoptimized: one physical column per logical column. Optimized:
    // linear scan over the final step order; a column's slot returns
    // to a per-type free pool after its last reading step, so the
    // workspace holds O(live width) columns. Slots are
    // released only *after* the releasing step completes, so a step
    // never reads and writes the same physical slot through different
    // logical columns. Constant columns and the root are pinned.
    slots_.assign(metas.size(), batch::kNoColumn);
    if (!optimize) {
        physFactories_.reserve(metas.size());
        for (auto& meta : metas)
            physFactories_.push_back(std::move(meta.factory));
        for (std::size_t i = 0; i < metas.size(); ++i)
            slots_[i] = i;
        stats_.columnsMaterialized = metas.size();
        stats_.bytesPerSampleMaterialized = stats_.bytesPerSampleLowered;
    } else {
        std::vector<std::size_t> slotOf(metas.size(), batch::kNoColumn);
        std::vector<std::size_t> physSize;
        std::unordered_map<std::type_index, std::vector<std::size_t>>
            pool;
        auto assignSlot = [&](std::size_t col) {
            if (slotOf[col] != batch::kNoColumn)
                return;
            auto& freeList = pool[metas[col].storeType];
            if (!freeList.empty()) {
                slotOf[col] = freeList.back();
                freeList.pop_back();
            } else {
                slotOf[col] = physFactories_.size();
                physFactories_.push_back(std::move(metas[col].factory));
                physSize.push_back(metas[col].elemSize);
            }
        };
        std::vector<char> pinned(metas.size(), 0);
        if (rootRep < pinned.size())
            pinned[rootRep] = 1;
        for (std::size_t c = 0; c < metas.size(); ++c) {
            if (constCol[c]) {
                pinned[c] = 1;
                assignSlot(c); // hoisted splat defines it pre-block
            }
        }
        // Last step touching each column (reads; a write with no
        // later read dies at its defining step).
        std::vector<std::size_t> lastUse(metas.size(), 0);
        for (std::size_t k = 0; k < execs.size(); ++k) {
            for (const auto w : execs[k].writes)
                lastUse[w] = std::max(lastUse[w], k);
            for (const auto r : execs[k].reads)
                lastUse[r] = std::max(lastUse[r], k);
        }
        std::vector<char> released(metas.size(), 0);
        for (std::size_t k = 0; k < execs.size(); ++k) {
            for (const auto w : execs[k].writes)
                assignSlot(w);
            auto maybeRelease = [&](std::size_t col) {
                if (pinned[col] || released[col]
                    || slotOf[col] == batch::kNoColumn
                    || lastUse[col] != k)
                    return;
                released[col] = 1;
                pool[metas[col].storeType].push_back(slotOf[col]);
            };
            for (const auto r : execs[k].reads)
                maybeRelease(r);
            for (const auto w : execs[k].writes)
                maybeRelease(w);
        }
        for (std::size_t i = 0; i < metas.size(); ++i)
            slots_[i] = slotOf[canon(i)];
        stats_.columnsMaterialized = physFactories_.size();
        for (const auto size : physSize)
            stats_.bytesPerSampleMaterialized += size;
    }

    steps_.reserve(execs.size());
    for (auto& e : execs)
        steps_.push_back(std::move(e.run));
    stats_.stepsPerBlock = steps_.size();
}

} // namespace core
} // namespace uncertain

#endif // UNCERTAIN_CORE_BATCH_PLAN_HPP
