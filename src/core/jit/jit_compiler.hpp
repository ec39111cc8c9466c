/**
 * @file
 * The fragment compiler of the plan-level JIT backend: turns one
 * fused elementwise run of a BatchPlan (a sequence of strip micro-ops
 * over columns, strip registers, and broadcast constants) into a
 * single straight-line native function covering a whole
 * kStripElems-element strip, replacing per-step kernel dispatch
 * entirely.
 *
 * Contract mirrors the SIMD kernel layer (core/simd_kernels.hpp): the
 * emitted code performs the same IEEE operation per element in the
 * same element order as the scalar interpreter strip — no FMA
 * contraction (none is ever emitted), compare+blend Min/Max, ordered
 * compares — so fragment output is bit-identical to both the scalar
 * and the SIMD strips. Processing per *pack* (4 elements) across
 * all ops, instead of per op across the strip, only reorders which
 * elements are computed when — the same argument that makes the
 * fusion pass bit-exact.
 *
 * Fragments are cached process-wide, keyed by the group's canonical
 * op/operand signature plus the strip length, so
 * plans sharing a shape (across samplers and threads) compile once.
 * The cache is mutex-guarded and bounded.
 *
 * compileGroup() refuses — returning a null fragment — rather than
 * guess: unsupported op (an int32 row of the native-op table), no
 * AVX2 (including a -DUNCERTAIN_SIMD=OFF build), register pressure
 * beyond the allocator, too many distinct columns, or executable memory
 * unavailable. The caller falls back to the SIMD/scalar strips; the
 * interpreter remains the always-available oracle.
 */

#ifndef UNCERTAIN_CORE_JIT_JIT_COMPILER_HPP
#define UNCERTAIN_CORE_JIT_JIT_COMPILER_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/jit/jit_buffer.hpp"
#include "core/simd_kernels.hpp"

namespace uncertain {
namespace jit {

/**
 * The strip IR's op vocabulary: the native-op table shared with the
 * SIMD kernels (UNCERTAIN_NATIVE_OPS in core/simd_kernels.hpp). The
 * emitter lowers the f64, i64 and bool rows and refuses the int32
 * rows.
 */
using Op = simd::Op;

/** Where one fragment operand lives. */
struct Operand
{
    enum class Kind : std::uint8_t
    {
        Column,  //!< workspace column; index = dense column slot
        Scratch, //!< strip register; index = scratch byte offset
        Const,   //!< broadcast constant; constBits = object bytes
    };

    Kind kind = Kind::Column;
    std::uint32_t index = 0;
    std::uint64_t constBits = 0;
};

/** One step of the group, with operands already slot-remapped. */
struct GroupStep
{
    Op op = Op::AddF64;
    std::array<Operand, 3> src{};
    std::uint8_t arity = 0;
    Operand dst{}; //!< Column or Scratch, never Const
};

/** Hard cap on distinct column slots per fragment (pointer table). */
constexpr std::size_t kMaxColumnSlots = 64;

/**
 * A sealed native function over one strip:
 *   fn(cols, base)
 * where cols[slot] is the raw storage pointer of that column slot and
 * base is the absolute element index of the strip's first element
 * (every column is addressed as cols[slot] + base * elemSize). The
 * function processes exactly the stripElems it was compiled for, so
 * callers run it only on full strips and hand partial tails to the
 * interpreter strips.
 */
class Fragment
{
  public:
    using Fn = void (*)(unsigned char* const* cols, std::size_t base);

    Fragment(std::unique_ptr<ExecBuffer> buffer)
        : buffer_(std::move(buffer))
    {}

    Fn
    fn() const
    {
        return reinterpret_cast<Fn>(
            const_cast<void*>(buffer_->entry()));
    }

    std::size_t codeBytes() const { return buffer_->codeBytes(); }

  private:
    std::unique_ptr<ExecBuffer> buffer_;
};

/** Outcome of one compileGroup call. */
struct CompileResult
{
    std::shared_ptr<const Fragment> fragment; //!< null on refusal
    bool cacheHit = false;       //!< served from the process-wide cache
    std::uint64_t compileNanos = 0; //!< actual emission time (0 on hit)
};

/** Process-wide fragment cache counters (tests, planReport). */
struct FragmentCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    //!< lookups that ran the emitter
    std::uint64_t refusals = 0;  //!< emitter declined (not cached)
    std::uint64_t evictions = 0;
    std::size_t size = 0;
};

/**
 * Can the JIT emit anything in this process? True exactly when the
 * target is x86-64, simd::activeIsa() is Avx2 (the emitter targets
 * AVX2 only, so a pre-AVX2 CPU or a -DUNCERTAIN_SIMD=OFF build says
 * no) and the one-time executable-memory probe passed. Fixed for the
 * life of the process.
 */
bool available();

/** Name of the ISA fragments are emitted for: "avx2" when
 *  available(), else "none". The emitter follows the *running CPU*
 *  (simd::activeIsa), not the compiler flags — generated code
 *  carries its own encoding. */
const char* codegenIsaName();

/**
 * Compile @p steps (one fused run, operands slot-remapped so column
 * slots are dense appearance-order indices below @p columnSlots) into
 * a fragment processing @p stripElems elements per call. Serves the
 * process-wide cache first. Null fragment = refusal; see file header
 * for the refusal vocabulary.
 */
CompileResult compileGroup(const std::vector<GroupStep>& steps,
                           std::size_t columnSlots,
                           std::size_t stripElems);

/** Snapshot of the process-wide fragment cache counters. */
FragmentCacheStats fragmentCacheStats();

/** Drop every cached fragment (tests; live plans keep theirs alive). */
void clearFragmentCache();

} // namespace jit
} // namespace uncertain

#endif // UNCERTAIN_CORE_JIT_JIT_COMPILER_HPP
