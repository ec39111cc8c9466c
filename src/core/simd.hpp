/**
 * @file
 * Plan-facing SIMD layer: the execution-backend selector and the
 * lookup from named operator functors (core/ops.hpp) to the native
 * ops of the kernel layer (core/simd_kernels.hpp).
 *
 * batch_plan.hpp consults nativeOp<F, R, As...> while building a
 * step: when the step's functor and operand types have a row in the
 * native-op table, the step carries its Op, and the plan can run it
 * through simd::elementwise or compile it into a JIT fragment;
 * otherwise the scalar strip loop stands.
 *
 * The kernels are bit-identical to the scalar loops (no FMA
 * contraction, no reassociation, compare+blend Min/Max; see
 * simd_kernels.hpp), which is what lets the plan switch backends
 * without changing a single output bit.
 */

#ifndef UNCERTAIN_CORE_SIMD_HPP
#define UNCERTAIN_CORE_SIMD_HPP

#include <cstdint>
#include <optional>

#include "core/ops.hpp"
#include "core/simd_kernels.hpp"

namespace uncertain {
namespace simd {

/**
 * Which strip implementation a compiled plan uses. The running CPU
 * picks the code under Auto; Simd and Scalar override it per plan.
 *
 * - Auto:   compile fused elementwise groups to native fragments when
 *           the plan-level JIT is available (jit::available()), else
 *           vectorize when activeIsa() reports AVX2, else compile the
 *           scalar strips. A group the fragment emitter refuses
 *           (e.g. an int32 op) runs the SIMD strips instead — the
 *           fallback order is always jit -> simd -> scalar,
 *           bit-identical at every rung.
 * - Simd:   always route native-op strips through the kernel
 *           layer. Safe on any machine — without AVX2 the kernels
 *           run their scalar rung — so tests can exercise the
 *           SIMD code path everywhere.
 * - Scalar: always the plain scalar interpreter strips.
 */
enum class ExecBackend : std::uint8_t
{
    Auto = 0,
    Simd = 1,
    Scalar = 2,
};

/** Human-readable backend name ("auto", "simd", "scalar"). */
inline const char*
backendName(ExecBackend backend)
{
    switch (backend) {
    case ExecBackend::Simd: return "simd";
    case ExecBackend::Scalar: return "scalar";
    case ExecBackend::Auto: break;
    }
    return "auto";
}

/**
 * The functor -> Op lookup: nativeOp<F, R, As...> is the native op of
 * functor F applied to operand base types As... producing base type
 * R, or nullopt when the pair has no native lowering. Expanded from
 * the one table, UNCERTAIN_NATIVE_OPS (core/simd_kernels.hpp). Pure
 * type-level — it never instantiates F — so lifted operators over
 * user-defined base types are untouched.
 */
template <typename F, typename R, typename... As>
inline constexpr std::optional<Op> nativeOp = std::nullopt;

#define UNCERTAIN_NATIVE_OP_ENTRY(name, F, ...)                          \
    template <>                                                          \
    inline constexpr std::optional<Op>                                   \
        nativeOp<core::ops::F, __VA_ARGS__> = Op::name;
UNCERTAIN_NATIVE_OPS(UNCERTAIN_NATIVE_OP_ENTRY)
#undef UNCERTAIN_NATIVE_OP_ENTRY

} // namespace simd
} // namespace uncertain

#endif // UNCERTAIN_CORE_SIMD_HPP
