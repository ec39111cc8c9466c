/**
 * @file
 * The plan configurations the bit-identity suites sweep: optimizer
 * {off, on} x backend {Auto, Simd, Scalar}.
 */

#ifndef UNCERTAIN_TESTS_PLAN_CONFIGS_HPP
#define UNCERTAIN_TESTS_PLAN_CONFIGS_HPP

#include <vector>

#include "core/batch_plan.hpp"

namespace uncertain {
namespace testing {

/** The six plan configurations: optimizer {off, on} x backend
 *  {Auto, Simd, Scalar}. */
inline std::vector<core::PlanOptions>
planConfigs()
{
    std::vector<core::PlanOptions> configs;
    for (bool optimize : {false, true})
        for (auto backend : {simd::ExecBackend::Auto,
                             simd::ExecBackend::Simd,
                             simd::ExecBackend::Scalar})
            configs.push_back({optimize, backend});
    return configs;
}

} // namespace testing
} // namespace uncertain

#endif // UNCERTAIN_TESTS_PLAN_CONFIGS_HPP
