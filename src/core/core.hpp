/**
 * @file
 * Umbrella header for the Uncertain<T> core: include this to get the
 * type, its operator algebra, conditional evaluation, and DOT export.
 */

#ifndef UNCERTAIN_CORE_CORE_HPP
#define UNCERTAIN_CORE_CORE_HPP

#include "core/batch.hpp"       // IWYU pragma: export
#include "core/conditional.hpp" // IWYU pragma: export
#include "core/dot.hpp"         // IWYU pragma: export
#include "core/functions.hpp"   // IWYU pragma: export
#include "core/inspect.hpp"     // IWYU pragma: export
#include "core/node.hpp"        // IWYU pragma: export
#include "core/operators.hpp"   // IWYU pragma: export
#include "core/ordering.hpp"    // IWYU pragma: export
#include "core/uncertain.hpp"   // IWYU pragma: export
#include "exact/exact.hpp"      // IWYU pragma: export

#endif // UNCERTAIN_CORE_CORE_HPP
