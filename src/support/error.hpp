/**
 * @file
 * Error reporting for the Uncertain<T> library.
 *
 * Two categories of failure, following the gem5 fatal/panic split:
 *  - uncertain::Error is thrown for user mistakes (bad arguments,
 *    invalid distribution parameters). Callers may catch and recover.
 *  - UNCERTAIN_ASSERT aborts on internal invariant violations, i.e.,
 *    bugs in this library itself.
 */

#ifndef UNCERTAIN_SUPPORT_ERROR_HPP
#define UNCERTAIN_SUPPORT_ERROR_HPP

#include <stdexcept>
#include <string>

namespace uncertain {

/**
 * Exception thrown on user error: invalid parameters, out-of-domain
 * arguments, or misuse of the API.
 */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string& what_arg)
        : std::runtime_error(what_arg)
    {}
};

namespace detail {

/** Throws uncertain::Error with the basename of @p file and the
 *  line. [[noreturn]] */
[[noreturn]] void
throwError(const char* file, int line, const std::string& message);

/** Prints an assertion failure and aborts. [[noreturn]] */
[[noreturn]] void
assertFail(const char* file, int line, const char* expr,
           const std::string& message);

} // namespace detail

} // namespace uncertain

/**
 * Validate a user-supplied condition; throws uncertain::Error with a
 * formatted message when the condition is false.
 */
#define UNCERTAIN_REQUIRE(cond, message)                                    \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::uncertain::detail::throwError(__FILE__, __LINE__, (message)); \
        }                                                                   \
    } while (false)

/**
 * Check an internal invariant; aborts with a diagnostic when violated.
 * A failure here is a bug in the library, never a user error.
 */
#define UNCERTAIN_ASSERT(cond, message)                                    \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::uncertain::detail::assertFail(__FILE__, __LINE__, #cond,     \
                                            (message));                   \
        }                                                                  \
    } while (false)

#endif // UNCERTAIN_SUPPORT_ERROR_HPP
