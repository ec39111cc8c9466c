#include "support/error.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace uncertain {
namespace detail {
namespace {

/** The file name of @p path without its directories, so a message
 *  reads the same whatever directory the library was built in. */
const char*
baseName(const char* path)
{
    const char* slash = std::strrchr(path, '/');
    return slash != nullptr ? slash + 1 : path;
}

} // namespace

void
throwError(const char* file, int line, const std::string& message)
{
    std::ostringstream out;
    out << message << " (" << baseName(file) << ":" << line << ")";
    throw Error(out.str());
}

void
assertFail(const char* file, int line, const char* expr,
           const std::string& message)
{
    std::fprintf(stderr,
                 "uncertain: internal assertion `%s` failed at %s:%d: %s\n",
                 expr, baseName(file), line, message.c_str());
    std::abort();
}

} // namespace detail
} // namespace uncertain
