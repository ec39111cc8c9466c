/** @file Error-reporting macro tests. */

#include <gtest/gtest.h>

#include <string>

#include "support/error.hpp"

namespace uncertain {
namespace {

TEST(Require, PassesOnTrueCondition)
{
    EXPECT_NO_THROW(UNCERTAIN_REQUIRE(1 + 1 == 2, "arithmetic works"));
}

TEST(Require, ThrowsUncertainErrorWithMessage)
{
    try {
        UNCERTAIN_REQUIRE(false, "the message");
        FAIL() << "expected uncertain::Error";
    } catch (const Error& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("the message"), std::string::npos);
        EXPECT_NE(what.find("error_test.cpp"), std::string::npos);
        // The file's basename only: no build directory leaks out.
        EXPECT_EQ(what.find('/'), std::string::npos) << what;
    }
}

TEST(Require, ErrorIsARuntimeError)
{
    EXPECT_THROW(UNCERTAIN_REQUIRE(false, "x"), std::runtime_error);
}

} // namespace
} // namespace uncertain
